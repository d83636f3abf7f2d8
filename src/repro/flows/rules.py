"""Concrete OpenFlow-style match rules.

A :class:`Rule` matches packets on the 5-tuple fields through value/mask
pairs (:class:`Match`), carries a priority for matching precedence, the
idle/hard timeout pair defined by the OpenFlow specification the paper
cites, and an opaque action.  :class:`RuleTable` is a priority-ordered
collection with the lookup semantics of a switch flow table *policy*
(which rule covers which flow); the stateful cached table lives in
:mod:`repro.simulator.flowtable`.

The paper's evaluation builds rules whose source-address match uses an
arbitrary bitmask on the low 4 address bits ("up to 4-bit masks", giving
the 81 possible rules for 16 contiguous addresses); arbitrary masks --
not just prefixes -- are therefore supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Iterator, Optional, Tuple

from repro.flows.flowid import FlowId, ip_to_str

#: Sentinel action meaning "forward along the computed route".
ACTION_FORWARD = "forward"
#: Sentinel action meaning "send to the controller" (table-miss helper).
ACTION_CONTROLLER = "controller"
#: Sentinel action meaning "flood on all ports" (the paper's default rule).
ACTION_FLOOD = "flood"


@dataclass(frozen=True)
class Match:
    """A single value/mask match field.

    A key ``k`` matches iff ``k & mask == value & mask``.  ``mask == 0``
    is the full wildcard; for IPv4 fields ``mask == 0xFFFFFFFF`` is an
    exact match.
    """

    value: int
    mask: int

    #: Full-wildcard IPv4 match (assigned after class creation).
    ANY: ClassVar["Match"]

    def __deepcopy__(self, memo: Dict[int, object]) -> "Match":
        return self  # immutable: network forks share it

    def matches(self, key: int) -> bool:
        """Whether ``key`` falls inside this value/mask set."""
        return (key & self.mask) == (self.value & self.mask)

    def is_wildcard(self) -> bool:
        """True when the field matches every key."""
        return self.mask == 0

    def is_exact(self, width: int = 32) -> bool:
        """True when the field pins all ``width`` bits."""
        return self.mask == (1 << width) - 1

    def specificity(self) -> int:
        """Number of pinned bits; used for specificity-based priorities."""
        return bin(self.mask).count("1")

    def overlaps(self, other: "Match") -> bool:
        """Whether some key matches both fields.

        Two value/mask sets intersect iff the values agree on the bits
        pinned by *both* masks.
        """
        common = self.mask & other.mask
        return (self.value & common) == (other.value & common)

    @classmethod
    def exact(cls, value: int, width: int = 32) -> "Match":
        """Exact match on a ``width``-bit key."""
        return cls(value, (1 << width) - 1)

    @classmethod
    def prefix(cls, value: int, prefix_len: int, width: int = 32) -> "Match":
        """Classic CIDR prefix match."""
        if not 0 <= prefix_len <= width:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        mask = ((1 << width) - 1) ^ ((1 << (width - prefix_len)) - 1)
        return cls(value & mask, mask)

    def describe_ip(self) -> str:
        """Render an IPv4 field as address/mask (or ``*``)."""
        if self.is_wildcard():
            return "*"
        if self.is_exact():
            return ip_to_str(self.value)
        return f"{ip_to_str(self.value & self.mask)}/{ip_to_str(self.mask)}"


Match.ANY = Match(0, 0)


@dataclass(frozen=True)
class Rule:
    """A concrete flow rule.

    ``priority`` follows OpenFlow: larger numbers take precedence.
    ``idle_timeout`` / ``hard_timeout`` are seconds; ``0`` disables the
    respective timeout (a rule with both zero is permanent, like the
    paper's pre-installed rules).
    """

    name: str
    src: Match = Match.ANY
    dst: Match = Match.ANY
    proto: Optional[int] = None
    sport: Match = Match.ANY
    dport: Match = Match.ANY
    priority: int = 0
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    action: str = ACTION_FORWARD

    def __post_init__(self) -> None:
        if self.idle_timeout < 0 or self.hard_timeout < 0:
            raise ValueError("timeouts must be non-negative")

    def __deepcopy__(self, memo: Dict[int, object]) -> "Rule":
        return self  # immutable: network forks share it

    def covers(self, flow: FlowId) -> bool:
        """Whether this rule matches packets of ``flow``."""
        if self.proto is not None and self.proto != flow.proto:
            return False
        return (
            self.src.matches(flow.src)
            and self.dst.matches(flow.dst)
            and self.sport.matches(flow.sport)
            and self.dport.matches(flow.dport)
        )

    def overlaps(self, other: "Rule") -> bool:
        """Whether some flow is covered by both rules."""
        if (
            self.proto is not None
            and other.proto is not None
            and self.proto != other.proto
        ):
            return False
        return (
            self.src.overlaps(other.src)
            and self.dst.overlaps(other.dst)
            and self.sport.overlaps(other.sport)
            and self.dport.overlaps(other.dport)
        )

    def is_permanent(self) -> bool:
        """True for rules with no timeout (never expire, never evicted)."""
        # 0.0 is the exact "timeout disabled" sentinel, never computed.
        return self.idle_timeout == 0.0 and self.hard_timeout == 0.0  # repro: noqa[PY001]

    def describe(self) -> str:
        """Human-readable rendering used in logs and reports."""
        parts = [f"src={self.src.describe_ip()}", f"dst={self.dst.describe_ip()}"]
        if self.proto is not None:
            parts.append(f"proto={self.proto}")
        parts.append(f"prio={self.priority}")
        if self.idle_timeout:
            parts.append(f"idle={self.idle_timeout:g}s")
        if self.hard_timeout:
            parts.append(f"hard={self.hard_timeout:g}s")
        return f"{self.name}[{' '.join(parts)}]"


class RuleTable:
    """A priority-ordered set of rules (a *policy*, not a cache).

    This is the rule set ``Rules`` of the paper: the collection from which
    the controller picks the highest-priority covering rule on a miss.
    Construction validates the paper's well-formedness requirement that
    overlapping rules have distinct priorities (so that matching is a
    total order on every flow's covering set).
    """

    def __init__(self, rules: Iterable[Rule], validate: bool = True) -> None:
        self._rules: Tuple[Rule, ...] = tuple(
            sorted(rules, key=lambda r: (-r.priority, r.name))
        )
        names = [rule.name for rule in self._rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names in table")
        if validate:
            self._check_overlap_priorities()

    def _check_overlap_priorities(self) -> None:
        rules = self._rules
        for i, first in enumerate(rules):
            for second in rules[i + 1 :]:
                if first.priority != second.priority:
                    continue
                if first.overlaps(second):
                    raise ValueError(
                        "overlapping rules must have distinct priorities: "
                        f"{first.name} and {second.name}"
                    )

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._rules

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """All rules, highest priority first."""
        return self._rules

    def highest_covering(self, flow: FlowId) -> Optional[Rule]:
        """The highest-priority rule covering ``flow``, or ``None``.

        This is the rule the controller installs on a table miss for
        ``flow`` (Section III-B2 of the paper).
        """
        for rule in self._rules:  # sorted highest priority first
            if rule.covers(flow):
                return rule
        return None

    def covering(self, flow: FlowId) -> Tuple[Rule, ...]:
        """All rules covering ``flow``, highest priority first."""
        return tuple(rule for rule in self._rules if rule.covers(flow))
