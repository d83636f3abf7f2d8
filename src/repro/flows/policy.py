"""Abstract policies: rules as sets of flow identifiers.

Section IV of the paper abstracts each rule to the set of flow identifiers
it covers, together with a priority total order and a timeout measured in
model steps of duration ``Delta``.  :class:`ModelRule` and :class:`Policy`
are that abstraction; the configuration generator
(:mod:`repro.flows.config`) builds it alongside the concrete wildcard
rules it abstracts.

Throughout :mod:`repro.core`, flows are referenced by their integer index
into the :class:`~repro.flows.universe.FlowUniverse`, and rules by their
integer index into the policy (0-based, in *descending* priority order, so
``rule 0`` is the highest-priority rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from repro.flows.universe import FlowUniverse


@dataclass(frozen=True)
class ModelRule:
    """A rule abstracted to its covered flow-index set.

    ``timeout_steps`` is the rule TTL ``t_j`` in model steps; the model
    treats every reactive rule as idle-timeout based unless ``hard`` is
    set (Section IV-A handles both; OVS reactive rules in the paper's
    setup use idle timeouts).
    """

    index: int
    name: str
    flows: FrozenSet[int]
    timeout_steps: int
    priority: int
    hard: bool = False

    def __post_init__(self) -> None:
        if self.timeout_steps < 1:
            raise ValueError(f"rule {self.name}: timeout_steps must be >= 1")

    def covers(self, flow_index: int) -> bool:
        """Whether this rule covers the flow with the given index."""
        return flow_index in self.flows


class Policy:
    """The abstract rule set ``Rules`` with priority total order.

    Rules are stored highest-priority-first; ``policy[j]`` is the rule
    with priority rank ``j`` (rank 0 = highest).  Validation enforces the
    paper's requirement that overlapping rules have distinct priorities
    (guaranteed here by the strict ordering) and that every rule covers at
    least one flow in the universe (rules covering nothing are inert and
    would silently distort state-space sizes).
    """

    def __init__(self, rules: Sequence[ModelRule], validate: bool = True) -> None:
        self._rules: Tuple[ModelRule, ...] = tuple(rules)
        if validate:
            self._validate()
        self._covering_cache: Dict[int, Tuple[int, ...]] = {}

    def _validate(self) -> None:
        priorities = [rule.priority for rule in self._rules]
        if sorted(priorities, reverse=True) != priorities:
            raise ValueError("rules must be ordered by descending priority")
        if len(set(priorities)) != len(priorities):
            raise ValueError("rule priorities must be distinct")
        for expected, rule in enumerate(self._rules):
            if rule.index != expected:
                raise ValueError(
                    f"rule {rule.name} has index {rule.index}, expected {expected}"
                )
            if not rule.flows:
                raise ValueError(f"rule {rule.name} covers no flows")

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[ModelRule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> ModelRule:
        return self._rules[index]

    @property
    def rules(self) -> Tuple[ModelRule, ...]:
        """All rules, highest priority (rank 0) first."""
        return self._rules

    def covering(self, flow_index: int) -> Tuple[int, ...]:
        """Indices of rules covering ``flow_index``, highest priority first."""
        cached = self._covering_cache.get(flow_index)
        if cached is None:
            cached = tuple(
                rule.index for rule in self._rules if flow_index in rule.flows
            )
            self._covering_cache[flow_index] = cached
        return cached

    def highest_covering(self, flow_index: int) -> Optional[int]:
        """Index of the highest-priority rule covering the flow, if any."""
        covering = self.covering(flow_index)
        return covering[0] if covering else None

    def covered_flows(self) -> FrozenSet[int]:
        """Union of all rules' flow sets."""
        covered: set = set()
        for rule in self._rules:
            covered |= rule.flows
        return frozenset(covered)

    def describe(self, universe: Optional[FlowUniverse] = None) -> str:
        """Multi-line human-readable policy dump."""
        lines = []
        for rule in self._rules:
            flows = ",".join(str(f) for f in sorted(rule.flows))
            lines.append(
                f"  #{rule.index} {rule.name} prio={rule.priority} "
                f"t={rule.timeout_steps} flows={{{flows}}}"
            )
        return "\n".join(lines)

