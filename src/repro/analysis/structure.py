"""Structural diagnostics of rule sets vs attack performance.

The constrained attacker's fate (Figure 7) hinges on *rule sharing*:
when the target flow's covering rules also cover other flows, a sibling
probe carries the same cache signal as probing the target itself and
the constrained attacker matches the naive one; when the target's best
evidence sits in an exact (unshared) rule, every admissible probe is
blind to it and the constrained attacker falls back to the prior.
:func:`target_structure` quantifies that structure so experiment
outputs can be grouped and explained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set

from repro.flows.policy import Policy


@dataclass(frozen=True)
class TargetStructure:
    """How a target flow sits inside a rule structure."""

    target_flow: int
    covering_rules: FrozenSet[int]
    #: Flows (other than the target) sharing at least one covering rule.
    sibling_flows: FrozenSet[int]
    #: Rules covering the target and nothing else (exact/microflow rules).
    exclusive_rules: FrozenSet[int]

    @property
    def install_rule_is_exclusive(self) -> bool:
        """Whether the rule a target miss installs covers only the target.

        When true, the strongest cache evidence about the target is
        invisible to every sibling probe -- the regime where the
        constrained attacker cannot match the naive one.
        """
        if not self.covering_rules:
            return False
        install = min(self.covering_rules)  # highest priority rank
        return install in self.exclusive_rules


def target_structure(policy: Policy, target_flow: int) -> TargetStructure:
    """Compute the sharing structure around one target flow."""
    covering = frozenset(policy.covering(target_flow))
    siblings: Set[int] = set()
    exclusive: Set[int] = set()
    for rule_index in sorted(covering):
        others = policy[rule_index].flows - {target_flow}
        if others:
            siblings |= others
        else:
            exclusive.add(rule_index)
    return TargetStructure(
        target_flow=target_flow,
        covering_rules=covering,
        sibling_flows=frozenset(siblings),
        exclusive_rules=frozenset(exclusive),
    )
