"""Rule registry: one module per rule, stable IDs, fixed order."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lint.base import LintRule
from repro.lint.rules.determinism import SetIterationRule
from repro.lint.rules.mutation import CachedArrayMutationRule
from repro.lint.rules.obs import ObservabilityContextRule
from repro.lint.rules.pyhygiene import PythonHygieneRule
from repro.lint.rules.rng import UnseededRandomnessRule
from repro.lint.rules.stochastic import UnvalidatedTransitionMatrixRule

#: Every rule, in reporting/documentation order.
ALL_RULES: List[LintRule] = [
    UnseededRandomnessRule(),
    CachedArrayMutationRule(),
    UnvalidatedTransitionMatrixRule(),
    SetIterationRule(),
    PythonHygieneRule(),
    ObservabilityContextRule(),
]

_BY_ID: Dict[str, LintRule] = {rule.rule_id: rule for rule in ALL_RULES}


def rule_by_id(rule_id: str) -> Optional[LintRule]:
    """The registered rule with this ID, if any."""
    return _BY_ID.get(rule_id.upper())


__all__ = [
    "ALL_RULES",
    "CachedArrayMutationRule",
    "ObservabilityContextRule",
    "PythonHygieneRule",
    "SetIterationRule",
    "UnseededRandomnessRule",
    "UnvalidatedTransitionMatrixRule",
    "rule_by_id",
]
