"""Rule registry: one module per rule, stable IDs, fixed order."""

from __future__ import annotations

from typing import List

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

__all__ = [
    "ALL_RULES",
    "CachedArrayMutationRule",
    "ObservabilityContextRule",
    "PythonHygieneRule",
    "SetIterationRule",
    "UnseededRandomnessRule",
    "UnvalidatedTransitionMatrixRule",
]
