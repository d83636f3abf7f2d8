"""Latency CDFs, threshold ROC, leakage maps, rule structure, state counts."""

from repro.analysis.cdf import empirical_cdf
from repro.analysis.statecount import (
    basic_state_count,
    compact_state_count,
    state_count_table,
)
from repro.analysis.leakage import compare_structures, leakage_map
from repro.analysis.roc import roc_points

__all__ = [
    "compare_structures",
    "leakage_map",
    "roc_points",
    "empirical_cdf",
    "basic_state_count",
    "compact_state_count",
    "state_count_table",
]
