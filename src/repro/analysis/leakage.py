"""Defender-side leakage analysis of rule structures.

Section VII-B3 proposes using the attack model itself as a design tool:
"our Markov model can serve as a tool to measure the information
leakage of the rule structure".  This module provides that tool at the
policy level:

* :func:`leakage_map` -- for every flow in the universe (as a potential
  reconnaissance target), the best single-probe information gain an
  attacker could extract.  The defender reads this as a heat map of
  which communications the rule structure exposes.
* :func:`compare_structures` -- rows comparing several candidate
  structures (e.g. the original, a microflow split, a coarse merge) on
  worst-case and mean leakage; the worst case over targets is the rule
  structure's leakage figure-of-merit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe
from repro.flows.policy import Policy
from repro.flows.universe import FlowUniverse


def leakage_map(
    policy: Policy,
    universe: FlowUniverse,
    delta: float,
    cache_size: int,
    window_steps: int,
    candidates: Optional[Sequence[int]] = None,
    targets: Optional[Sequence[int]] = None,
) -> Dict[int, float]:
    """Best-probe information gain per potential target flow.

    The compact model is built once and shared; one inference (two
    ``T``-step evolutions) runs per target.  Targets default to every
    flow the policy covers -- uncovered flows leave no cache footprint
    and leak nothing through this channel.
    """
    model = CompactModel(policy, universe, delta, cache_size)
    if targets is None:
        targets = sorted(policy.covered_flows())
    leaks: Dict[int, float] = {}
    dist_full = model.distribution_after(window_steps)
    for target in targets:
        inference = ReconInference(
            model, target, window_steps, precomputed_full=dist_full
        )
        leaks[int(target)] = best_single_probe(inference, candidates=candidates).gain
    return leaks


def compare_structures(
    structures: Dict[str, Policy],
    universe: FlowUniverse,
    delta: float,
    cache_size: int,
    window_steps: int,
    candidates: Optional[Sequence[int]] = None,
) -> List[Dict[str, object]]:
    """Leakage comparison rows for alternative rule structures.

    Each row reports the structure's rule count, its worst-case target
    and leakage, and the mean leakage across covered flows -- the
    numbers a defender trades off against forwarding granularity when
    applying the Section VII-B3 transformation.
    """
    rows: List[Dict[str, object]] = []
    for name, policy in structures.items():
        leaks = leakage_map(
            policy, universe, delta, cache_size, window_steps, candidates
        )
        if leaks:
            worst_target = max(leaks, key=leaks.get)
            worst = leaks[worst_target]
            mean = sum(leaks.values()) / len(leaks)
        else:  # a policy covering nothing leaks nothing
            worst_target, worst, mean = -1, 0.0, 0.0
        rows.append(
            {
                "structure": name,
                "n_rules": len(policy),
                "worst_target": worst_target,
                "worst_leakage_bits": worst,
                "mean_leakage_bits": mean,
            }
        )
    return rows
