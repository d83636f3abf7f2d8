"""Oracle: probe-outcome tables from a dict frontier walk.

Production keeps every probed state weighting as dense per-outcome
state rows (:meth:`repro.core.inference.ReconInference.prefix_distribution`,
:func:`repro.core.inference.coverage_split`,
:func:`repro.core.inference.push_probe`).  The implementations those
rows replaced live here, over ``{state mask: weight}`` dicts:

* :func:`walk_probes` -- push a weighting through a probe sequence,
  each probe's outcome read before its install/evict perturbation,
  which feeds the next probe (Section V-B);
* :func:`walk_outcome_table` / :func:`walk_information_gain` -- the
  joint outcome table and gain of a probe sequence from two walks;
* :func:`best_single_probe_serial` / :func:`best_probe_set_serial` --
  the per-candidate selection loops the engine replaced;
* :class:`DictSession` -- the adaptive session step over dict
  weightings (:meth:`DictSession._split_by_outcome`,
  :meth:`DictSession._conditional_gain`).

``tests/core/test_selection_engine.py`` holds production to these.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compact_model import CompactModel
from repro.core.gain import information_gain
from repro.core.inference import OutcomeTable, ReconInference
from repro.core.selection import ProbeChoice


def probe_outcome(model: CompactModel, state: int, flow: int) -> int:
    """``Q_f`` for a probe of ``flow`` against a (bitmask) state."""
    return 1 if model.context.state_covers(flow, state) else 0


def walk_probes(
    model: CompactModel,
    weights_by_state: Dict[int, float],
    probes: Tuple[int, ...],
    prune: float = 1e-15,
    branch_cache: Optional[
        Dict[Tuple[int, int], Tuple[int, List[Tuple[int, float]]]]
    ] = None,
) -> Dict[Tuple[int, ...], float]:
    """Push a state distribution through a probe sequence.

    Returns the probability of each probe-outcome vector under the given
    (possibly substochastic) state weighting.  Probes are applied in
    order; each probe's outcome is read off the state *before* the
    probe's own perturbation is applied, and the perturbation feeds the
    next probe -- the Section V-B incremental adjustment.

    ``branch_cache`` optionally memoises ``(flow, state) -> (outcome
    bit, successor branches)`` across calls; both are pure functions of
    the model, so sharing a cache between walks (e.g. the joint and
    marginal walks of one outcome table) changes nothing observable.
    """
    outcome_probs: Dict[Tuple[int, ...], float] = {}
    if branch_cache is None:
        branch_cache = {}
    if len(probes) == 1:
        return _walk_single_probe(
            model, weights_by_state, probes[0], prune, branch_cache
        )
    # Frontier entries: (state, outcome prefix) -> weight.
    frontier: Dict[Tuple[int, Tuple[int, ...]], float] = {
        (state, ()): weight
        for state, weight in weights_by_state.items()
        if weight > prune
    }
    cache_get = branch_cache.get
    for flow in probes:
        next_frontier: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        get = next_frontier.get
        for (state, prefix), weight in frontier.items():
            entry = cache_get((flow, state))
            if entry is None:
                entry = (
                    probe_outcome(model, state, flow),
                    model.apply_probe(state, flow),
                )
                branch_cache[(flow, state)] = entry
            bit, branches = entry
            outcome = prefix + (bit,)
            for successor, branch_prob in branches:
                new_weight = weight * branch_prob
                if new_weight <= prune:
                    continue
                key = (successor, outcome)
                next_frontier[key] = get(key, 0.0) + new_weight
        frontier = next_frontier
    for (state, outcome), weight in frontier.items():
        outcome_probs[outcome] = outcome_probs.get(outcome, 0.0) + weight
    return outcome_probs


def _walk_single_probe(
    model: CompactModel,
    weights_by_state: Dict[int, float],
    flow: int,
    prune: float,
    branch_cache: Dict[Tuple[int, int], Tuple[int, List[Tuple[int, float]]]],
) -> Dict[Tuple[int, ...], float]:
    """One-probe fast path: plain-int keys instead of tuple keys.

    Replicates the generic walk exactly: per-outcome successor dicts
    merge contributions in the same insertion order the combined
    ``(state, outcome)`` frontier would, outcome dicts are created at
    the first *surviving* insertion (so the returned key order matches),
    and each outcome's total accumulates over its successors in that
    same insertion order -- bit-identical sums.
    """
    by_bit: Dict[int, Dict[int, float]] = {}
    cache_get = branch_cache.get
    for state, weight in weights_by_state.items():
        if weight <= prune:
            continue
        entry = cache_get((flow, state))
        if entry is None:
            entry = (
                probe_outcome(model, state, flow),
                model.apply_probe(state, flow),
            )
            branch_cache[(flow, state)] = entry
        bit, branches = entry
        target = by_bit.get(bit)
        for successor, branch_prob in branches:
            new_weight = weight * branch_prob
            if new_weight <= prune:
                continue
            if target is None:
                target = {}
                by_bit[bit] = target
            target[successor] = target.get(successor, 0.0) + new_weight
    return {
        (bit,): sum(successors.values())
        for bit, successors in by_bit.items()
    }


def weights_dict(model: CompactModel, dist: np.ndarray) -> Dict[int, float]:
    """``{state mask: weight}`` of the entries above the prune threshold."""
    states = model.states
    idx = np.nonzero(dist > 1e-15)[0]
    return dict(zip((states[i] for i in idx.tolist()), dist[idx].tolist()))


def walk_outcome_table(
    inference: ReconInference, probes: Sequence[int]
) -> OutcomeTable:
    """The joint outcome table of ``probes`` from two frontier walks."""
    key = tuple(int(f) for f in probes)
    model = inference.model
    # The two walks visit largely the same states; share the
    # (flow, state) branch memo so probe application runs once.
    branch_cache: Dict[
        Tuple[int, int], Tuple[int, List[Tuple[int, float]]]
    ] = {}
    outcome_probs = walk_probes(
        model,
        weights_dict(model, inference.dist_full),
        key,
        branch_cache=branch_cache,
    )
    joint_absent = walk_probes(
        model,
        weights_dict(model, inference.dist_absent),
        key,
        branch_cache=branch_cache,
    )
    return OutcomeTable(
        probes=key, outcome_probs=outcome_probs, joint_absent=joint_absent
    )


def walk_information_gain(
    inference: ReconInference, probes: Sequence[int]
) -> float:
    """``IG(X̂ | Q)`` of ``probes`` from :func:`walk_outcome_table`."""
    table = walk_outcome_table(inference, probes)
    return information_gain(
        inference.prior_absent(), table.joint_absent, table.outcome_probs
    )


def best_single_probe_serial(
    inference: ReconInference,
    candidates: Optional[Sequence[int]] = None,
) -> ProbeChoice:
    """Original per-flow dict-walk loop of ``best_single_probe``."""
    if candidates is None:
        candidates = range(inference.model.context.n_flows)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate probes")
    best_flow = None
    best_gain = -1.0
    for flow in candidates:
        gain = walk_information_gain(inference, (flow,))
        if gain > best_gain + 1e-15:
            best_flow = flow
            best_gain = gain
    assert best_flow is not None
    return ProbeChoice(probes=(best_flow,), gain=max(best_gain, 0.0))


def best_probe_set_serial(
    inference: ReconInference,
    n_probes: int,
    candidates: Optional[Sequence[int]] = None,
    method: str = "exhaustive",
) -> ProbeChoice:
    """Original per-combination loop of ``best_probe_set``."""
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if candidates is None:
        candidates = range(inference.model.context.n_flows)
    candidates = sorted(set(int(f) for f in candidates))
    if len(candidates) < n_probes:
        raise ValueError(
            f"need {n_probes} candidates, have {len(candidates)}"
        )
    if n_probes == 1:
        return best_single_probe_serial(inference, candidates)

    if method == "exhaustive":
        best: Optional[ProbeChoice] = None
        for combo in combinations(candidates, n_probes):
            gain = walk_information_gain(inference, combo)
            if best is None or gain > best.gain + 1e-15:
                best = ProbeChoice(probes=combo, gain=gain)
        assert best is not None
        return best

    if method == "greedy":
        chosen: Tuple[int, ...] = ()
        gain = 0.0
        remaining = list(candidates)
        for _ in range(n_probes):
            best_flow = None
            best_gain = -1.0
            for flow in remaining:
                probes = tuple(sorted(chosen + (flow,)))
                candidate_gain = walk_information_gain(inference, probes)
                if candidate_gain > best_gain + 1e-15:
                    best_flow = flow
                    best_gain = candidate_gain
            assert best_flow is not None
            chosen = tuple(sorted(chosen + (best_flow,)))
            remaining.remove(best_flow)
            gain = best_gain
        return ProbeChoice(probes=chosen, gain=gain)

    raise ValueError(f"unknown selection method: {method!r}")


class DictSession:
    """The adaptive session step over ``{state mask: weight}`` dicts.

    Scores every allowed candidate with :meth:`_conditional_gain` and
    conditions on an observed bit with :meth:`_split_by_outcome`, the
    per-flow loops ``repro.core.adaptive.AdaptiveSession`` replaced.
    """

    def __init__(
        self,
        inference: ReconInference,
        candidates: Sequence[int],
        min_gain: float = 1e-9,
    ) -> None:
        self.model = inference.model
        self.candidates = sorted(set(int(f) for f in candidates))
        self.min_gain = min_gain
        self._weights_full = weights_dict(self.model, inference.dist_full)
        self._weights_absent = weights_dict(self.model, inference.dist_absent)
        self.history: List[Tuple[int, int]] = []

    @property
    def evidence_mass(self) -> float:
        """``P(observations so far)`` under the model."""
        return sum(self._weights_full.values())

    def posterior_absent(self) -> float:
        """``P(X̂ = 0 | observations)``; 0.5 when evidence mass is zero."""
        mass = self.evidence_mass
        if mass <= 0.0:
            return 0.5
        return min(sum(self._weights_absent.values()) / mass, 1.0)

    def _split_by_outcome(
        self, weights: Dict[int, float], flow: int
    ) -> Dict[int, Dict[int, float]]:
        """Partition + perturb a weighting by a probe's outcome bit."""
        split: Dict[int, Dict[int, float]] = {0: {}, 1: {}}
        for state, weight in weights.items():
            bit = probe_outcome(self.model, state, flow)
            bucket = split[bit]
            for successor, prob in self.model.apply_probe(state, flow):
                value = weight * prob
                if value <= 0.0:
                    continue
                bucket[successor] = bucket.get(successor, 0.0) + value
        return split

    def _conditional_gain(self, flow: int) -> float:
        """IG about ``X̂`` of probing ``flow`` now, given the history."""
        mass = self.evidence_mass
        if mass <= 0.0:
            return 0.0
        split_full = self._split_by_outcome(self._weights_full, flow)
        split_absent = self._split_by_outcome(self._weights_absent, flow)
        outcome_probs = {
            (bit,): sum(split_full[bit].values()) / mass for bit in (0, 1)
        }
        joint_absent = {
            (bit,): sum(split_absent[bit].values()) / mass for bit in (0, 1)
        }
        prior_absent = self.posterior_absent()
        return information_gain(prior_absent, joint_absent, outcome_probs)

    def next_probe(self) -> Optional[int]:
        """The unused candidate of largest conditional gain, or ``None``."""
        used = {flow for flow, _ in self.history}
        best_flow: Optional[int] = None
        best_gain = self.min_gain
        for flow in self.candidates:
            if flow in used:
                continue
            gain = self._conditional_gain(flow)
            if gain > best_gain + 1e-15:
                best_flow = flow
                best_gain = gain
        return best_flow

    def observe(self, flow: int, outcome: int) -> None:
        """Condition on ``outcome`` of probing ``flow``."""
        self._weights_full = self._split_by_outcome(
            self._weights_full, flow
        )[outcome]
        self._weights_absent = self._split_by_outcome(
            self._weights_absent, flow
        )[outcome]
        self.history.append((flow, outcome))
