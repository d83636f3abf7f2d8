"""Oracle: the per-state transition builder and its semantics knobs.

The compact model's first entry builder and probe perturbation: one
Python loop per state, reading eviction splits and timeout hazards from
a recency estimator's per-state statistics.  Production builds the same
entries and probe matrices, bit for bit, from the independence
approximation's tables for every state at once
(:mod:`repro.core.transition_build`), and supports only the paper's
semantics.  This oracle keeps what production does not:

``estimator``
    Any :class:`~tests.oracles.recency.RecencyEstimator`, such as the
    exact or Monte-Carlo ones in :mod:`tests.oracles.recency`, built on
    a context of the same switch (it is used as given); defaults to the
    independence approximation.  It drives the probe perturbations
    (:func:`apply_probe`) as well as the chain.
``multi_expiry``
    Model simultaneous expirations of several rules in one step (exact
    independent product) instead of the at-most-one approximation.
``expire_on_arrival``
    Apply expiration hazards on arrival steps too (timers run every
    step, as in the basic model), not only on no-arrival steps.

With every knob at its default the entries and probe matrices equal
production's (tests/core/test_sparse_dense_diff.py, through
:class:`tests.oracles.dense.DenseCompactModel`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.chain import per_flow_step_probabilities, validate_stochastic
from repro.core.compact_model import NO_FLOW, CompactModel
from repro.core.context import ModelContext
from repro.core.masks import popcount
from repro.flows.policy import Policy
from repro.flows.universe import FlowUniverse

from tests.oracles.basic import match_in_cache
from tests.oracles.recency import IndependentRecencyEstimator, RecencyEstimator


def apply_probe(
    context: ModelContext, estimator: RecencyEstimator, state: int, flow: int
) -> List[Tuple[int, float]]:
    """Successor states (with weights) after probing ``flow`` in ``state``.

    A probe is itself a flow, so a miss the policy covers perturbs
    the cache like any other arrival:

    * hit: the cache set is unchanged (the matched rule's timer resets);
    * miss, covered by the policy: the install rule enters, with
      ``estimator``'s eviction split applied when the cache is full;
    * miss, uncovered: unchanged (the controller just forwards).
    """
    if match_in_cache(context, flow, state) is not None:
        return [(state, 1.0)]
    install = context.install_rule[flow]
    if install is None:
        return [(state, 1.0)]
    if popcount(state) < context.cache_size:
        return [(state | (1 << install), 1.0)]
    branches: List[Tuple[int, float]] = []
    for victim, prob in estimator.stats(state).eviction.items():
        if prob <= 0.0:
            continue
        branches.append(((state & ~(1 << victim)) | (1 << install), prob))
    return branches


class PerStateCompactModel(CompactModel):
    """:class:`CompactModel` built state by state from its estimator."""

    def __init__(
        self,
        policy: Policy,
        universe: FlowUniverse,
        delta: float,
        cache_size: int,
        estimator: Optional[RecencyEstimator] = None,
        multi_expiry: bool = False,
        expire_on_arrival: bool = True,
    ) -> None:
        super().__init__(policy, universe, delta, cache_size)
        self.estimator = (
            estimator if estimator is not None
            else IndependentRecencyEstimator(self.context)
        )
        self.multi_expiry = multi_expiry
        self.expire_on_arrival = expire_on_arrival

    def _sorted_entries(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-state entries in stable (row, col) order, memoised.

        ``np.lexsort`` is stable, so each duplicate ``(row, col)`` run
        keeps the per-state loop's emission order.
        """
        if self._entries_sorted is None:
            rows, cols, probs, tags = self._build_entries()
            order = np.lexsort((cols, rows))
            entries = (rows[order], cols[order], probs[order], tags[order])
            for array in entries:
                array.setflags(write=False)
            self._entries_sorted = entries
        return self._entries_sorted

    def eviction_distribution(self, state: int) -> Dict[int, float]:
        """Eviction split for a (bitmask) state, from the estimator."""
        return self.estimator.stats(state).eviction

    def apply_probe(self, state: int, flow: int) -> List[Tuple[int, float]]:
        """:func:`apply_probe` on this model's estimator."""
        return apply_probe(self.context, self.estimator, state, flow)

    def probe_matrix(self, flow: int) -> sparse.csr_matrix:
        """Row-stochastic matrix of a probe's cache perturbation.

        Row ``i`` spreads state ``i`` over :meth:`apply_probe`'s
        successors of probing ``flow`` there: identity for hits and
        uncovered misses, the install/evict branching for covered
        misses.
        """
        flow = int(flow)
        cached = self._probe_matrix_cache.get(flow)
        if cached is None:
            rows: List[int] = []
            cols: List[int] = []
            probs: List[float] = []
            state_index = self.state_index
            for row, state in enumerate(self.states):
                for successor, prob in self.apply_probe(state, flow):
                    if prob <= 0.0:
                        continue
                    try:
                        col = state_index[successor]
                    except KeyError:
                        raise self.state_error(
                            successor, "probe successor"
                        ) from None
                    rows.append(row)
                    cols.append(col)
                    probs.append(prob)
            cached = sparse.coo_matrix(
                (probs, (rows, cols)), shape=(self.n_states, self.n_states)
            ).tocsr()
            validate_stochastic(cached)
            cached.data.setflags(write=False)
            cached.indices.setflags(write=False)
            cached.indptr.setflags(write=False)
            self._probe_matrix_cache[flow] = cached
        return cached

    def _state_hazard_data(
        self, pre_state: int
    ) -> Tuple[int, List[Tuple[int, float]]]:
        """Precompute expiry data for a pre-step state.

        Returns ``(certain_mask, candidates)`` where ``certain_mask``
        marks rules that expire deterministically this step (hazard 1,
        e.g. a one-step timeout) unless matched, and ``candidates`` are
        the ``(rule, hazard)`` pairs with hazard strictly inside (0, 1).
        """
        hazards = self.estimator.stats(pre_state).timeout_hazards
        certain_mask = 0
        candidates: List[Tuple[int, float]] = []
        for rule, hazard in hazards.items():
            if hazard >= 1.0:
                certain_mask |= 1 << rule
            elif hazard > 0.0:
                candidates.append((rule, hazard))
        return certain_mask, candidates

    def _expiry_branches_from(
        self,
        interim: int,
        protected: Optional[int],
        certain_mask: int,
        candidates: List[Tuple[int, float]],
    ) -> List[Tuple[int, float]]:
        """Split ``interim`` across expiration outcomes.

        ``protected`` is the rule matched or installed this step (its
        timer was just reset/started, so it cannot expire); hazards come
        from the *pre-step* state, whose recency distribution the timers
        reflect.
        """
        protected_bit = 0 if protected is None else (1 << protected)
        interim &= ~(certain_mask & ~protected_bit)
        live = [
            (rule, hazard)
            for rule, hazard in candidates
            if interim & (1 << rule) and rule != protected
        ]
        if not live:
            return [(interim, 1.0)]
        if self.multi_expiry:
            branches: List[Tuple[int, float]] = [(interim, 1.0)]
            for rule, hazard in live:
                updated: List[Tuple[int, float]] = []
                for state, prob in branches:
                    updated.append((state, prob * (1.0 - hazard)))
                    updated.append((state & ~(1 << rule), prob * hazard))
                branches = updated
            return branches
        # At-most-one-expiry approximation, renormalised.
        keep_all = 1.0
        for _, hazard in live:
            keep_all *= 1.0 - hazard
        weights: List[Tuple[int, float]] = [(interim, keep_all)]
        total = keep_all
        for rule, hazard in live:
            weight = hazard
            for other, other_hazard in live:
                if other != rule:
                    weight *= 1.0 - other_hazard
            weights.append((interim & ~(1 << rule), weight))
            total += weight
        return [(state, prob / total) for state, prob in weights]

    def _arrival_outcomes(
        self, state: int, flow: int
    ) -> List[Tuple[int, Optional[int], float]]:
        """(interim state, protected rule, weight) outcomes of one arrival."""
        ctx = self.context
        matched = match_in_cache(ctx, flow, state)
        if matched is not None:
            return [(state, matched, 1.0)]
        installed = ctx.install_rule[flow]
        if installed is None:
            return [(state, None, 1.0)]
        if popcount(state) < ctx.cache_size:
            return [(state | (1 << installed), installed, 1.0)]
        eviction = self.eviction_distribution(state)
        outcomes: List[Tuple[int, Optional[int], float]] = []
        for victim, prob in eviction.items():
            if prob <= 0.0:
                continue
            next_state = (state & ~(1 << victim)) | (1 << installed)
            outcomes.append((next_state, installed, prob))
        return outcomes

    def _build_entries(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All transition entries as (rows, cols, probs, flow tags)."""
        ctx = self.context
        p_flows, p_none = per_flow_step_probabilities(
            np.asarray(ctx.step_rates)
        )
        rows: List[int] = []
        cols: List[int] = []
        probs: List[float] = []
        tags: List[int] = []
        state_index = self.state_index

        for row, state in enumerate(self.states):
            certain_mask, candidates = self._state_hazard_data(state)
            branch_cache: Dict[
                Tuple[int, Optional[int]], List[Tuple[int, float]]
            ] = {}

            def emit(
                interim: int, protected: Optional[int],
                base_prob: float, tag: int,
            ) -> None:
                if self.expire_on_arrival or tag == NO_FLOW:
                    key = (interim, protected)
                    branches = branch_cache.get(key)
                    if branches is None:
                        branches = self._expiry_branches_from(
                            interim, protected, certain_mask, candidates
                        )
                        branch_cache[key] = branches
                else:
                    branches = ((interim, 1.0),)
                for branch_state, branch_prob in branches:
                    probability = base_prob * branch_prob
                    if probability <= 0.0:
                        continue
                    try:
                        col = state_index[branch_state]
                    except KeyError:
                        raise self.state_error(
                            branch_state, "successor"
                        ) from None
                    rows.append(row)
                    cols.append(col)
                    probs.append(probability)
                    tags.append(tag)

            emit(state, None, p_none, NO_FLOW)
            for flow in range(ctx.n_flows):
                p_flow = float(p_flows[flow])
                if p_flow <= 0.0:
                    continue
                for interim, protected, weight in self._arrival_outcomes(
                    state, flow
                ):
                    emit(interim, protected, p_flow * weight, flow)

        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(probs, dtype=np.float64),
            np.asarray(tags, dtype=np.int64),
        )
