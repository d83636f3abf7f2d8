"""Vectorised construction of compact-model transition entries.

The compact model's one entry builder: it produces the
``(rows, cols, probs, tags)`` arrays of the per-state reference loop
(the test oracle :class:`tests.oracles.perstate.PerStateCompactModel`)
-- same entry order, same floating-point values bit-for-bit -- by
replacing the per-state Python loops with batched numpy passes:

* per-rule hazard tables from the truncated-geometric recency pmf
  (Eqns. 6-7), computed for all states at once via the subset rate
  table;
* bulk eviction distributions (Eqns. 3-5) for the at-capacity states,
  grouped by per-state support so the padding matches the reference's
  per-state arrays exactly;
* arrival/no-arrival event vectors ordered like the reference emission
  loop, then a batched at-most-one-expiry expansion whose multiply and
  add sequences mirror the reference's ascending-rule accumulation.

Bitwise equality is load-bearing: it means the vectorised builder
cannot shift any persisted experiment number, and the golden suite pins
it and the per-state builder (through the dense test oracle) to the
same literals.  The differential suite
(tests/core/test_sparse_dense_diff.py) checks the equivalence on random
models.

The builder implements the paper's semantics only: the closed-form
independent estimator, at-most-one expiry with hazards applied on every
step, and at most :data:`MAX_LOOKUP_RULES` rules, which
:class:`~repro.core.compact_model.CompactModel` enforces at
construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.chain import per_flow_step_probabilities

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compact_model import CompactModel

#: Rule-count ceiling for the dense ``mask -> state index`` lookup
#: (2^20 int64 entries = 8 MiB; the paper uses 12 rules).  Models and
#: sampled configurations with more rules are rejected up front.
MAX_LOOKUP_RULES = 20

EntryArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Normalised recency pmf rows as ``(unique_rows, inverse)``: state
#: ``i``'s row is ``unique_rows[inverse[i]]``.
PmfTable = Tuple[np.ndarray, np.ndarray]


def build_entries(model: "CompactModel") -> EntryArrays:
    """All transition entries as (rows, cols, probs, flow tags)."""
    ctx = model.context
    n_rules = ctx.n_rules
    n_states = model.n_states
    states = np.asarray(model.states, dtype=np.int64)
    popcounts = model.state_popcounts()
    membership = model.state_membership_matrix().astype(bool)  # (R, n)
    bits = np.int64(1) << np.arange(n_rules, dtype=np.int64)
    lookup = np.full(1 << n_rules, -1, dtype=np.int64)
    lookup[states] = np.arange(n_states, dtype=np.int64)

    hazard, pmfs = _hazard_tables(model, membership)
    cached_t = membership.T  # (n, R)
    certain = cached_t & (hazard >= 1.0)
    candidate = cached_t & (hazard > 0.0) & (hazard < 1.0)
    certain_mask = (certain * bits).sum(axis=1)
    candidate_mask = (candidate * bits).sum(axis=1)

    full_idx = np.nonzero(popcounts == ctx.cache_size)[0]
    evict_rules, evict_probs = _eviction_tables(
        model, membership, full_idx, pmfs
    )
    _seed_estimator_cache(model, hazard, full_idx, evict_rules, evict_probs)

    events = _arrival_events(model, membership, full_idx, evict_rules,
                             evict_probs)
    return _expand_expiries(
        model, events, hazard, certain_mask, candidate_mask, bits, lookup
    )


# ----------------------------------------------------------------------
# Recency tables (Eqns. 1, 6-7): hazards and normalised u-pmfs
# ----------------------------------------------------------------------
def _hazard_tables(
    model: "CompactModel", membership: np.ndarray
) -> Tuple[np.ndarray, List[Optional[PmfTable]]]:
    """Per-(state, rule) hazards and per-rule normalised pmf tables.

    Returns ``(hazard, pmfs)``: ``hazard[i, j]`` is rule ``j``'s
    per-step timeout hazard in state ``i`` (0 where not cached), and
    ``pmfs[j]`` a ``(unique_rows, inverse)`` pair giving each state's
    normalised recency pmf row as ``unique_rows[inverse[state]]``
    (meaningful where cached).  The pmf only depends on the state
    through the rule's effective gamma, which takes a handful of
    distinct values, so each distinct row is computed once.  Every
    arithmetic step mirrors ``IndependentRecencyEstimator._u_pmf``
    element-for-element.
    """
    ctx = model.context
    n_rules, n_states = membership.shape
    flow_masks = np.asarray(ctx.flow_masks, dtype=np.int64)
    hazard = np.zeros((n_states, n_rules))
    pmfs: List[Optional[PmfTable]] = [None] * n_rules
    for rule in range(n_rules):
        cached = membership[rule]
        timeout = ctx.timeouts[rule]
        if ctx.policy[rule].hard:
            pmf_n = np.full((1, timeout), 1.0 / timeout)
            hazard[cached, rule] = 1.0 / timeout
            pmfs[rule] = (pmf_n, np.zeros(n_states, dtype=np.int64))
            continue
        # gamma_cached: rule flows minus higher-priority cached coverage.
        effective = np.where(cached, flow_masks[rule], np.int64(0))
        for higher in range(rule):
            drop = cached & membership[higher]
            effective[drop] &= ~flow_masks[higher]
        gamma = ctx.rate_table.sums(effective)
        # math.expm1 and np.expm1 disagree in the last ulp; the
        # reference uses the scalar, so evaluate it once per distinct
        # gamma to stay bit-identical.
        unique, inverse = np.unique(gamma, return_inverse=True)
        a = np.array([-math.expm1(-g) for g in unique])
        k = np.arange(timeout, dtype=np.float64)
        pmf = a[:, None] * np.power(1.0 - a[:, None], k[None, :])
        total = pmf.sum(axis=1)
        geometric = a > 0.0
        degenerate = geometric & ~(total > 0.0)
        normal = geometric & (total > 0.0)
        pmf_n = np.empty_like(pmf)
        pmf_n[~geometric] = 1.0 / timeout
        pmf_n[degenerate] = 0.0
        pmf_n[degenerate, 0] = 1.0
        pmf_n[normal] = pmf[normal] / total[normal, None]
        hazard[cached, rule] = pmf_n[inverse[cached], timeout - 1]
        pmfs[rule] = (pmf_n, inverse)
    return hazard, pmfs


# ----------------------------------------------------------------------
# Bulk eviction distributions (Eqns. 3-5) for at-capacity states
# ----------------------------------------------------------------------
def _eviction_tables(
    model: "CompactModel",
    membership: np.ndarray,
    full_idx: np.ndarray,
    pmfs: List[Optional[PmfTable]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Eviction splits for every at-capacity state.

    Returns ``(rules, probs)``, both ``(n_full, cache_size)``: the
    cached rules of each full state in ascending order and their
    eviction probabilities.  The prefix/suffix leave-one-out products
    mirror ``IndependentRecencyEstimator._eviction_distribution``;
    states are grouped by their maximum cached timeout so the support
    padding (and hence every partial sum) matches the reference's
    per-state arrays bit-for-bit.
    """
    ctx = model.context
    capacity = ctx.cache_size
    n_full = full_idx.size
    if n_full == 0:
        empty = np.empty((0, capacity), dtype=np.int64)
        return empty, np.empty((0, capacity))
    state_rows, rule_cols = np.nonzero(membership[:, full_idx].T)
    del state_rows  # row-major nonzero: rules ascending within each state
    rules = rule_cols.reshape(n_full, capacity)
    if capacity == 1:
        return rules, np.ones((n_full, 1))
    timeouts = np.asarray(ctx.timeouts, dtype=np.int64)
    max_support = timeouts[rules].max(axis=1)
    probs = np.empty((n_full, capacity))
    for support in np.unique(max_support):
        group = np.nonzero(max_support == support)[0]
        group_rules = rules[group]
        pmf = np.zeros((group.size, capacity, int(support)))
        # One stable argsort groups the (state, slot) cells by rule;
        # within a rule the positions stay ascending, matching the
        # row-major nonzero scan it replaces.
        flat = group_rules.ravel()
        grouping = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(
            flat[grouping], np.arange(ctx.n_rules + 1)
        )
        full_group = full_idx[group]
        for rule in range(ctx.n_rules):
            cells = grouping[bounds[rule]:bounds[rule + 1]]
            if cells.size == 0:
                continue
            timeout = int(timeouts[rule])
            in_state = cells // capacity
            slot = cells - in_state * capacity
            table = pmfs[rule]
            assert table is not None
            unique_rows, inverse = table
            source = unique_rows[inverse[full_group[in_state]]]
            pmf[in_state, slot, :timeout] = source[:, ::-1]
        survival = pmf[:, :, ::-1].cumsum(axis=2)[:, :, ::-1] - pmf
        term = survival + 0.5 * pmf
        # Only the boundary rows need the identity; the loops overwrite
        # every other row before it is read.
        prefix = np.empty((group.size, capacity + 1, int(support)))
        prefix[:, 0] = 1.0
        suffix = np.empty_like(prefix)
        suffix[:, capacity] = 1.0
        for row in range(capacity):
            prefix[:, row + 1] = prefix[:, row] * term[:, row]
        for row in range(capacity - 1, -1, -1):
            suffix[:, row] = suffix[:, row + 1] * term[:, row]
        leave_one_out = prefix[:, :capacity] * suffix[:, 1:]
        raw = (pmf * leave_one_out).sum(axis=2)
        total = raw.sum(axis=1)
        group_probs = np.empty((group.size, capacity))
        positive = total > 0.0
        group_probs[positive] = raw[positive] / total[positive, None]
        group_probs[~positive] = 1.0 / capacity
        probs[group] = group_probs
    return rules, probs


def _seed_estimator_cache(
    model: "CompactModel",
    hazard: np.ndarray,
    full_idx: np.ndarray,
    evict_rules: np.ndarray,
    evict_probs: np.ndarray,
) -> None:
    """Pre-populate the estimator memo for at-capacity states.

    ``probe_matrix`` queries the eviction split of every full state; the
    bulk tables make those lookups free instead of re-running the
    per-state reference computation.  Values are bitwise-equal to the
    reference, so seeding is observationally transparent.
    """
    states = model.states
    hazard_rows = hazard[full_idx[:, None], evict_rules]
    model.estimator.seed_bulk(
        [states[int(state_idx)] for state_idx in full_idx],
        evict_rules,
        hazard_rows,
        evict_probs,
    )


# ----------------------------------------------------------------------
# Arrival/no-arrival events in reference emission order
# ----------------------------------------------------------------------
class _Events:
    """Columnar accumulator for pre-expiry transition events."""

    def __init__(self) -> None:
        self.rows: List[np.ndarray] = []
        self.counts: List[int] = []
        self.seq: List[int] = []
        self.interim: List[np.ndarray] = []
        self.protected: List[object] = []
        self.base: List[object] = []
        self.tag: List[int] = []

    def add(
        self,
        rows: np.ndarray,
        seq: int,
        interim: np.ndarray,
        protected: object,
        base: object,
        tag: int,
    ) -> None:
        count = rows.size
        if count == 0:
            return
        self.rows.append(rows.astype(np.int64, copy=False))
        self.counts.append(count)
        self.seq.append(int(seq))
        self.interim.append(interim.astype(np.int64, copy=False))
        self.protected.append(protected)
        self.base.append(base)
        self.tag.append(int(tag))

    def sorted_columns(
        self,
    ) -> Tuple[np.ndarray, ...]:
        # seq/tag are constant within a chunk, and protected/base
        # are often scalars; expand them here via repeat/slice-assign
        # instead of allocating a filled array per add().
        counts = np.asarray(self.counts, dtype=np.int64)
        total = int(counts.sum())
        rows = np.concatenate(self.rows)
        seq = np.repeat(np.asarray(self.seq, dtype=np.int64), counts)
        order = np.lexsort((seq, rows))
        protected = np.empty(total, dtype=np.int64)
        base = np.empty(total)
        position = 0
        for index, count in enumerate(self.counts):
            stop = position + count
            protected[position:stop] = self.protected[index]
            base[position:stop] = self.base[index]
            position = stop
        return (
            rows[order],
            np.concatenate(self.interim)[order],
            protected[order],
            base[order],
            np.repeat(np.asarray(self.tag, dtype=np.int64), counts)[order],
        )


def _arrival_events(
    model: "CompactModel",
    membership: np.ndarray,
    full_idx: np.ndarray,
    evict_rules: np.ndarray,
    evict_probs: np.ndarray,
) -> _Events:
    """One event per (state, arrival outcome), reference emission order.

    ``seq`` reproduces the reference loop's within-row order: the
    no-arrival event first, then flows ascending, eviction victims in
    cached order.
    """
    from repro.core.compact_model import NO_FLOW

    ctx = model.context
    n_states = model.n_states
    states = np.asarray(model.states, dtype=np.int64)
    popcounts = model.state_popcounts()
    capacity = ctx.cache_size
    p_flows, p_none = per_flow_step_probabilities(np.asarray(ctx.step_rates))
    all_rows = np.arange(n_states, dtype=np.int64)
    full_position = np.full(n_states, -1, dtype=np.int64)
    full_position[full_idx] = np.arange(full_idx.size, dtype=np.int64)

    events = _Events()
    events.add(
        rows=all_rows, seq=0, interim=states, protected=np.int64(-1),
        base=np.float64(p_none), tag=NO_FLOW,
    )
    for flow in range(ctx.n_flows):
        p_flow = float(p_flows[flow])
        if p_flow <= 0.0:
            continue
        seq_base = 1 + flow * capacity
        covering = ctx.covering[flow]
        if not covering:
            events.add(
                rows=all_rows, seq=seq_base, interim=states,
                protected=np.int64(-1), base=np.float64(p_flow), tag=flow,
            )
            continue
        matched = np.full(n_states, -1, dtype=np.int64)
        for rule in covering:
            matched = np.where(
                (matched < 0) & membership[rule], np.int64(rule), matched
            )
        hit = matched >= 0
        hit_idx = np.nonzero(hit)[0]
        events.add(
            rows=hit_idx, seq=seq_base, interim=states[hit_idx],
            protected=matched[hit_idx], base=np.float64(p_flow), tag=flow,
        )
        install = covering[0]
        install_bit = np.int64(1) << np.int64(install)
        miss = ~hit
        room_idx = np.nonzero(miss & (popcounts < capacity))[0]
        events.add(
            rows=room_idx, seq=seq_base,
            interim=states[room_idx] | install_bit,
            protected=np.int64(install), base=np.float64(p_flow), tag=flow,
        )
        evicting_idx = np.nonzero(miss & (popcounts == capacity))[0]
        if evicting_idx.size:
            position = full_position[evicting_idx]
            for slot in range(capacity):
                victims = evict_rules[position, slot]
                weights = evict_probs[position, slot]
                keep = weights > 0.0
                kept_idx = evicting_idx[keep]
                victim_bits = np.int64(1) << victims[keep]
                events.add(
                    rows=kept_idx, seq=seq_base + slot,
                    interim=(states[kept_idx] & ~victim_bits) | install_bit,
                    protected=np.int64(install),
                    base=p_flow * weights[keep], tag=flow,
                )
    return events


# ----------------------------------------------------------------------
# Batched at-most-one-expiry expansion
# ----------------------------------------------------------------------
def _expand_expiries(
    model: "CompactModel",
    events: _Events,
    hazard: np.ndarray,
    certain_mask: np.ndarray,
    candidate_mask: np.ndarray,
    bits: np.ndarray,
    lookup: np.ndarray,
) -> EntryArrays:
    """Expand events into entries, mirroring the reference's expiry split.

    The reference is ``_expiry_branches_from`` in
    tests/oracles/perstate.py.  Entry layout per event: the keep-all
    branch, then one expiry branch per rule ascending (masked to the
    live set) -- the reference emission order.  The keep-all product,
    the leave-one-out weights, and the normaliser all accumulate over
    rules in ascending order with exact-identity factors for non-live
    rules, so every float matches the reference's sequential loops
    bit-for-bit.
    """
    n_rules = model.context.n_rules
    rows, interim, protected, base, tag = events.sorted_columns()
    count = rows.size
    protected_bit = np.where(
        protected >= 0, bits[np.maximum(protected, 0)], np.int64(0)
    )
    interim = interim & ~(certain_mask[rows] & ~protected_bit)
    live = interim & candidate_mask[rows] & ~protected_bit
    live_bits = (live[:, None] & bits[None, :]) != 0  # (E, R)

    # The recurrences below depend only on (source row, live mask):
    # events sharing that pair run identical scalar sequences.  Collapse
    # to unique pairs (the hazard row *is* the source row, so the key is
    # two already-computed integers), run the loops once per pair, and
    # gather the bit-identical results back per event.
    key = (rows << np.int64(n_rules)) | live
    _, first_idx, inverse = np.unique(
        key, return_index=True, return_inverse=True
    )
    live_u = live_bits[first_idx]  # (U, R)
    hazards_u = hazard[rows[first_idx]]  # (U, R)

    # Sequential leave-one-out products in ascending rule order, exactly
    # as the reference accumulates them.  Non-live rules contribute the
    # exact identity factor 1.0, so restricting every multiply to the
    # rows where the rule *is* live performs the identical float
    # operations while skipping the (majority) no-op rows.
    keep_u = np.ones(first_idx.size)
    weights_u = np.where(live_u, hazards_u, 0.0)
    for rule in range(n_rules):
        idx = np.nonzero(live_u[:, rule])[0]
        if idx.size == 0:
            continue
        factor = 1.0 - hazards_u[idx, rule]
        keep_u[idx] *= factor
        if rule > 0:
            weights_u[idx, :rule] *= factor[:, None]
        if rule + 1 < n_rules:
            weights_u[idx, rule + 1:] *= factor[:, None]
    total_u = keep_u.copy()
    for rule in range(n_rules):
        idx = np.nonzero(live_u[:, rule])[0]
        if idx.size:
            total_u[idx] += weights_u[idx, rule]
    # Normalised branch fractions, one division per unique pair; events
    # gather the already-divided values (identical quotients).
    keep_frac_u = keep_u / total_u
    weight_frac_u = weights_u / total_u[:, None]

    # Emit the keep-all branch plus one branch per live rule (ascending),
    # assembled directly in the reference's per-event order instead of
    # materialising the dense (events x rules+1) slot arrays.
    ev_idx, rule_idx = np.nonzero(live_bits)  # event-major, rules ascending
    pairs = ev_idx.size
    counts = np.bincount(ev_idx, minlength=count)
    offsets = np.cumsum(1 + counts) - (1 + counts)
    pair_starts = np.cumsum(counts) - counts
    within = np.arange(pairs, dtype=np.int64) - pair_starts[ev_idx]
    keep_pos = offsets
    pair_pos = offsets[ev_idx] + 1 + within

    size = count + pairs
    out_rows = np.empty(size, dtype=np.int64)
    out_probs = np.empty(size)
    out_tags = np.empty(size, dtype=np.int64)
    successors = np.empty(size, dtype=np.int64)
    successors[keep_pos] = interim
    successors[pair_pos] = interim[ev_idx] & ~bits[rule_idx]
    out_cols = lookup[successors]
    # A successor outside the state list would index lookup's -1 fill,
    # i.e. silently wrap to the last state.  The live state list is
    # closed under transitions, so this only fires on a broken list.
    escaped = np.flatnonzero(out_cols < 0)
    if escaped.size:
        raise model.state_error(int(successors[escaped[0]]), "successor")
    out_rows[keep_pos] = rows
    out_probs[keep_pos] = base * keep_frac_u[inverse]
    out_tags[keep_pos] = tag
    out_rows[pair_pos] = rows[ev_idx]
    out_probs[pair_pos] = base[ev_idx] * (
        weight_frac_u[inverse[ev_idx], rule_idx]
    )
    out_tags[pair_pos] = tag[ev_idx]

    emit = out_probs > 0.0
    return (
        out_rows[emit],
        out_cols[emit],
        out_probs[emit],
        out_tags[emit],
    )
