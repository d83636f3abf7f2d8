"""Vectorised construction of the compact model's transitions.

The compact model (Section IV-B) throws away per-rule timers.  To decide
*which* cached rule is evicted on a full-cache install, and *when* cached
rules time out, the paper reconstructs a distribution over the
most-recent-match sequence ``u`` -- ``u(j)`` being the number of steps
since cached rule ``j`` was last matched -- and sums ``P(u)`` over the
events of interest (Eqns. 1-7):

* rule ``j`` is cached            iff ``u(j) <= t_j``              (Eqn. 2)
* rule ``j`` has the shortest remaining time
                                  iff ``t_j - u(j) <= t_j' - u(j')`` (Eqn. 4)
* rule ``j`` times out now        iff ``u(j) = t_j``               (Eqn. 6)

The exact sums range over *injective* ``u`` (at most one flow arrives per
step) and are exponential in the cached-set size; the paper computed them
offline in MATLAB/C++ on a large server.  The model drops the cross-rule
coupling ``u(j') > k`` in Eqn. 1 instead: each ``u(j)`` becomes an
independent geometric with success probability ``1 - e^{-gamma_j}``,
truncated to ``{1..t_j}``, and eviction and timeout probabilities come
in closed form.  As ``gamma_j -> 0`` the truncated geometric degenerates
to the uniform distribution on ``{1..t_j}``, the right limit for a rule
never re-matched after install, and hard timeouts (which ignore matches)
use that uniform age outright.  Ties in remaining time are resolved by
the midpoint smoothing ``P(r' > r) + P(r' = r)/2``, then normalised.
This is what makes the full |Rules| = 12 experiments run on a laptop.

:func:`recency_tables` evaluates these sums for every state at once,
hazards (Eqns. 6-7) via the subset rate table and eviction splits (Eqns.
3-5) for the at-capacity states; the model memoises them, and both the
chain (:func:`build_entries`) and the probe matrices read them through
:func:`packet_outcomes`, the one account of what a packet does to each
state.  :func:`build_entries` then expands the arrival events into an
at-most-one expiry per step and returns the entries in stable (row,
col) order.

What runs where: the hazards and recency pmfs always come from numpy
(:func:`_hazard_tables`: its ``np.power`` and ``math.expm1`` values
have no bit-exact C twin), and so do the probe matrices.  With the
native kernels (:mod:`repro.core.cnative`), the eviction splits come
from one C pass over the at-capacity states
(:func:`repro.core.cnative.eviction_tables`), and the arrival events,
their expiry expansion and the (row, col) placement from another
(:func:`repro.core.cnative.expiry_entries`), which builds no event
array.  Without them (no ``gcc``, or ``REPRO_NO_CKERNEL=1``),
:func:`_eviction_tables`, :func:`_arrival_events` with its ``lexsort``,
and :func:`_expand_expiries` with its stable argsort give the same
arrays, byte for byte (tests/core/test_build_native_diff.py and
tests/core/test_eviction_native_diff.py): the kernels repeat each float
operation in numpy's order, including the pairwise order of numpy's
axis sums (see :mod:`repro.core.cnative`).

Every float and the order of entries within each ``(row, col)`` run
equal the per-state test oracles' bit for bit (tests/oracles/perstate.py
and tests/oracles/recency.py, which also holds the exact and
Monte-Carlo estimators): the builder cannot shift a persisted
experiment number, the golden suite pins both to the same literals, and
tests/core/test_sparse_dense_diff.py checks the equivalence on random
models.  Only the paper's semantics are built, for at most
:data:`MAX_LOOKUP_RULES` rules, which
:class:`~repro.core.compact_model.CompactModel` enforces at
construction.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, List, NamedTuple, Sequence, Tuple, Union,
)

import numpy as np

from repro.core import cnative
from repro.core.chain import per_flow_step_probabilities
from repro.obs import get_instrumentation

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


class RecencyTables(NamedTuple):
    """Timeout hazards and eviction splits of every state (Eqns. 1-7).

    ``hazard[i, j]`` is rule ``j``'s per-step timeout hazard in state
    ``i`` (0 where not cached).  ``full_position[i]`` is state ``i``'s
    row in the eviction tables, -1 below capacity: ``evict_rules[p]``
    holds that state's cached rules in ascending order and
    ``evict_probs[p]`` the probability that each is the one evicted.
    """

    hazard: np.ndarray
    full_position: np.ndarray
    evict_rules: np.ndarray
    evict_probs: np.ndarray


class Branch(NamedTuple):
    """One outcome of a packet of a flow, over the states it applies to.

    ``successors`` are the cache masks of states ``rows`` after the
    packet; ``protected`` the rule whose timer it resets or starts (-1:
    none) and ``weight`` the outcome's probability, each a scalar or one
    value per row; ``slot`` the eviction slot (0 without eviction).
    """

    rows: np.ndarray
    successors: np.ndarray
    protected: Union[np.int64, np.ndarray]
    weight: Union[np.float64, np.ndarray]
    slot: int


def state_lookup(model: "CompactModel", states: np.ndarray) -> np.ndarray:
    """Dense ``mask -> state index`` table, -1 for masks not in the list."""
    lookup = np.full(1 << model.context.n_rules, -1, dtype=np.int64)
    lookup[states] = np.arange(model.n_states, dtype=np.int64)
    return lookup


def build_entries(model: "CompactModel") -> EntryArrays:
    """All transition entries as (rows, cols, probs, flow tags).

    Sorted by ``(row, col)``, stably: entries of one ``(row, col)``
    pair keep their emission order, so summing each run left to right
    gives the per-state oracle's matrix entry.  Any tag-filtered subset
    stays sorted.  Runs under a ``model.build_entries`` span.
    """
    native = cnative.available()
    with get_instrumentation().span(
        "model.build_entries",
        kernel="native" if native else "numpy",
        states=model.n_states,
    ) as span:
        ctx = model.context
        states = np.asarray(model.states, dtype=np.int64)
        tables = model.recency_tables()
        lookup = state_lookup(model, states)
        if native:
            p_flows, p_none = per_flow_step_probabilities(
                np.asarray(ctx.step_rates)
            )
            try:
                entries = cnative.expiry_entries(
                    states, ctx.covering, p_flows, p_none, ctx.cache_size,
                    tables, lookup,
                )
            except cnative.EscapedSuccessor as escaped:
                raise model.state_error(escaped.mask, "successor") from None
        else:
            entries = _expand_expiries(
                model, _arrival_events(model, states), tables.hazard, lookup
            )
        span.set_attr("entries", len(entries[0]))
    return entries


def recency_tables(model: "CompactModel") -> RecencyTables:
    """:class:`RecencyTables` for every state of ``model``.

    Runs under a ``model.recency_tables`` span.  The hazards come from
    numpy; the eviction splits from the native kernel
    (:func:`repro.core.cnative.eviction_tables`) when it loads, else
    from numpy, byte for byte the same.
    """
    native = cnative.available()
    with get_instrumentation().span(
        "model.recency_tables",
        kernel="native" if native else "numpy",
        states=model.n_states,
    ):
        ctx = model.context
        membership = model.state_membership_matrix() != 0  # (R, n)
        hazard, pmfs = _hazard_tables(model, membership)
        full_idx = np.nonzero(model.state_popcounts() == ctx.cache_size)[0]
        if native:
            evict_rules, evict_probs = cnative.eviction_tables(
                np.asarray(model.states, dtype=np.int64), full_idx,
                ctx.cache_size, ctx.timeouts, pmfs,
            )
        else:
            evict_rules, evict_probs = _eviction_tables(
                model, membership, full_idx, pmfs
            )
        full_position = np.full(model.n_states, -1, dtype=np.int64)
        full_position[full_idx] = np.arange(full_idx.size, dtype=np.int64)
    return RecencyTables(hazard, full_position, evict_rules, evict_probs)


# ----------------------------------------------------------------------
# Recency tables (Eqns. 1, 6-7): hazards and normalised u-pmfs
# ----------------------------------------------------------------------
def _hazard_tables(
    model: "CompactModel", membership: np.ndarray
) -> Tuple[np.ndarray, List[PmfTable]]:
    """Per-(state, rule) hazards and per-rule normalised pmf tables.

    Returns ``(hazard, pmfs)``: ``hazard[i, j]`` is rule ``j``'s
    per-step timeout hazard in state ``i`` (0 where not cached), and
    ``pmfs[j]`` a ``(unique_rows, inverse)`` pair giving each state's
    normalised recency pmf row as ``unique_rows[inverse[state]]``
    (meaningful where cached).  The pmf only depends on the state
    through the rule's effective gamma, which takes a handful of
    distinct values, so each distinct row is computed once.  Every
    arithmetic step equals the per-state oracle's
    (``IndependentRecencyEstimator._u_pmf`` in tests/oracles/recency.py)
    element-for-element.
    """
    ctx = model.context
    n_rules, n_states = membership.shape
    flow_masks = np.asarray(ctx.flow_masks, dtype=np.int64)
    hazard = np.zeros((n_states, n_rules))
    pmfs: List[PmfTable] = []
    for rule in range(n_rules):
        cached = membership[rule]
        timeout = ctx.timeouts[rule]
        if ctx.policy[rule].hard:
            pmf_n = np.full((1, timeout), 1.0 / timeout)
            hazard[cached, rule] = 1.0 / timeout
            pmfs.append((pmf_n, np.zeros(n_states, dtype=np.int64)))
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
        pmfs.append((pmf_n, inverse))
    return hazard, pmfs


# ----------------------------------------------------------------------
# Bulk eviction distributions (Eqns. 3-5) for at-capacity states
# ----------------------------------------------------------------------
def _eviction_tables(
    model: "CompactModel",
    membership: np.ndarray,
    full_idx: np.ndarray,
    pmfs: List[PmfTable],
) -> Tuple[np.ndarray, np.ndarray]:
    """Eviction splits for every at-capacity state (the numpy path).

    Returns ``(rules, probs)``, both ``(n_full, cache_size)``: the
    cached rules of each full state in ascending order and their
    eviction probabilities: ``P(rule j has the minimal remaining
    time)`` with the midpoint tie-break, from each rule's remaining-time
    pmf (support ``0..t_j - 1``), its exclusive survival ``P(r' > r)``
    and leave-one-out products via prefix/suffix cumulative products
    along the rule axis.  States are grouped by their maximum cached
    timeout so the support padding (and hence every partial sum)
    matches the per-state oracle's arrays
    (``IndependentRecencyEstimator._eviction_distribution`` in
    tests/oracles/recency.py) bit-for-bit.
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
            unique_rows, inverse = pmfs[rule]
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


# ----------------------------------------------------------------------
# Packet outcomes and arrival events in reference emission order
# ----------------------------------------------------------------------
def packet_outcomes(
    model: "CompactModel", flow: int, states: np.ndarray
) -> List[Branch]:
    """What one packet of ``flow`` does to each state (Section IV-B).

    ``states`` are the model's state masks as an int64 array.  A hit
    leaves the cache set unchanged and protects the matched rule; a miss
    the policy covers installs the flow's highest-priority cover,
    evicting one cached rule when the cache is full (one branch per
    eviction slot, split by the recency tables, zero weights dropped);
    an uncovered flow leaves every state unchanged.  The chain weights
    the branches by the flow's arrival probability
    (:func:`build_entries`); a probe applies them as they are
    (:meth:`~repro.core.compact_model.CompactModel.probe_matrix`).
    """
    n_states = model.n_states
    covering = model.context.covering[flow]
    if not covering:
        return [Branch(np.arange(n_states, dtype=np.int64), states,
                       np.int64(-1), np.float64(1.0), 0)]
    membership = model.state_membership_matrix()
    matched = np.full(n_states, -1, dtype=np.int64)
    for rule in covering:
        matched = np.where(
            (matched < 0) & (membership[rule] != 0), np.int64(rule), matched
        )
    hit = matched >= 0
    hit_idx = np.nonzero(hit)[0]
    branches = [
        Branch(hit_idx, states[hit_idx], matched[hit_idx],
               np.float64(1.0), 0)
    ]
    install = covering[0]
    install_bit = np.int64(1) << np.int64(install)
    capacity = model.context.cache_size
    popcounts = model.state_popcounts()
    miss = ~hit
    room_idx = np.nonzero(miss & (popcounts < capacity))[0]
    branches.append(
        Branch(room_idx, states[room_idx] | install_bit, np.int64(install),
               np.float64(1.0), 0)
    )
    evicting_idx = np.nonzero(miss & (popcounts == capacity))[0]
    if evicting_idx.size:
        tables = model.recency_tables()
        position = tables.full_position[evicting_idx]
        for slot in range(capacity):
            victims = tables.evict_rules[position, slot]
            weights = tables.evict_probs[position, slot]
            keep = weights > 0.0
            kept_idx = evicting_idx[keep]
            victim_bits = np.int64(1) << victims[keep]
            branches.append(
                Branch(kept_idx,
                       (states[kept_idx] & ~victim_bits) | install_bit,
                       np.int64(install), weights[keep], slot)
            )
    return branches


def branch_columns(
    branches: Sequence[Branch],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, successors, protected, weight)`` of ``branches``, concatenated.

    Scalar ``protected`` and ``weight`` fields are broadcast to their
    branch's rows by slice assignment, not one filled array per branch.
    """
    total = sum(branch.rows.size for branch in branches)
    protected = np.empty(total, dtype=np.int64)
    weight = np.empty(total)
    start = 0
    for branch in branches:
        stop = start + branch.rows.size
        protected[start:stop] = branch.protected
        weight[start:stop] = branch.weight
        start = stop
    return (
        np.concatenate([branch.rows for branch in branches]),
        np.concatenate([branch.successors for branch in branches]),
        protected,
        weight,
    )


def _arrival_events(
    model: "CompactModel", states: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Pre-expiry events as ``(rows, interim, protected, base, tags)``.

    One event per (state, arrival outcome), in the reference loop's
    emission order: by row, then the no-arrival event first, flows
    ascending, eviction victims in cached order.  The numpy path of
    :func:`build_entries`; the native kernel enumerates the same events
    row by row instead.
    """
    from repro.core.compact_model import NO_FLOW

    ctx = model.context
    p_flows, p_none = per_flow_step_probabilities(np.asarray(ctx.step_rates))
    branches = [Branch(np.arange(model.n_states, dtype=np.int64), states,
                       np.int64(-1), np.float64(p_none), 0)]
    seqs = [0]
    tags = [NO_FLOW]
    for flow in range(ctx.n_flows):
        p_flow = float(p_flows[flow])
        if p_flow <= 0.0:
            continue
        for branch in packet_outcomes(model, flow, states):
            branches.append(branch._replace(weight=p_flow * branch.weight))
            seqs.append(1 + flow * ctx.cache_size + branch.slot)
            tags.append(flow)
    rows, interim, protected, base = branch_columns(branches)
    counts = [branch.rows.size for branch in branches]
    order = np.lexsort((np.repeat(seqs, counts), rows))
    return (
        rows[order], interim[order], protected[order], base[order],
        np.repeat(tags, counts)[order],
    )


# ----------------------------------------------------------------------
# Batched at-most-one-expiry expansion
# ----------------------------------------------------------------------
def _expand_expiries(
    model: "CompactModel",
    events: Tuple[np.ndarray, ...],
    hazard: np.ndarray,
    lookup: np.ndarray,
) -> EntryArrays:
    """Expand events into entries, mirroring the reference's expiry split.

    The numpy path of :func:`build_entries`, taken without the native
    kernel; like the kernel, it returns the entries in stable (row, col)
    order.  The reference is ``_expiry_branches_from`` in
    tests/oracles/perstate.py.  Entry layout per event: the keep-all
    branch, then one expiry branch per rule ascending (masked to the
    live set) -- the reference emission order.  The keep-all product,
    the leave-one-out weights, and the normaliser all accumulate over
    rules in ascending order with exact-identity factors for non-live
    rules, so every float matches the reference's sequential loops
    bit-for-bit.
    """
    n_rules = model.context.n_rules
    bits = np.int64(1) << np.arange(n_rules, dtype=np.int64)
    cached_t = model.state_membership_matrix().T != 0  # (n, R)
    certain_mask = ((cached_t & (hazard >= 1.0)) * bits).sum(axis=1)
    candidate_mask = (
        (cached_t & (hazard > 0.0) & (hazard < 1.0)) * bits
    ).sum(axis=1)
    rows, interim, protected, base, tag = events
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

    emit = np.flatnonzero(out_probs > 0.0)
    # A stable argsort of the composite key row * n + col: the same
    # permutation as np.lexsort((cols, rows)) at about 40% of its cost
    # on this entry volume.  No overflow: rows and cols are below
    # n_states, so the key is below n_states**2 << 2**63.
    order = emit[np.argsort(
        out_rows[emit] * np.int64(model.n_states) + out_cols[emit],
        kind="stable",
    )]
    return out_rows[order], out_cols[order], out_probs[order], out_tags[order]
