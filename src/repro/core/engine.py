"""Parallel cached probe-scoring engine (the Section V inner loop).

Probe selection evaluates ``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` over many
candidate probe sequences.  The serial reference path
(:func:`repro.core.selection.best_probe_set_serial`) rebuilds every
sequence's outcome table from scratch through dict-based frontier
walks; this module replaces that inner loop with three ideas:

* **shared prefix cache** -- sibling candidates evaluated in canonical
  (ascending) order share long common prefixes; the per-inference cache
  (:meth:`~repro.core.inference.ReconInference.prefix_distribution`,
  keyed by ``(exclusion set, probe prefix)``) evolves each shared prefix
  exactly once;
* **batched vectorised scoring** -- the final probe of every candidate
  sequence only *reads* the cached prefix state (its perturbation feeds
  no further probe), so a block of candidates is scored with one stacked
  matrix product against the coverage matrix instead of per-flow Python
  iteration.  Blocks have a fixed size (:data:`SCORE_BLOCK`) so the
  floating-point shapes -- and therefore the results, bit for bit -- do
  not depend on how the work is chunked across processes;
* **opt-in multiprocessing** -- ``n_jobs > 1`` fans the scoring blocks
  out over a :class:`~repro.parallel.ForkPool` (the inference handle is
  inherited through fork, never pickled; a dead worker degrades the
  batch to the serial path).  Selection results are identical for every
  ``n_jobs`` because block shapes are fixed and the final argmax scan
  always runs serially over all gains in canonical candidate order.

Instrumentation counters (chain evolutions, prefix-cache hits/misses,
scored sequences, wall time per stage) are collected in
:class:`ScoringStats` and surfaced on
:class:`~repro.core.selection.ProbeChoice`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compact_model import CompactModel
from repro.core.gain import binary_entropy
from repro.core.inference import ReconInference
from repro.deprecation import keyword_only
from repro.obs import get_instrumentation
from repro.parallel import ForkPool

#: Fixed scoring block size.  Keeping block shapes constant regardless
#: of ``n_jobs`` (and of how many candidates a caller passes) makes the
#: vectorised gains bitwise reproducible across parallel settings.
SCORE_BLOCK = 32

#: Strict-improvement margin of the selection scans; matches the serial
#: reference loops in :mod:`repro.core.selection`.
TIE_EPS = 1e-15

#: Inference-counter key -> exported observability counter name.  The
#: inference counters are totals (and fork workers accumulate their own
#: copies), so the engine exports *deltas* from the parent process only.
_OBS_COUNTER_NAMES = {
    "evolutions": "engine.evolutions",
    "prefix_cache_hits": "engine.cache.hits",
    "prefix_cache_misses": "engine.cache.misses",
    "prefix_extensions": "engine.cache.prefix_extensions",
}


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
@dataclass
class ScoringStats:
    """Counters and stage timings for one probe-selection run.

    Counter semantics: totals over the lifetime of the underlying
    :class:`~repro.core.inference.ReconInference` (so the window
    evolutions performed at fit time are included), plus any work done
    inside multiprocessing workers on its behalf.
    """

    #: ``T``-step chain evolutions performed (full + per-exclusion).
    evolutions: int = 0
    #: Prefix-cache lookups served from the cache.
    cache_hits: int = 0
    #: Prefix-cache lookups that had to compute their entry.
    cache_misses: int = 0
    #: Single-probe pushes of a cached prefix distribution.
    prefix_extensions: int = 0
    #: Candidate probe sequences scored.
    sequences_scored: int = 0
    #: Stacked scoring blocks evaluated.
    batches: int = 0
    #: Pool batches re-scored serially after a fork-pool failure.
    pool_fallbacks: int = 0
    #: Parallelism the engine was configured with.
    n_jobs: int = 1
    #: Wall-clock seconds per stage (``score``, ``select``, ``total``).
    wall_times: Dict[str, float] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for a named stage."""
        self.wall_times[stage] = self.wall_times.get(stage, 0.0) + seconds

    def rows(self) -> List[List[object]]:
        """``[name, value]`` rows for plain-text tables (CLI output)."""
        rows: List[List[object]] = [
            ["evolutions", self.evolutions],
            ["prefix cache hits", self.cache_hits],
            ["prefix cache misses", self.cache_misses],
            ["prefix extensions", self.prefix_extensions],
            ["sequences scored", self.sequences_scored],
            ["scoring blocks", self.batches],
            ["pool fallbacks", self.pool_fallbacks],
            ["n_jobs", self.n_jobs],
        ]
        for stage in sorted(self.wall_times):
            rows.append([f"{stage} time (s)", f"{self.wall_times[stage]:.6f}"])
        return rows


# ----------------------------------------------------------------------
# Vectorised gain arithmetic
# ----------------------------------------------------------------------
def _xlogq(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``x * log2(p / x)`` elementwise with the ``0 log 0 = 0`` convention.

    Callers guarantee ``0 <= x <= p`` so the ratio is well defined
    wherever ``x > 0``.
    """
    out = np.zeros_like(x)
    mask = x > 0.0
    # log2(p) - log2(x) rather than log2(p / x): the ratio overflows for
    # subnormal x even though the product is finite.
    out[mask] = x[mask] * (np.log2(p[mask]) - np.log2(x[mask]))
    return out


def gains_from_tables(
    prior_absent: float,
    joint_absent: np.ndarray,
    outcome_probs: np.ndarray,
) -> np.ndarray:
    """Vectorised ``IG(X̂ | Q)`` over stacked outcome tables.

    ``outcome_probs`` and ``joint_absent`` are ``(n_outcomes, c)`` arrays
    (one column per candidate); the result is the length-``c`` gain
    vector.  Mirrors :func:`repro.core.gain.information_gain` including
    its clamping of the joint into ``[0, P(Q=q)]`` and the clip at zero.
    """
    p_q = outcome_probs
    p_absent = np.clip(joint_absent, 0.0, p_q)
    p_present = p_q - p_absent
    conditional = (_xlogq(p_absent, p_q) + _xlogq(p_present, p_q)).sum(axis=0)
    return np.maximum(binary_entropy(prior_absent) - conditional, 0.0)


def _score_block_impl(
    inference: ReconInference,
    prefix: Tuple[int, ...],
    flows: Tuple[int, ...],
) -> np.ndarray:
    """Gains of ``prefix + (f,)`` for every ``f`` in one block.

    The shared prefix is fetched (or computed once) from the inference's
    prefix cache; the block's final-probe hit/miss split is one stacked
    matrix product against the coverage matrix.  The final probe's own
    cache perturbation is irrelevant to its score (the outcome is read
    before the perturbation and nothing follows), so no transition is
    applied for it.
    """
    target = inference.target_flow
    weights_full = inference.prefix_distribution(prefix)
    weights_absent = inference.prefix_distribution(prefix, exclusion=(target,))
    coverage = inference.model.coverage_matrix(flows)  # (c, n_states)

    hit_full = weights_full @ coverage.T  # (n_prefix_outcomes, c)
    miss_full = weights_full.sum(axis=1, keepdims=True) - hit_full
    hit_absent = weights_absent @ coverage.T
    miss_absent = weights_absent.sum(axis=1, keepdims=True) - hit_absent

    n_prefix_outcomes = weights_full.shape[0]
    outcome_probs = np.empty((2 * n_prefix_outcomes, len(flows)))
    outcome_probs[0::2] = miss_full
    outcome_probs[1::2] = hit_full
    joint_absent = np.empty_like(outcome_probs)
    joint_absent[0::2] = miss_absent
    joint_absent[1::2] = hit_absent

    return gains_from_tables(
        inference.prior_absent(), joint_absent, outcome_probs
    )


#: One scoring work item: (shared probe prefix, block of final probes).
WorkItem = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _score_block(
    shared: Tuple[ReconInference, int], item: WorkItem
) -> Tuple[np.ndarray, Dict[str, int]]:
    """One scoring block, plus the inference-counter growth elsewhere.

    ``shared`` is the inference and the pid of the engine's process.  A
    worker's counters grow on its fork copy of the inference, so it
    returns the growth for the engine to fold into its stats; in the
    engine's own process the counters grow in place and the delta is
    empty.
    """
    inference, owner = shared
    prefix, flows = item
    if os.getpid() == owner:
        return _score_block_impl(inference, prefix, flows), {}
    before = dict(inference.counters)
    gains = _score_block_impl(inference, prefix, flows)
    delta = {
        key: value - before.get(key, 0)
        for key, value in inference.counters.items()
    }
    return gains, delta


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ProbeScoringEngine:
    """Batched, cached, optionally parallel probe scoring.

    One engine wraps one fitted
    :class:`~repro.core.inference.ReconInference`; the prefix cache (and
    therefore most of the speedup) lives on the inference object, so
    repeated selections against the same inference keep getting cheaper.

    ``n_jobs > 1`` fans scoring blocks out over a fork pool.  Results
    are identical across ``n_jobs`` settings: block shapes are fixed at
    :data:`SCORE_BLOCK` and the winner scan always runs serially over
    all gains in canonical candidate order.
    """

    @keyword_only
    def __init__(
        self,
        inference: ReconInference,
        *,
        n_jobs: int = 1,
    ) -> None:
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self.inference = inference
        self.n_jobs = int(n_jobs)
        self.stats = ScoringStats(n_jobs=self.n_jobs)
        self._worker_deltas: Dict[str, int] = {}
        # Whatever `use_instrumentation` installed (null by default).
        self._obs = get_instrumentation()
        self._obs.metrics.gauge("engine.pool.n_jobs").set(self.n_jobs)
        self._obs_sequences = self._obs.metrics.counter(
            "engine.sequences_scored"
        )
        self._obs_batches = self._obs.metrics.counter("engine.batches")
        #: Last exported value per inference counter (for delta export).
        self._obs_base: Dict[str, int] = {}

    # -- scoring ------------------------------------------------------
    def score_tails(
        self, prefix: Sequence[int], tails: Sequence[int]
    ) -> np.ndarray:
        """Gains of ``prefix + (f,)`` for every tail flow ``f``."""
        items = self._block_items(
            tuple(int(f) for f in prefix), tuple(int(f) for f in tails)
        )
        started = time.perf_counter()
        gains = self._map(items)
        elapsed = time.perf_counter() - started
        self.stats.add_time("score", elapsed)
        if self._obs.enabled and items:
            # Per-batch latency, in ms: one scoring pass over `items`.
            self._obs.metrics.histogram("engine.score.batch_ms").observe(
                elapsed * 1000.0 / len(items)
            )
        self._refresh_counters()
        if not gains:
            return np.zeros(0)
        return np.concatenate(gains)

    def sequence_gain(self, probes: Sequence[int]) -> float:
        """``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` for one ordered sequence."""
        probes = tuple(int(f) for f in probes)
        if not probes:
            return 0.0
        return float(self.score_tails(probes[:-1], probes[-1:])[0])

    def _block_items(
        self, prefix: Tuple[int, ...], tails: Tuple[int, ...]
    ) -> List[WorkItem]:
        items = [
            (prefix, tails[start:start + SCORE_BLOCK])
            for start in range(0, len(tails), SCORE_BLOCK)
        ]
        self.stats.sequences_scored += len(tails)
        self.stats.batches += len(items)
        self._obs_sequences.inc(len(tails))
        self._obs_batches.inc(len(items))
        return items

    def _map(self, items: Sequence[WorkItem]) -> List[np.ndarray]:
        """Evaluate scoring blocks through a per-call :class:`ForkPool`.

        A dead pool re-scores the whole batch serially in the parent
        (the serial path shares the parent's prefix cache, so nothing
        is lost but time), counted in ``stats.pool_fallbacks`` and the
        ``engine.pool.fallbacks`` metric (:mod:`repro.parallel`).
        """
        shared = (self.inference, os.getpid())
        with ForkPool(self.n_jobs, shared, name="engine") as pool:
            results = pool.map(_score_block, items)
        self.stats.pool_fallbacks += pool.fallbacks
        for _, delta in results:
            for key, value in delta.items():
                self._worker_deltas[key] = (
                    self._worker_deltas.get(key, 0) + value
                )
        return [gains for gains, _ in results]

    def _refresh_counters(self) -> None:
        """Fold inference counters + worker deltas into the stats."""
        merged = dict(self.inference.counters)
        for key, value in self._worker_deltas.items():
            merged[key] = merged.get(key, 0) + value
        self.stats.evolutions = merged.get("evolutions", 0)
        self.stats.cache_hits = merged.get("prefix_cache_hits", 0)
        self.stats.cache_misses = merged.get("prefix_cache_misses", 0)
        self.stats.prefix_extensions = merged.get("prefix_extensions", 0)
        if self._obs.enabled:
            # Export the growth since the previous refresh; the merged
            # totals already include fork-worker deltas, so counting in
            # the parent here loses nothing and double-counts nothing.
            for key, name in _OBS_COUNTER_NAMES.items():
                total = merged.get(key, 0)
                delta = total - self._obs_base.get(key, 0)
                if delta > 0:
                    self._obs.metrics.counter(name).inc(delta)
                self._obs_base[key] = total

    # -- selection ----------------------------------------------------
    def best_single(
        self, candidates: Optional[Sequence[int]] = None
    ) -> Tuple[Tuple[int, ...], float]:
        """Best single probe; candidate order is the tie-break order."""
        if candidates is None:
            candidates = range(self.inference.model.context.n_flows)
        candidates = [int(f) for f in candidates]
        if not candidates:
            raise ValueError("no candidate probes")
        started = time.perf_counter()
        with self._obs.span(
            "engine.select", method="single", n_candidates=len(candidates)
        ):
            gains = self.score_tails((), candidates)
            best_flow = None
            best_gain = -1.0
            for flow, gain in zip(candidates, gains):
                if gain > best_gain + TIE_EPS:
                    best_flow = flow
                    best_gain = float(gain)
            assert best_flow is not None
        self.stats.add_time("total", time.perf_counter() - started)
        return (best_flow,), max(best_gain, 0.0)

    def best_set(
        self,
        n_probes: int,
        candidates: Optional[Sequence[int]] = None,
        method: str = "exhaustive",
    ) -> Tuple[Tuple[int, ...], float]:
        """Best size-``n_probes`` set by joint gain (canonical order)."""
        if n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        if candidates is None:
            candidates = range(self.inference.model.context.n_flows)
        candidates = sorted(set(int(f) for f in candidates))
        if len(candidates) < n_probes:
            raise ValueError(
                f"need {n_probes} candidates, have {len(candidates)}"
            )
        if n_probes == 1:
            return self.best_single(candidates)
        if method == "exhaustive":
            selector = self._best_set_exhaustive
        elif method == "greedy":
            selector = self._best_set_greedy
        else:
            raise ValueError(f"unknown selection method: {method!r}")
        with self._obs.span(
            "engine.select",
            method=method,
            n_probes=n_probes,
            n_candidates=len(candidates),
        ):
            return selector(candidates, n_probes)

    def _best_set_exhaustive(
        self, candidates: List[int], n_probes: int
    ) -> Tuple[Tuple[int, ...], float]:
        started = time.perf_counter()
        # Group the lexicographic combination order by shared prefix:
        # every size-(m-1) prefix is walked once and all of its tail
        # candidates are scored in stacked blocks.
        plan: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        items: List[WorkItem] = []
        for prefix in combinations(candidates, n_probes - 1):
            tails = tuple(c for c in candidates if c > prefix[-1])
            if not tails:
                continue
            plan.append((prefix, tails))
            items.extend(self._block_items(prefix, tails))
        gains = self._map(items)
        self.stats.add_time("score", time.perf_counter() - started)

        scan_started = time.perf_counter()
        best_probes: Optional[Tuple[int, ...]] = None
        best_gain = 0.0
        cursor = 0
        for prefix, tails in plan:
            for start in range(0, len(tails), SCORE_BLOCK):
                block_gains = gains[cursor]
                cursor += 1
                for tail, gain in zip(
                    tails[start:start + SCORE_BLOCK], block_gains
                ):
                    if best_probes is None or gain > best_gain + TIE_EPS:
                        best_probes = prefix + (tail,)
                        best_gain = float(gain)
        assert best_probes is not None
        self.stats.add_time("select", time.perf_counter() - scan_started)
        self.stats.add_time("total", time.perf_counter() - started)
        self._refresh_counters()
        return best_probes, best_gain

    def _best_set_greedy(
        self, candidates: List[int], n_probes: int
    ) -> Tuple[Tuple[int, ...], float]:
        started = time.perf_counter()
        chosen: Tuple[int, ...] = ()
        gain = 0.0
        remaining = list(candidates)
        for _ in range(n_probes):
            # Each remaining flow is evaluated as sorted(chosen + (flow,)).
            # Group flows by that sequence's prefix so flows extending the
            # same prefix score in shared stacked blocks (flows sorting
            # past the current set all share `chosen` itself).
            groups: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
            for flow in remaining:
                sequence = tuple(sorted(chosen + (flow,)))
                groups.setdefault(sequence[:-1], []).append(
                    (flow, sequence[-1])
                )
            plan: List[Tuple[List[Tuple[int, int]], int]] = []
            items: List[WorkItem] = []
            for prefix in sorted(groups):
                members = groups[prefix]
                before = len(items)
                items.extend(
                    self._block_items(
                        prefix, tuple(tail for _, tail in members)
                    )
                )
                plan.append((members, len(items) - before))
            results = self._map(items)
            flow_gains: Dict[int, float] = {}
            cursor = 0
            for members, n_blocks in plan:
                values = np.concatenate(results[cursor:cursor + n_blocks])
                cursor += n_blocks
                for (flow, _), value in zip(members, values):
                    flow_gains[flow] = float(value)

            best_flow = None
            best_gain = -1.0
            for flow in remaining:
                candidate_gain = flow_gains[flow]
                if candidate_gain > best_gain + TIE_EPS:
                    best_flow = flow
                    best_gain = candidate_gain
            assert best_flow is not None
            chosen = tuple(sorted(chosen + (best_flow,)))
            remaining.remove(best_flow)
            gain = best_gain
        self.stats.add_time("total", time.perf_counter() - started)
        self._refresh_counters()
        return chosen, gain


# ----------------------------------------------------------------------
# Adaptive-session scoring (conditional gains given observed outcomes)
# ----------------------------------------------------------------------
def _weights_to_vector(
    model: CompactModel, weights: Dict[int, float]
) -> np.ndarray:
    """Dense state vector of ``{state mask: weight}``.

    Every mask must be a state of ``model``; one holding a rule no flow
    installs raises a ``ValueError`` naming the rule.
    """
    vector = np.zeros(model.n_states)
    for state, weight in weights.items():
        vector[model.index_of(state, "start state")] = weight
    return vector


#: Shared adaptive-scoring state: (model, w_full, w_absent, mass, prior).
_AdaptiveState = Tuple[CompactModel, np.ndarray, np.ndarray, float, float]


def _conditional_block(
    state: _AdaptiveState, flows: Sequence[int]
) -> np.ndarray:
    """Conditional gains of one candidate block (2-outcome tables)."""
    model, w_full, w_absent, mass, prior = state
    coverage = model.coverage_matrix(flows)  # (c, n_states)
    hit_full = coverage @ w_full
    hit_absent = coverage @ w_absent
    outcome_probs = np.stack([mass - hit_full, hit_full]) / mass
    joint_absent = np.stack([w_absent.sum() - hit_absent, hit_absent]) / mass
    return gains_from_tables(prior, joint_absent, outcome_probs)


def batched_conditional_gains(
    model: CompactModel,
    weights_full: Dict[int, float],
    weights_absent: Dict[int, float],
    flows: Sequence[int],
    n_jobs: int = 1,
) -> np.ndarray:
    """Conditional ``IG`` about ``X̂`` of each candidate probe, batched.

    Vectorised replacement for the adaptive session's per-flow scan:
    the joint weightings (``P(state ∧ observations)`` and
    ``P(X̂=0 ∧ state ∧ observations)``) are densified once and every
    candidate's hit/miss split is a row of one coverage-matrix product.
    A candidate's own cache perturbation never affects its score (the
    outcome is read before the perturbation), so no transition applies.
    """
    flows = tuple(int(f) for f in flows)
    if not flows:
        return np.zeros(0)
    w_full = _weights_to_vector(model, weights_full)
    mass = float(w_full.sum())
    if mass <= 0.0:
        return np.zeros(len(flows))
    w_absent = _weights_to_vector(model, weights_absent)
    prior = min(float(w_absent.sum()) / mass, 1.0)
    blocks = [
        flows[start:start + SCORE_BLOCK]
        for start in range(0, len(flows), SCORE_BLOCK)
    ]
    state = (model, w_full, w_absent, mass, prior)
    with ForkPool(n_jobs, state, name="engine") as pool:
        return np.concatenate(pool.map(_conditional_block, blocks))
