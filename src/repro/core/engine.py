"""Cached probe-scoring engine (the Section V inner loop).

Probe selection evaluates ``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` over many
candidate probe sequences.  The serial reference loops
(``tests/oracles/probes.py``) rebuild every sequence's outcome table
anew through dict-based frontier walks; this module replaces
that inner loop with two ideas:

* **shared prefix cache** -- sibling candidates evaluated in canonical
  (ascending) order share long common prefixes; the per-inference cache
  (:meth:`~repro.core.inference.ReconInference.prefix_distribution`,
  keyed by ``(exclusion set, probe prefix)``) evolves each shared prefix
  exactly once;
* **batched vectorised scoring** -- the final probe of every candidate
  sequence only *reads* the cached prefix state (its perturbation feeds
  no further probe), so a block of candidates is scored with one
  :func:`~repro.core.inference.coverage_split` of the prefix rows
  instead of per-flow Python iteration.  Blocks have a fixed size
  (:data:`SCORE_BLOCK`) so the floating-point shapes -- and therefore
  the results, bit for bit -- do not depend on how many candidates a
  caller passes.

Scoring runs in the calling process.  Parallelism lives one grain up,
at trials and screens (``trial_jobs``) and at service shards.

Work counts go to the metrics registry: the engine counts scored
sequences and blocks (``engine.sequences_scored``, ``engine.batches``),
the inference its chain evolutions and prefix-cache traffic
(``engine.evolutions``, ``engine.cache.*``); where the time went is
the ``engine.select`` span's job (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compact_model import CompactModel
from repro.core.gain import gains_from_tables
from repro.core.inference import ReconInference, coverage_split
from repro.obs import get_instrumentation

#: Fixed scoring block size.  Keeping block shapes constant regardless
#: of how many candidates a caller passes makes the vectorised gains
#: bitwise reproducible across callers.
SCORE_BLOCK = 32

#: Strict-improvement margin of the selection scans; matches the serial
#: reference loops in :mod:`repro.core.selection`.
TIE_EPS = 1e-15


def _score_block(
    inference: ReconInference,
    prefix: Tuple[int, ...],
    flows: Tuple[int, ...],
) -> np.ndarray:
    """Gains of ``prefix + (f,)`` for every ``f`` in one block.

    The shared prefix is fetched (or computed once) from the inference's
    prefix cache; the block's final-probe split is
    :meth:`~repro.core.inference.ReconInference.outcome_arrays`.
    """
    outcome_probs, joint_absent = inference.outcome_arrays(prefix, flows)
    return gains_from_tables(
        inference.prior_absent(), joint_absent, outcome_probs
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ProbeScoringEngine:
    """Batched, cached probe scoring.

    One engine wraps one fitted
    :class:`~repro.core.inference.ReconInference`; the prefix cache (and
    therefore most of the speedup) lives on the inference object, so
    repeated selections against the same inference keep getting cheaper.
    Block shapes are fixed at :data:`SCORE_BLOCK` and the winner scan
    runs over all gains in canonical candidate order.
    """

    def __init__(self, inference: ReconInference) -> None:
        self.inference = inference
        # Whatever `use_instrumentation` installed (null by default).
        self._obs = get_instrumentation()
        self._obs_sequences = self._obs.metrics.counter(
            "engine.sequences_scored"
        )
        self._obs_batches = self._obs.metrics.counter("engine.batches")

    # -- scoring ------------------------------------------------------
    def score_tails(
        self, prefix: Sequence[int], tails: Sequence[int]
    ) -> np.ndarray:
        """Gains of ``prefix + (f,)`` for every tail flow ``f``."""
        tails = tuple(int(f) for f in tails)
        started = time.perf_counter() if self._obs.enabled else 0.0
        gains = self._score(tuple(int(f) for f in prefix), tails)
        if self._obs.enabled and tails:
            # Per-batch latency, in ms: the pass's time per scoring block.
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            n_blocks = -(-len(tails) // SCORE_BLOCK)
            self._obs.metrics.histogram("engine.score.batch_ms").observe(
                elapsed_ms / n_blocks
            )
        return gains

    def _score(
        self, prefix: Tuple[int, ...], tails: Tuple[int, ...]
    ) -> np.ndarray:
        """Gains of ``prefix + (f,)`` per tail, in blocks of :data:`SCORE_BLOCK`."""
        blocks = [
            _score_block(self.inference, prefix, tails[start:start + SCORE_BLOCK])
            for start in range(0, len(tails), SCORE_BLOCK)
        ]
        self._obs_sequences.inc(len(tails))
        self._obs_batches.inc(len(blocks))
        return np.concatenate(blocks) if blocks else np.zeros(0)

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
        # Group the lexicographic combination order by shared prefix:
        # every size-(m-1) prefix is walked once and all of its tail
        # candidates are scored in stacked blocks.
        best_probes: Optional[Tuple[int, ...]] = None
        best_gain = 0.0
        for prefix in combinations(candidates, n_probes - 1):
            tails = tuple(c for c in candidates if c > prefix[-1])
            if not tails:
                continue
            for tail, gain in zip(tails, self._score(prefix, tails)):
                if best_probes is None or gain > best_gain + TIE_EPS:
                    best_probes = prefix + (tail,)
                    best_gain = float(gain)
        assert best_probes is not None
        return best_probes, best_gain

    def _best_set_greedy(
        self, candidates: List[int], n_probes: int
    ) -> Tuple[Tuple[int, ...], float]:
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
            flow_gains: Dict[int, float] = {}
            for prefix in sorted(groups):
                members = groups[prefix]
                values = self._score(prefix, tuple(tail for _, tail in members))
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
        return chosen, gain


# ----------------------------------------------------------------------
# Adaptive-session scoring (conditional gains given observed outcomes)
# ----------------------------------------------------------------------
def conditional_gains(
    model: CompactModel,
    w_full: np.ndarray,
    w_absent: np.ndarray,
    flows: Sequence[int],
) -> np.ndarray:
    """Conditional ``IG`` about ``X̂`` of each candidate probe, batched.

    ``w_full`` and ``w_absent`` are the adaptive session's joint state
    weightings ``P(state ∧ observations)`` and ``P(X̂=0 ∧ state ∧
    observations)``; every candidate's hit/miss split is a column of
    one :func:`~repro.core.inference.coverage_split`.  A candidate's own
    cache perturbation never affects its score (the outcome is read
    before the perturbation), so no transition applies.
    """
    flows = tuple(int(f) for f in flows)
    if not flows:
        return np.zeros(0)
    mass = float(w_full.sum())
    if mass <= 0.0:
        return np.zeros(len(flows))
    prior = min(float(w_absent.sum()) / mass, 1.0)
    weights = np.stack([w_full, w_absent])
    gains = []
    for start in range(0, len(flows), SCORE_BLOCK):
        # Each block's 2-outcome tables: (miss, hit) x (full, absent).
        miss, hit = coverage_split(
            weights, model.coverage_matrix(flows[start:start + SCORE_BLOCK])
        )
        outcome_probs = np.stack([miss[0], hit[0]]) / mass
        joint_absent = np.stack([miss[1], hit[1]]) / mass
        gains.append(gains_from_tables(prior, joint_absent, outcome_probs))
    return np.concatenate(gains)
