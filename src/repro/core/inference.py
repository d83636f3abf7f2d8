"""Reconnaissance inference: ``P(Q)``, ``P(X̂ ∧ Q)``, posteriors.

This module implements Section V's probability computations on top of a
:class:`~repro.core.compact_model.CompactModel`:

* Evolve the chain ``T`` steps to the cache-state distribution
  ``I_T = A^T I_0`` (Eqn. 8).
* Evolve the *target-excluded* substochastic chain to the joint
  weighting whose total mass is ``P(X̂ = 0)`` and whose per-state mass
  is ``P(X̂ = 0 ∧ state)``.
* Carry both weightings through any probe prefix as dense per-outcome
  state rows (:meth:`ReconInference.prefix_distribution`, each probe's
  install/evict perturbation feeding the next) and split the rows by
  the final probe's coverage (:func:`coverage_split`) to obtain
  ``P(Q = q)`` and ``P(X̂ = 0 ∧ Q = q)`` for every outcome vector ``q``,
  hence posteriors and information gains.

The probe-scoring engine, the screens, the decision trees and adaptive
sessions all read these rows; the dict frontier walk they replaced is a
test oracle (``tests/oracles/probes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.chain import evolve
from repro.core.compact_model import CompactModel
from repro.core.gain import (
    Outcome,
    binary_entropy,
    gains_from_tables,
)
from repro.obs import counter_inc, sanitize

#: Weight threshold at or below which state weights are dropped from
#: the per-outcome rows (the dict walk's frontier pruning).
PRUNE = 1e-15


def pruned(weights: np.ndarray) -> np.ndarray:
    """A copy of ``weights`` with entries at or below :data:`PRUNE` zeroed."""
    return np.where(weights > PRUNE, weights, 0.0)


def coverage_split(
    rows: np.ndarray, coverage: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(miss, hit)``: the mass of each row on each probe's two sides.

    ``rows`` is an ``(r, n_states)`` stack of state weightings and
    ``coverage`` the ``(c, n_states)`` 0/1 coverage matrix of ``c``
    probes; ``hit = rows @ coverage.T`` and ``miss = rows @ (1 -
    coverage).T``, both ``(r, c)``.  Each is a sum of non-negative
    terms, so a side on which no state carries mass is exactly 0.0
    (``rowsum - hit`` can leave a one-ulp residue there, which would
    pass the screen's ``p > 0`` conjunct).
    """
    return rows @ (1.0 - coverage).T, rows @ coverage.T


def push_probe(model: CompactModel, rows: np.ndarray, flow: int) -> np.ndarray:
    """Split every row by one probe's outcome, then apply its perturbation.

    Returns a ``(2r, n_states)`` array: row ``2i`` is row ``i``'s mass on
    the states the probe misses and row ``2i + 1`` its mass on the
    states it hits.  The outcome is read off the state *before* the
    probe's own cache perturbation (install/evict); both halves are then
    pushed through :meth:`~CompactModel.probe_matrix` in one stacked
    sparse product, so they can feed the next probe -- the Section V-B
    incremental adjustment -- and pruned at :data:`PRUNE`.
    """
    coverage = model.coverage_vector(flow)
    stacked = _interleave(rows * (1.0 - coverage), rows * coverage)
    return pruned(evolve(stacked, model.probe_matrix(flow), 1))


def _interleave(miss: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Rows ``2r`` from ``miss`` and ``2r + 1`` from ``hit``."""
    out = np.empty((2 * miss.shape[0],) + miss.shape[1:])
    out[0::2] = miss
    out[1::2] = hit
    return out


@dataclass(frozen=True)
class OutcomeTable:
    """Joint outcome probabilities for one probe sequence.

    ``outcome_probs[q] = P(Q = q)`` and
    ``joint_absent[q] = P(X̂ = 0 ∧ Q = q)``.
    """

    probes: Tuple[int, ...]
    outcome_probs: Dict[Outcome, float]
    joint_absent: Dict[Outcome, float]

    def posterior_absent(self, outcome: Outcome) -> float:
        """``P(X̂ = 0 | Q = outcome)``; 0.5 for impossible outcomes."""
        p_q = self.outcome_probs.get(outcome, 0.0)
        if p_q <= 0.0:
            return 0.5
        p_joint = min(max(self.joint_absent.get(outcome, 0.0), 0.0), p_q)
        return p_joint / p_q

    def posterior_present(self, outcome: Outcome) -> float:
        """``P(X̂ = 1 | Q = outcome)``."""
        return 1.0 - self.posterior_absent(outcome)

    def decide(self, outcome: Outcome) -> int:
        """MAP decision: 1 iff the target more likely occurred."""
        return 1 if self.posterior_present(outcome) > 0.5 else 0


class ReconInference:
    """Precomputed inference state for one target flow and window.

    Parameters
    ----------
    model:
        The compact switch model.
    target_flow:
        Universe index of the target flow ``f̂``.
    window_steps:
        The detection window ``T`` in steps, from an empty cache.
    """

    def __init__(
        self,
        model: CompactModel,
        target_flow: int,
        window_steps: int,
        precomputed_full: Optional[np.ndarray] = None,
    ) -> None:
        if window_steps < 0:
            raise ValueError("window_steps must be non-negative")
        self.model = model
        self.target_flow = int(target_flow)
        self.window_steps = int(window_steps)

        # Work counts (``engine.evolutions``, ``engine.cache.*``) go to
        # whatever backend is current when the work happens, not the one
        # current at construction: an inference inherited by a fork pool
        # worker must count into the worker's registry.
        #: ``exclusion tuple -> T-step evolved distribution``.
        self._evolution_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        #: ``(exclusion tuple, probe prefix) -> stacked per-outcome rows``.
        self._prefix_cache: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]], np.ndarray
        ] = {}

        if precomputed_full is not None:
            # The full-chain distribution does not depend on the target;
            # callers fitting many targets on one model (e.g. leakage
            # maps) compute it once and pass it in.  Copied and frozen
            # like every other cache entry.
            self.dist_full = np.array(precomputed_full, dtype=np.float64)
            self.dist_full.setflags(write=False)
            self._evolution_cache[()] = self.dist_full
        else:
            #: ``I_T``: distribution over cache states after ``T`` steps.
            self.dist_full = self.evolution(())
        #: Substochastic weighting: mass[state] = P(X̂=0 ∧ state).
        self.dist_absent = self.evolution((self.target_flow,))
        if sanitize.is_active():
            sanitize.guard_array("inference.dist_full", self.dist_full)
            sanitize.guard_array("inference.dist_absent", self.dist_absent)
        self._table_cache: Dict[Tuple[int, ...], OutcomeTable] = {}

    # ------------------------------------------------------------------
    # Shared evolution + prefix caches (the probe-scoring engine's core)
    # ------------------------------------------------------------------
    @staticmethod
    def _exclusion_key(exclusion: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sorted(set(int(f) for f in exclusion)))

    def evolution(self, exclusion: Sequence[int] = ()) -> np.ndarray:
        """The ``T``-step evolved distribution, memoised per exclusion set.

        With ``exclusion`` empty this is ``I_T``; with flows excluded it
        is the substochastic weighting whose per-state mass is
        ``P(no excluded flow occurred ∧ state)`` (Section V-A).
        """
        key = self._exclusion_key(exclusion)
        cached = self._evolution_cache.get(key)
        if cached is not None:
            return cached
        counter_inc("engine.evolutions")
        # The model's power chain memoises A^T I_0 checkpoints across
        # every inference on the model, so re-windowing the same model
        # pays only the step delta.  Chain results arrive frozen --
        # aliased cache entries stay read-only (the runtime complement
        # of lint rule MUT001).
        dist = self.model.power_chain(key).advance(self.window_steps)
        self._evolution_cache[key] = dist
        if sanitize.is_active():
            sanitize.guard_array(f"inference.evolution[{key}]", dist)
        return dist

    def prefix_distribution(
        self,
        prefix: Sequence[int] = (),
        exclusion: Sequence[int] = (),
    ) -> np.ndarray:
        """Per-outcome state weightings after a probe prefix, memoised.

        Returns a ``(2**len(prefix), n_states)`` array whose row ``r``
        holds the joint weighting ``P(outcome(prefix) = r ∧ state)``
        (under the excluded chain when ``exclusion`` is non-empty).  Row
        encoding: the first probe's bit is the most significant, so a
        parent row ``r`` splits into children ``2r`` (miss) and
        ``2r + 1`` (hit).  Entries at or below :data:`PRUNE` are zeroed,
        mirroring the dict walk's frontier pruning.
        """
        excl_key = self._exclusion_key(exclusion)
        probes = tuple(int(f) for f in prefix)
        key = (excl_key, probes)
        cached = self._prefix_cache.get(key)
        if cached is not None:
            counter_inc("engine.cache.hits")
            return cached
        counter_inc("engine.cache.misses")
        if not probes:
            rows = pruned(self.evolution(excl_key))[np.newaxis, :]
        else:
            parent = self.prefix_distribution(probes[:-1], excl_key)
            counter_inc("engine.cache.prefix_extensions")
            rows = push_probe(self.model, parent, probes[-1])
        rows.setflags(write=False)
        self._prefix_cache[key] = rows
        if sanitize.is_active():
            sanitize.guard_array(f"inference.prefix[{key}]", rows)
        return rows

    # ------------------------------------------------------------------
    # Priors
    # ------------------------------------------------------------------
    def prior_absent(self) -> float:
        """Chain-consistent ``P(X̂ = 0)``: total target-excluded mass.

        Equals ``(1 - p_f̂)^T`` for the normalised chain; the paper's
        closed form ``e^{-lambda T Delta}`` converges to it as
        ``Delta -> 0``.
        """
        return float(self.dist_absent.sum())

    def prior_entropy(self) -> float:
        """``H(X̂)`` in bits."""
        return binary_entropy(self.prior_absent())

    # ------------------------------------------------------------------
    # Outcome tables and gains
    # ------------------------------------------------------------------
    def outcome_arrays(
        self, prefix: Sequence[int], flows: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked outcome tables of ``prefix + (f,)`` for each ``f`` in ``flows``.

        Returns ``(outcome_probs, joint_absent)``, both
        ``(2 * 2**len(prefix), len(flows))``: row ``2r + b`` is prefix
        outcome ``r`` (rows of :meth:`prefix_distribution`) followed by
        final-probe bit ``b``, column ``j`` the final probe
        ``flows[j]``.  The final probe's own perturbation is irrelevant
        (its outcome is read before it, and nothing follows), so its
        split is one :func:`coverage_split` of the cached prefix rows.
        """
        coverage = self.model.coverage_matrix(flows)
        miss_full, hit_full = coverage_split(
            self.prefix_distribution(prefix), coverage
        )
        miss_absent, hit_absent = coverage_split(
            self.prefix_distribution(prefix, exclusion=(self.target_flow,)),
            coverage,
        )
        return (
            _interleave(miss_full, hit_full),
            _interleave(miss_absent, hit_absent),
        )

    def outcome_table(self, probes: Sequence[int]) -> OutcomeTable:
        """Joint outcome table for an ordered probe sequence (memoised).

        Outcome vectors of zero probability have no entry.
        """
        key = tuple(int(f) for f in probes)
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached
        if key:
            outcome_probs, joint_absent = self.outcome_arrays(
                key[:-1], key[-1:]
            )
            columns = (outcome_probs[:, 0], joint_absent[:, 0])
        else:
            columns = (
                self.prefix_distribution(()).sum(axis=1),
                self.prefix_distribution(
                    (), exclusion=(self.target_flow,)
                ).sum(axis=1),
            )
        width = len(key)
        outcomes = [
            tuple((row >> (width - 1 - bit)) & 1 for bit in range(width))
            for row in range(len(columns[0]))
        ]
        probs, joints = (
            {q: float(p) for q, p in zip(outcomes, column) if p > 0.0}
            for column in columns
        )
        table = OutcomeTable(
            probes=key, outcome_probs=probs, joint_absent=joints
        )
        self._table_cache[key] = table
        return table

    def information_gain(self, probes: Sequence[int]) -> float:
        """``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` in bits.

        The engine's arithmetic: one :func:`~repro.core.gain.gains_from_tables`
        over :meth:`outcome_arrays`, so equal bit for bit to
        :meth:`~repro.core.engine.ProbeScoringEngine.score_tails`.
        """
        probes = tuple(int(f) for f in probes)
        if not probes:
            return 0.0
        outcome_probs, joint_absent = self.outcome_arrays(
            probes[:-1], probes[-1:]
        )
        return float(
            gains_from_tables(self.prior_absent(), joint_absent, outcome_probs)[0]
        )

    def hit_probability(self, flow: int) -> float:
        """``P(Q_f = 1)``: mass of states with a rule covering ``flow``."""
        return self.outcome_table((flow,)).outcome_probs.get((1,), 0.0)
