"""Margin-certified float32 screening pre-pass.

The headline experiments are dominated by *rejected* candidates: the
fig6 pipeline samples ~940 configurations to accept 8, and every
rejection pays two ``window_steps``-long float64 transition chains plus
a full harness build just to learn that the paper's viability screen
(or the optimal-probe-differs restriction) says no.

This module decides most of those rejections from a float32 replica of
the screen computed with the native fused pair-chain kernel
(:mod:`repro.core.cnative`), certified by conservative error bounds:

* the float32 information gains, outcome probabilities, and posteriors
  are computed exactly as the engine computes them (same coverage
  products, same :func:`~repro.core.engine.gains_from_tables`, same
  clamping) but from float32 chain outputs;
* a candidate is rejected *only* when every flow that could plausibly
  be the exact optimal probe (the gain tie-set ``W`` below) provably
  fails the screen -- each member's posterior sits further than the
  certified error bound below the paper's 0.5 cut, the member's outcome
  probability is *exactly* zero by graph reachability (no float64 chain
  can put mass on states the transition graph cannot reach, an integer
  argument immune to rounding), or the member is the target flow while
  the caller requires the optimal probe to differ;
* anything short of that -- thin margins, tiny outcome probabilities,
  gain ties that cannot be separated at float32 precision -- falls back
  to the exact float64 screen, and *every accepted configuration* is
  re-confirmed exactly (the harness is built and its verdicts are the
  ones recorded), so accepted results are bit-identical to an
  exact-only screen.

The error-bound constants are calibrated with a ~20x safety factor over
the worst float32 deviations observed across the headline candidate
streams (tests/experiments/test_fastscreen.py measures them afresh and
asserts the margins hold); the differential suite
(tests/experiments/test_oracle_diff.py) pins the full pipelines to an
exact-only run (``REPRO_NO_CKERNEL=1``) on the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core import cnative
from repro.core.compact_model import CompactModel
from repro.core.engine import gains_from_tables
from repro.core.inference import PRUNE
from repro.experiments.params import ExperimentParams
from repro.flows.config import NetworkConfiguration
from repro.obs import get_instrumentation, sanitize

#: Bound on ``|float32 - exact|`` for any of the screen's probability
#: sums (outcome probabilities, joints, priors).  Worst observed on the
#: headline streams: ~2e-5.
SUM_TOL = 5e-4

#: Bound on ``|float32 - exact|`` for per-flow information gains.
#: Worst observed: ~5e-5.  The exact winner's gain is within TIE_EPS of
#: the exact maximum, so it always lands in the float32 tie-set
#: ``gains32 >= max(gains32) - GAIN_TOL``.
GAIN_TOL = 1e-3

#: Outcome probabilities below this cannot be certified positive (and
#: their posteriors divide by them, amplifying SUM_TOL): fall back.
PROB_TOL = 2 * SUM_TOL

#: Posterior error scales like ``2 * SUM_TOL / p`` for outcome
#: probability ``p`` (numerator and denominator each carry SUM_TOL).
POST_TOL_NUMERATOR = 2 * SUM_TOL


def supports(params: ExperimentParams) -> bool:
    """Whether the certified screen applies under ``params``.

    The replica covers the default single-probe selection with the
    independent estimator -- the configuration every headline pipeline
    runs.  Anything else (Monte-Carlo estimators, multi-probe selection)
    screens exactly, as does any machine where the native kernel is
    unavailable (or disabled with ``REPRO_NO_CKERNEL=1``).
    """
    return (
        params.n_probes == 1
        and params.estimator == "independent"
        and cnative.available()
    )


@dataclass
class FastScreenOutcome:
    """What the pre-pass learned about one candidate configuration."""

    #: Proven: the serial screening loop would reject this candidate.
    certified_reject: bool
    #: The compact model built for the screen, for reuse by the exact
    #: harness when the pre-pass could not certify a rejection.
    model: Optional[CompactModel] = None


@dataclass
class FastQuantities:
    """Float32 replicas of every quantity the paper screen consults."""

    gains: np.ndarray
    p_hit: np.ndarray
    p_miss: np.ndarray
    posterior_absent_given_miss: np.ndarray
    posterior_present_given_hit: np.ndarray


def reachable_states(model: CompactModel) -> np.ndarray:
    """Boolean mask of states reachable from the initial distribution.

    Fixpoint of one-step successor expansion over the positive-entry
    transition graph -- an over-approximation of the support of the
    chain's distribution at *any* horizon.  Pure index arithmetic: a
    state outside this set has exactly zero probability at every step,
    which is what lets the screen certify ``p_hit == 0`` (and hence a
    failed viability screen) without trusting float32 rounding.

    The model's states are already the *live* ones (subsets of the
    installable rules), but live is not reachable: a rule installed
    only by zero-rate flows never arrives in the cache, and two rules
    with one-step timeouts never survive the same step (timers run on
    arrival steps too, the screen's model default).  Priority order
    alone never separates live rules (installing them in descending
    priority order always misses), so without those two cases the
    fixpoint returns every state; tests/core/test_live_states_diff.py
    shows all three.
    """
    rows, cols, _, _ = model._sorted_entries()
    reach = model.initial_distribution() > 0.0
    while True:
        successors = cols[reach[rows]]
        before = int(reach.sum())
        reach[successors] = True
        if int(reach.sum()) == before:
            return reach


def _transposed_csr_f32(
    rows: np.ndarray, cols: np.ndarray, probs: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # repro: noqa[STO001]
    """CSR pieces of the transposed matrix, in kernel dtypes.

    Mirrors ``CompactModel._assemble_csr`` (consecutive duplicate
    (row, col) runs summed left to right) but skips the float64 matrix
    cache, stochasticity validation, and buffer freezing the exact path
    performs -- the float32 product is consumed once, here.
    """
    boundary = np.empty(len(rows), dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(boundary)
    data = np.add.reduceat(probs, starts)
    indices = cols[starts].astype(np.int32, copy=False)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(
        np.bincount(rows[starts], minlength=n), out=indptr[1:], dtype=np.int32
    )
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    transposed = matrix.T.tocsr()
    pieces = (
        np.ascontiguousarray(transposed.indptr, dtype=np.int32),
        np.ascontiguousarray(transposed.indices, dtype=np.uint16),
        np.ascontiguousarray(transposed.data, dtype=np.float32),
    )
    if sanitize.is_active():
        for piece in pieces:
            piece.setflags(write=False)
        sanitize.guard_array("fastscreen.transposed.data", pieces[2])
    return pieces


def fast_quantities(
    model: CompactModel, target: int, window_steps: int
) -> Optional[FastQuantities]:
    """The float32 screen quantities, or ``None`` when not computable."""
    if model.n_states > cnative.MAX_STATES:
        return None
    rows, cols, probs, tags = model._sorted_entries()
    if len(rows) == 0:
        return None
    n = model.n_states
    full = _transposed_csr_f32(rows, cols, probs, n)
    keep = tags != target
    excluded = _transposed_csr_f32(rows[keep], cols[keep], probs[keep], n)
    x0 = model.initial_distribution().astype(np.float32)
    dist_full32, dist_absent32 = cnative.pair_chain_f32(
        *full, *excluded, x0, window_steps
    )
    dist_full = dist_full32.astype(np.float64)
    dist_absent = dist_absent32.astype(np.float64)

    n_flows = model.context.n_flows
    coverage = model.coverage_matrix(tuple(range(n_flows)))
    base_full = np.where(dist_full > PRUNE, dist_full, 0.0)
    base_absent = np.where(dist_absent > PRUNE, dist_absent, 0.0)
    hit_full = coverage @ base_full
    miss_full = base_full.sum() - hit_full
    hit_absent = coverage @ base_absent
    miss_absent = base_absent.sum() - hit_absent
    outcome_probs = np.stack([miss_full, hit_full])
    joint_absent = np.stack([miss_absent, hit_absent])
    prior_absent = float(dist_absent.sum())
    gains = gains_from_tables(prior_absent, joint_absent, outcome_probs)

    # OutcomeTable.posterior_absent: clamp the joint into [0, p], divide;
    # 0.5 when the outcome probability is not positive.
    with np.errstate(divide="ignore", invalid="ignore"):
        post_miss = np.clip(miss_absent, 0.0, miss_full) / miss_full
        post_hit = np.clip(hit_absent, 0.0, hit_full) / hit_full
    post_miss = np.where(miss_full > 0.0, post_miss, 0.5)
    post_hit = np.where(hit_full > 0.0, post_hit, 0.5)
    return FastQuantities(
        gains=gains,
        p_hit=hit_full,
        p_miss=miss_full,
        posterior_absent_given_miss=post_miss,
        posterior_present_given_hit=1.0 - post_hit,
    )


class _Certifier:
    """Per-candidate certification state (reachability is lazy)."""

    def __init__(
        self,
        model: CompactModel,
        quantities: FastQuantities,
        target: int,
        screen: bool,
        require_optimal_differs: bool,
    ) -> None:
        self.model = model
        self.quantities = quantities
        self.target = target
        self.screen = screen
        self.require_optimal_differs = require_optimal_differs
        self._reach: Optional[np.ndarray] = None
        self._coverage: Optional[np.ndarray] = None

    def _covered_unreachable(self, flow: int, complement: bool) -> bool:
        """Whether the flow's (un)covered states carry provably no mass."""
        if self._reach is None:
            self._reach = reachable_states(self.model)
        if self._coverage is None:
            n_flows = self.model.context.n_flows
            self._coverage = self.model.coverage_matrix(
                tuple(range(n_flows))
            )
        covered = self._coverage[flow] > 0.0
        if complement:
            covered = ~covered
        return not bool((covered & self._reach).any())

    def member_rejected(self, flow: int) -> bool:
        """Would ``flow``, as the exact optimal probe, provably be rejected?"""
        if self.require_optimal_differs and flow == self.target:
            return True
        if not self.screen:
            return False
        quantities = self.quantities
        p_hit = quantities.p_hit[flow]
        p_miss = quantities.p_miss[flow]
        if p_hit <= PROB_TOL:
            # Either exactly zero (the probe can never hit: the covered
            # states are unreachable, so the screen's ``p_hit > 0``
            # conjunct fails exactly) or merely tiny, where the
            # posterior is a ratio of two sub-float32-noise sums and
            # nothing is certifiable.
            # Exact sentinel: reachability certifies only a true zero.
            return p_hit == 0.0 and self._covered_unreachable(  # repro: noqa[PY001]
                flow, complement=False
            )
        if p_miss <= PROB_TOL:
            return p_miss == 0.0 and self._covered_unreachable(  # repro: noqa[PY001]
                flow, complement=True
            )
        margin_miss = 0.5 - quantities.posterior_absent_given_miss[flow]
        margin_hit = 0.5 - quantities.posterior_present_given_hit[flow]
        return bool(
            margin_miss > POST_TOL_NUMERATOR / p_miss
            or margin_hit > POST_TOL_NUMERATOR / p_hit
        )


def screen_candidate(
    params: ExperimentParams,
    config: NetworkConfiguration,
    *,
    require_optimal_differs: bool,
) -> FastScreenOutcome:
    """Run the certified pre-pass on one sampled configuration.

    ``certified_reject=True`` is a proof obligation: the exact serial
    loop would reject this candidate.  Any uncertainty returns
    ``certified_reject=False`` together with the built model so the
    exact screen can reuse it.
    """
    obs = get_instrumentation()
    model = CompactModel(
        config.policy,
        config.universe,
        config.delta,
        config.cache_size,
    )
    if not (params.screen or require_optimal_differs):
        return FastScreenOutcome(False, model)
    with obs.phase("harness.fast_screen"), obs.span(
        "harness.fast_screen", n_flows=len(config.universe)
    ):
        quantities = fast_quantities(
            model, config.target_flow, config.window_steps
        )
        if quantities is None:
            obs.metrics.counter("experiment.fastscreen_unsupported").inc()
            return FastScreenOutcome(False, model)
        # Every flow whose float32 gain is within GAIN_TOL (+ the
        # engine's tie epsilon, absorbed by GAIN_TOL's safety factor) of
        # the float32 maximum could be the exact optimal probe; the
        # rejection must hold for all of them.
        tie_set = np.flatnonzero(
            quantities.gains >= quantities.gains.max() - GAIN_TOL
        )
        certifier = _Certifier(
            model,
            quantities,
            config.target_flow,
            params.screen,
            require_optimal_differs,
        )
        certified = all(
            certifier.member_rejected(int(flow)) for flow in tie_set
        )
    if certified:
        obs.metrics.counter("experiment.fastscreen_rejects").inc()
        return FastScreenOutcome(True, model)
    obs.metrics.counter("experiment.fastscreen_fallbacks").inc()
    return FastScreenOutcome(False, model)
