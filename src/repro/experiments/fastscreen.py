"""Margin-certified float32 screening pre-pass.

The headline experiments are dominated by *rejected* candidates: the
fig6 pipeline samples ~940 configurations to accept 8, and every
rejection pays two ``window_steps``-long float64 transition chains plus
a full harness build just to learn that the paper's viability screen
(or the optimal-probe-differs restriction) says no.

This module decides most of those rejections from a float32 replica of
the screen.  Both chains (full and target-excluded) are powered together
by the native pair kernel (:func:`repro.core.cnative.pair_chain_f32`)
on one shared transposed pattern, with float32 storage and float64
sums.  The replica is certified by an error bound derived per candidate
(:func:`error_bounds`), not calibrated from samples:

* the float32 information gains, outcome probabilities, and posteriors
  mirror the exact screen's arithmetic -- the same pruning, the same
  :func:`~repro.core.inference.coverage_split` of the state rows (so an
  outcome side without mass is exactly 0.0 in both), the same
  :func:`~repro.core.gain.gains_from_tables`, the same clamping -- but
  from float32 chain outputs;
* a candidate is rejected *only* when every flow that could be the exact
  optimal probe (the gain tie-set, whose width follows from the gain
  bound) provably fails the screen -- each member's posterior sits
  further than the posterior bound below the paper's 0.5 cut, the
  member's outcome probability is *exactly* zero by graph reachability
  (no float64 chain can put mass on states the transition graph cannot
  reach, an integer argument immune to rounding), or the member is the
  target flow while the caller requires the optimal probe to differ;
* anything short of that -- thin margins, tiny outcome probabilities,
  a model without transitions -- falls back to the exact
  float64 screen, and *every accepted configuration* is re-confirmed
  exactly (the harness is built and its verdicts are the ones
  recorded), so accepted results are bit-identical to an exact-only
  screen.

Every candidate bumps one outcome counter per proof its tie-set used
(``experiment.fastscreen_proof_*``) or the one reason it fell back
(``experiment.fastscreen_fallback_*``); docs/OBSERVABILITY.md lists
them.  tests/experiments/test_fastscreen.py checks measured errors
against the derived bounds; the differential suite
(tests/experiments/test_oracle_diff.py) pins the full pipelines to an
exact-only run (``REPRO_NO_CKERNEL=1``) on the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.core import cnative
from repro.core.compact_model import CompactModel, run_starts
from repro.core.engine import TIE_EPS
from repro.core.gain import gains_from_tables
from repro.core.inference import PRUNE, coverage_split, pruned
from repro.experiments.params import ExperimentParams
from repro.flows.config import NetworkConfiguration
from repro.obs import Span, get_instrumentation, sanitize
from repro.obs.metrics import Counter, MetricsRegistry

#: Unit roundoff of float32 and of float64 (round to nearest).
U32 = 2.0 ** -24
U64 = 2.0 ** -53

#: Smallest positive float32.  Rounding a value into float32's
#: subnormal range errs by at most half of it, beyond the relative
#: ``U32``.
TINY32 = 2.0 ** -149

#: Bound on the float64 rounding of one information gain, exact and
#: replica evaluations together: each evaluates eight ``x log2(p/x)``
#: terms of at most 2 bits, each within a few ulps, and sums them.
GAIN_EVAL_SLACK = 256 * U64

#: The proofs that reject a tie-set member.  A certified reject bumps
#: the counter of every proof its tie-set used, so the counts overlap.
PROOFS = ("target", "unreachable", "margin")

#: Why a candidate went to the exact screen; every fallback bumps
#: exactly one counter.
FALLBACKS = ("thin_margin", "tiny_probability", "no_replica")

#: The counter of each proof and fallback reason (literal names, so the
#: catalogue test sees them; created on first use).
_OUTCOME_COUNTERS: Dict[str, Callable[[MetricsRegistry], Counter]] = {
    "target": lambda m: m.counter("experiment.fastscreen_proof_target"),
    "unreachable": lambda m: m.counter("experiment.fastscreen_proof_unreachable"),
    "margin": lambda m: m.counter("experiment.fastscreen_proof_margin"),
    "thin_margin": lambda m: m.counter("experiment.fastscreen_fallback_thin_margin"),
    "tiny_probability": lambda m: m.counter(
        "experiment.fastscreen_fallback_tiny_probability"
    ),
    "no_replica": lambda m: m.counter("experiment.fastscreen_fallback_no_replica"),
}


def entropy_modulus(h: float) -> float:
    """Modulus of continuity of ``eta(z) = -z log2 z`` on ``[0, 2]``.

    For ``s, t`` in ``[0, 2]`` with ``|s - t| <= h <= 1/8``,
    ``|eta(s) - eta(t)| <= h (log2(1/h) + 1)``.  On ``[0, 1]`` the
    classical bound ``eta(|s - t|)`` holds; on ``[1, 2]`` the slope is at
    most ``log2(e) + 1 < 3 <= log2(1/h)``; across 1 the two pieces add to
    at most ``eta(a) + eta(b) <= 2 eta(h/2)`` with ``a + b <= h``, which
    is the value returned.  Above ``1/8`` no bound is claimed (``inf``).
    """
    if h <= 0.0:
        return 0.0
    if h > 0.125:
        return math.inf
    return h * (1.0 - math.log2(h))


@dataclass(frozen=True)
class ErrorBounds:
    """Derived bounds on the replica's error against the exact screen."""

    #: ``||x_T - x^_T||_1`` for each float32 chain against its exact
    #: float64 chain.
    chain: float
    #: ``|replica - exact|`` for every probability the screen sums:
    #: outcome probabilities, joints, the prior.
    sums: float
    #: ``|replica - exact|`` for every information gain.
    gains: float

    @property
    def tie_width(self) -> float:
        """Gain gap below the replica maximum that may hold the exact optimum.

        The exact winner ``w`` has ``G(w) >= max G - TIE_EPS``; each
        side moves by at most ``gains``.
        """
        return 2.0 * self.gains + TIE_EPS

    def posterior(self, p: float) -> float:
        """Bound on a posterior's error at replica outcome probability ``p``.

        ``clip(J, 0, p) / p`` moves by at most ``(|dJ| + |dp|) / p^``
        at the exact ``p^ >= p - sums``; ``4 U64`` covers the float64
        division and subtractions.  Only meaningful for ``p > sums``.
        """
        return 2.0 * self.sums / (p - self.sums) + 4.0 * U64


def error_bounds(
    steps: int,
    n_states: int,
    max_in_degree: int,
    max_run: int,
    max_row_sum: float,
    mass: float = 1.0,
) -> ErrorBounds:
    """The replica's error bounds for one candidate.

    Notation: ``A`` is the exact path's float64 transposed operator
    (full or target-excluded), ``Ã`` the kernel's float32 copy, ``x^_t``
    the exact float64 chain and ``x_t`` the kernel's, both from ``x_0``
    of ℓ1 mass ``mass``.  ``k = max_in_degree`` bounds the entries in a
    row of ``A``, ``m = max_run`` the entries summed into one value,
    ``a = max(1, max_row_sum)`` bounds ``||A||_1`` (the excluded matrix
    is entrywise below the full one), ``u = U32``, ``v = U64``,
    ``n = n_states``; all entries are nonnegative.

    1. ``|Ã - A| <= (u + 2 m v) A`` entrywise: the replica's float64
       run sums and the exact path's each err by at most ``(m - 1) v``
       relative, in whatever order, then the replica rounds to float32.
    2. A kernel step multiplies float32 values exactly in float64, adds
       at most ``k`` terms in float64 and rounds the sum to float32:
       ``|x_{t+1} - Ã x_t| <= (u + k v) Ã x_t``.
    3. An exact step rounds each product and each add in float64:
       ``|x^_{t+1} - A x^_t| <= (k + 1) v A x^_t``.
    4. So ``e_t = x_t - x^_t`` obeys ``||e_{t+1}||_1 <= a ||e_t||_1 +
       c g M`` with ``c = 2u + u^2 + (2k + 2m + 1) v``, where
       ``g = (1 + u + 2 m v)(1 + u + k v) a`` is the per-step growth of
       every chain and ``M = g^T (1 + u) mass`` bounds their masses.
       Unrolled from ``||e_0||_1 <= u mass``:
       ``chain = a^T (u mass + T c g M)``, about ``T (2u + k v)
       (1 + u)^T`` for a stochastic model; 1.8e-4 at ``T = 1500``,
       ``k = 146``.
    5. Pruning at ``PRUNE`` moves a state's weight by at most ``PRUNE``
       more, and each float64 sum over ``n`` states rounds by at most
       ``(n + 2) v M`` per path: every probability the screen sums is
       off by at most ``sums = chain + n PRUNE + 2 (n + 2) v M``.
    6. A gain is ``H(prior) - sum_q [eta(J_q) + eta(p_q - J_q) -
       eta(p_q)]`` over the two outcomes, clipped at 0 (1-Lipschitz),
       with ``J_q`` clipped into ``[0, p_q]`` (which moves it by at most
       ``sums``).  The arguments move by ``sums`` (both prior terms,
       ``J_q``, ``p_q``) or ``2 sums`` (``p_q - J_q``), so with
       :func:`entropy_modulus` ``w``:
       ``gains = 6 w(sums) + 2 w(2 sums) + GAIN_EVAL_SLACK``.

    Values rounded into float32's subnormal range err by up to
    ``TINY32 / 2`` beyond the relative bounds; those terms, at most
    ``2 n TINY32`` per step, are added to ``c g M``.
    """
    u, v, k = U32, U64, max_in_degree
    a = max(1.0, max_row_sum)
    g = (1.0 + u + 2 * max_run * v) * (1.0 + u + k * v) * a
    tiny = n_states * TINY32
    masses = g ** steps * ((1.0 + u) * mass + (steps + 1) * tiny)
    c = 2.0 * u + u * u + (2 * k + 2 * max_run + 1) * v
    per_step = c * g * masses + 2.0 * tiny * max(masses, 1.0)
    chain = a ** steps * (u * mass + tiny + steps * per_step)
    sums = chain + n_states * PRUNE + 2.0 * (n_states + 2) * v * masses
    if masses > 2.0:
        gains = math.inf  # outside entropy_modulus's domain
    else:
        gains = (
            6.0 * entropy_modulus(sums)
            + 2.0 * entropy_modulus(2.0 * sums)
            + GAIN_EVAL_SLACK
        )
    return ErrorBounds(chain=chain, sums=sums, gains=gains)


def supports(params: ExperimentParams) -> bool:
    """Whether the certified screen applies under ``params``.

    The replica covers the default single-probe selection -- the
    configuration every headline pipeline runs.  Multi-probe selection
    screens exactly, as does any machine where the native kernel is
    unavailable (or disabled with ``REPRO_NO_CKERNEL=1``): the pair
    layout and the pair chain are built and run by the kernel alone.
    """
    return params.n_probes == 1 and cnative.available()


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
    #: How far each quantity may sit from the exact screen's.
    bounds: ErrorBounds


def reachable_states(model: CompactModel) -> np.ndarray:
    """Boolean mask of states reachable from the initial distribution.

    Closure of one-step successor expansion over the positive-entry
    transition graph -- an over-approximation of the support of the
    chain's distribution at *any* horizon.  Pure index arithmetic: a
    state outside this set has exactly zero probability at every step,
    which is what lets the screen certify ``p_hit == 0`` (and hence a
    failed viability screen) without trusting float32 rounding.  A
    frontier search over the run-merged ``(row, col)`` pattern visits
    each edge once.

    The model's states are already the *live* ones (subsets of the
    installable rules), but live is not reachable: a rule installed
    only by zero-rate flows never arrives in the cache, and two rules
    with one-step timeouts never survive the same step (timers run on
    arrival steps too, the screen's model default).  Priority order
    alone never separates live rules (installing them in descending
    priority order always misses), so without those two cases the
    search returns every state; tests/core/test_live_states_diff.py
    shows all three.
    """
    rows, cols, _, _ = model._sorted_entries()
    reach = model.initial_distribution() > 0.0
    if len(rows) == 0:
        return reach
    starts = run_starts(rows, cols)
    successors = cols[starts]
    indptr = np.searchsorted(rows[starts], np.arange(model.n_states + 1))
    frontier = np.flatnonzero(reach)
    while frontier.size:
        first, last = indptr[frontier], indptr[frontier + 1]
        counts = last - first
        # Each frontier row's successor slice, gathered in one index.
        offsets = np.repeat(first - (np.cumsum(counts) - counts), counts)
        found = successors[np.arange(counts.sum()) + offsets]
        frontier = np.unique(found[~reach[found]])
        reach[frontier] = True
    return reach


def pair_layout(
    model: CompactModel, target: int
) -> Tuple[cnative.PairSell8, int, float]:
    """The kernel layout of both chains, with two inputs to their bound.

    Builds the transposed pattern straight from the model's sorted
    entries with :func:`repro.core.cnative.entry_pair_layout` (the
    screen runs only where the kernel loads; :func:`supports`).  Each
    duplicate ``(row, col)`` run collapses as ``np.add.reduceat`` sums
    it: over every entry for the full value (the exact path's own call,
    so the same value bit for bit), and with the target's entries zeroed
    for the excluded value, which is 0 where the whole run is the
    target's.

    Also returns the longest run, which bounds how far the excluded
    values' float64 summation order can move them from the exact path's
    (it sums the kept entries alone), and the largest row sum of the
    full matrix, nudged up by its own float64 rounding, which bounds the
    ℓ1 norm of both transposed operators.
    """
    n = model.n_states
    layout, max_run, row_sum = cnative.entry_pair_layout(
        *model._sorted_entries(), target, n
    )
    if sanitize.is_active():
        for piece in (layout.ptr, layout.cols, layout.vals, layout.perm):
            piece.setflags(write=False)
        sanitize.guard_array("fastscreen.pair_layout.vals", layout.vals)
    return layout, max_run, row_sum * (1.0 + n * U64)


def fast_quantities(
    model: CompactModel, target: int, window_steps: int
) -> Optional[FastQuantities]:
    """The float32 screen quantities, or ``None`` when not computable.

    The layout and the chain run under ``screen.pair_layout`` and
    ``screen.pair_chain`` spans.
    """
    if len(model._sorted_entries()[0]) == 0:
        return None
    obs = get_instrumentation()
    with obs.span("screen.pair_layout"):
        layout, max_run, row_sum = pair_layout(model, target)
    x0 = model.initial_distribution()
    with obs.span(
        "screen.pair_chain",
        steps=window_steps,
        states=model.n_states,
        simd=cnative.simd_level(),
    ):
        dist_full32, dist_absent32 = cnative.pair_chain_f32(
            layout, x0, window_steps
        )
    dist_full = dist_full32.astype(np.float64)
    dist_absent = dist_absent32.astype(np.float64)
    bounds = error_bounds(
        window_steps,
        model.n_states,
        layout.max_row_length,
        max_run,
        row_sum,
        float(np.abs(x0).sum()),
    )

    n_flows = model.context.n_flows
    coverage = model.coverage_matrix(tuple(range(n_flows)))
    # The exact screen's split: ReconInference.outcome_arrays on the
    # pruned chain rows.
    miss, hit = coverage_split(
        np.stack([pruned(dist_full), pruned(dist_absent)]), coverage
    )
    miss_full, miss_absent = miss
    hit_full, hit_absent = hit
    outcome_probs = np.stack([miss_full, hit_full])
    joint_absent = np.stack([miss_absent, hit_absent])
    # The exact prior is at most 1 (binary_entropy clamps it there), so
    # clamping the replica's only shrinks its error.
    prior_absent = min(float(dist_absent.sum()), 1.0)
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
        bounds=bounds,
    )


class _Certifier:
    """Per-candidate certification state (reachability is lazy)."""

    def __init__(
        self,
        model: CompactModel,
        quantities: FastQuantities,
        target: int,
        require_optimal_differs: bool,
    ) -> None:
        self.model = model
        self.quantities = quantities
        self.target = target
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

    def verdict(self, flow: int) -> str:
        """Why ``flow``, as the exact optimal probe, is provably rejected.

        One of :data:`PROOFS`, or the :data:`FALLBACKS` reason no proof
        holds.
        """
        if self.require_optimal_differs and flow == self.target:
            return "target"
        quantities = self.quantities
        bounds = quantities.bounds
        p_hit = quantities.p_hit[flow]
        p_miss = quantities.p_miss[flow]
        for p, complement in ((p_hit, False), (p_miss, True)):
            if p <= bounds.sums:
                # Either exactly zero (the probe can never hit, or never
                # miss: those states are unreachable, so the screen's
                # ``p > 0`` conjunct fails exactly) or merely tiny, where
                # the posterior is a ratio of two sums within the bound
                # of zero and nothing is certifiable.
                # Exact sentinel: reachability certifies only a true zero.
                if p == 0.0 and self._covered_unreachable(  # repro: noqa[PY001]
                    flow, complement
                ):
                    return "unreachable"
                return "tiny_probability"
        margin_miss = 0.5 - quantities.posterior_absent_given_miss[flow]
        margin_hit = 0.5 - quantities.posterior_present_given_hit[flow]
        if margin_miss > bounds.posterior(p_miss) or margin_hit > bounds.posterior(
            p_hit
        ):
            return "margin"
        return "thin_margin"


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
    exact screen can reuse it.  The verdict depends on ``config`` alone:
    the viability screen always applies, so ``params`` only keeps the
    signature every screening caller uses.
    """
    obs = get_instrumentation()
    model = CompactModel(
        config.policy,
        config.universe,
        config.delta,
        config.cache_size,
    )
    with obs.span(
        "harness.fast_screen", n_flows=len(config.universe)
    ) as span:
        quantities = fast_quantities(
            model, config.target_flow, config.window_steps
        )
        if quantities is None:
            return _fallback(span, model, "no_replica")
        # Every flow whose float32 gain is within the tie width of the
        # float32 maximum could be the exact optimal probe; the
        # rejection must hold for all of them.
        tie_set = np.flatnonzero(
            quantities.gains
            >= quantities.gains.max() - quantities.bounds.tie_width
        )
        certifier = _Certifier(
            model,
            quantities,
            config.target_flow,
            require_optimal_differs,
        )
        proofs: Set[str] = set()
        for flow in tie_set:
            verdict = certifier.verdict(int(flow))
            if verdict not in PROOFS:
                return _fallback(span, model, verdict)
            proofs.add(verdict)
        span.set_attr("verdict", "+".join(sorted(proofs)))
    for proof in sorted(proofs):
        _OUTCOME_COUNTERS[proof](obs.metrics).inc()
    obs.metrics.counter("experiment.fastscreen_rejects").inc()
    return FastScreenOutcome(True, model)


def _fallback(span: Span, model: CompactModel, reason: str) -> FastScreenOutcome:
    """Hand the candidate to the exact screen, counting and tracing why."""
    span.set_attr("verdict", reason)
    metrics = get_instrumentation().metrics
    _OUTCOME_COUNTERS[reason](metrics).inc()
    metrics.counter("experiment.fastscreen_fallbacks").inc()
    return FastScreenOutcome(False, model)
