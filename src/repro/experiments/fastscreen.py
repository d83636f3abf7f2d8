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

* the replica calls the exact screen's function
  (:func:`~repro.experiments.screening.screen`) on the pruned float32
  chain rows over all flows, so its outcome probabilities and
  posteriors are computed as the exact ones are (an outcome side
  without mass is exactly 0.0 in both);
* a candidate is rejected *only* when every flow provably fails the
  screen, so the exact optimal probe does too, whichever flow it is:
  the flow's posterior sits further than the posterior bound below the
  paper's 0.5 cut, its outcome probability is *exactly* zero by graph
  reachability (no float64 chain can put mass on states the transition
  graph cannot reach, an integer argument immune to rounding), or it is
  the target flow while the caller requires the optimal probe to
  differ;
* anything short of that -- thin margins, tiny outcome probabilities,
  a model without transitions -- falls back to the exact
  float64 screen, and *every accepted configuration* is re-confirmed
  exactly (the harness is built and its verdicts are the ones
  recorded), so accepted results are bit-identical to an exact-only
  screen.

The chain runs in chunks of ``ceil(T / CHECKPOINTS)`` steps.  At each
checkpoint ``t < T`` the replica estimates both chains at ``T`` from
step ``t`` -- the full chain as it stands, the excluded one scaled by
its measured per-step mass decay -- and extends the bound by a derived
truncation term (:func:`checkpoint_bounds`, measured on the replica's
own vectors).  The chain stops at the first checkpoint where every
flow has a proof under that bound; otherwise it runs to ``T`` and the
candidate is decided exactly as a single full-length run decides it.
A stop only ever certifies a reject, so it never turns a reject into
a fallback.

Every candidate bumps one outcome counter per proof its flows used
(``experiment.fastscreen_proof_*``) or the one reason it fell back
(``experiment.fastscreen_fallback_*``); docs/OBSERVABILITY.md lists
them.  tests/experiments/test_fastscreen.py checks measured errors
against the derived bounds; the differential suite
(tests/experiments/test_oracle_diff.py) pins the full pipelines to an
exact-only run (``REPRO_NO_CKERNEL=1``) on the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import cnative
from repro.core.compact_model import CompactModel, run_starts
from repro.core.inference import PRUNE, pruned
from repro.experiments.params import ExperimentParams
from repro.experiments.screening import Screen, screen
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

#: How often the pair chain tries the certificate: every
#: ``ceil(T / CHECKPOINTS)`` steps, so every 100 at the headline's
#: ``T = 1500``.  Checks cost a screen of every flow each; checking four
#: times as often made the screen slower, not faster.
CHECKPOINTS = 15

#: The proofs that reject a flow.  A certified reject bumps the counter
#: of every proof its flows used, so the counts overlap.
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


@dataclass(frozen=True)
class ErrorBounds:
    """Derived bounds on the replica's error against the exact screen."""

    #: ``||x_T - x^_T||_1`` for each float32 chain against its exact
    #: float64 chain.
    chain: float
    #: ``|replica - exact|`` for every probability the screen sums:
    #: outcome probabilities, joints, the prior.
    sums: float

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
    6. Stopping at step ``t < T`` (:func:`checkpoint_bounds`), with
       ``L = T - t``, the replica estimates ``x^_T`` by ``y_t = ρ^L
       x_t`` for a rate ``0 <= ρ <= 1``: 1 for the full chain, whose
       mass stays put, and ``||x_{t+1}||_1 / ||x_t||_1`` (at most 1)
       for the excluded one, whose mass decays.  Split
       ``y_t - x^_T = (ρ^L x_t - A^L x_t) + A^L (x_t - x^_t) +
       (A^L x^_t - x^_T)``.  The last two are at most ``a^L e_t``, with
       ``e_t`` step 4's chain bound at ``t``, and ``L (k + 1) v a^T M``
       by step 3.  With ``r = A x_t - ρ x_t`` the first telescopes to
       ``Σ_{j<L} ρ^j A^{L-1-j} r``, at most ``a^L G ||r||_1`` with
       ``G = min(L, 1 / (1 - ρ))``.  The residual is measured on the
       replica's own vectors against the exact operator:
       ``||r||_1 <= ||x_{t+1} - ρ x_t||_1 + ||x_{t+1} - A x_t||_1``,
       and by steps 1 and 2 the last is at most ``((u + 2 m v) +
       (u + k v)(1 + u + 2 m v)) a M`` plus the subnormal terms.
       Measuring ``||x_{t+1} - ρ x_t||_1`` in float64 errs by at most
       ``4 (n + 2) v M``, and scaling ``x_t`` by a float64 ``ρ^L`` by
       at most ``3 L v M``.  Step 5 then applies unchanged, with ``M``
       at ``T``.  At ``t = T`` every added term is zero: the bound is
       steps 1-5's, bit for bit.

    Values rounded into float32's subnormal range err by up to
    ``TINY32 / 2`` beyond the relative bounds; those terms, at most
    ``2 n TINY32`` per step, are added to ``c g M`` (and to step 6's
    one-step error).
    """
    a = max(1.0, max_row_sum)
    chain, masses = _chain_bound(
        steps, n_states, max_in_degree, max_run, a, mass
    )
    return _with_sums(chain, n_states, masses)


def checkpoint_bounds(
    at: int,
    steps: int,
    n_states: int,
    max_in_degree: int,
    max_run: int,
    max_row_sum: float,
    mass: float,
    drifts: Sequence[Tuple[float, float]],
) -> ErrorBounds:
    """The bounds on estimating step ``steps`` from checkpoint ``at``.

    Step 6 of :func:`error_bounds`.  ``drifts`` holds one ``(residual,
    rate)`` pair per chain: the measured ``||x_{at+1} - ρ x_at||_1`` and
    the ``ρ`` in ``[0, 1]`` its estimate scales by.  The chain bound is
    the largest over the chains; at ``at == steps`` it is
    :func:`error_bounds`' bit for bit.
    """
    u, v, k, n = U32, U64, max_in_degree, n_states
    a = max(1.0, max_row_sum)
    lag = steps - at
    so_far, _ = _chain_bound(at, n, k, max_run, a, mass)
    _, masses = _chain_bound(steps, n, k, max_run, a, mass)
    one_step = u + 2 * max_run * v + (u + k * v) * (1.0 + u + 2 * max_run * v)
    # What measuring the residual misses: the replica's own step against
    # the exact operator, and the float64 rounding of the measurement.
    unmeasured = (
        one_step * a * masses
        + 2.0 * n * TINY32 * max(masses, 1.0)
        + 4.0 * (n + 2) * v * masses
    )
    exact_steps = lag * (k + 1) * v * a ** steps * masses
    scaling = 3.0 * lag * v * masses

    def truncation(residual: float, rate: float) -> float:
        terms = lag if rate >= 1.0 else min(lag, 1.0 / (1.0 - rate))
        return a ** lag * terms * (residual + unmeasured)

    chain = max(
        a ** lag * so_far + truncation(residual, rate) + exact_steps + scaling
        for residual, rate in drifts
    )
    return _with_sums(chain, n, masses)


def _chain_bound(
    steps: int, n_states: int, k: int, max_run: int, a: float, mass: float
) -> Tuple[float, float]:
    """Step 4's chain bound at ``steps``, and the mass bound ``M``."""
    u, v = U32, U64
    g = (1.0 + u + 2 * max_run * v) * (1.0 + u + k * v) * a
    tiny = n_states * TINY32
    masses = g ** steps * ((1.0 + u) * mass + (steps + 1) * tiny)
    c = 2.0 * u + u * u + (2 * k + 2 * max_run + 1) * v
    per_step = c * g * masses + 2.0 * tiny * max(masses, 1.0)
    chain = a ** steps * (u * mass + tiny + steps * per_step)
    return chain, masses


def _with_sums(chain: float, n_states: int, masses: float) -> ErrorBounds:
    """Step 5: the bound on every probability the screen sums."""
    sums = chain + n_states * PRUNE + 2.0 * (n_states + 2) * U64 * masses
    return ErrorBounds(chain=chain, sums=sums)


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

    #: The screen of every flow on the replica rows.
    screen: Screen
    #: How far each quantity may sit from the exact screen's.
    bounds: ErrorBounds
    #: Every flow's coverage row, as the screen split the chains by.
    coverage: np.ndarray


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
    model: CompactModel,
    target: int,
    window_steps: int,
    certified: Callable[[FastQuantities], bool],
) -> Optional[FastQuantities]:
    """The float32 screen quantities, or ``None`` when not computable.

    The pair chain runs in chunks.  At each checkpoint before
    ``window_steps`` the replica estimates both chains at
    ``window_steps`` (step 6 of :func:`error_bounds`) and stops as soon
    as ``certified`` accepts the quantities; otherwise it runs to
    ``window_steps`` and returns the quantities there, where ``certified``
    is not consulted.

    The layout and the chain, checkpoints included, run under
    ``screen.pair_layout`` and ``screen.pair_chain`` spans; the chain's
    records ``stopped_at``, the steps it ran.
    """
    if len(model._sorted_entries()[0]) == 0:
        return None
    obs = get_instrumentation()
    with obs.span("screen.pair_layout"):
        layout, max_run, row_sum = pair_layout(model, target)
    x0 = model.initial_distribution()
    inputs = (
        model.n_states,
        layout.max_row_length,
        max_run,
        row_sum,
        float(np.abs(x0).sum()),
    )
    coverage = model.coverage_matrix(range(model.context.n_flows))
    with obs.span(
        "screen.pair_chain",
        steps=window_steps,
        states=model.n_states,
        simd=cnative.simd_level(),
    ) as span:
        chain = cnative.PairChain(layout, x0)
        for at in (*_checkpoints(window_steps), window_steps):
            cnative.pair_chain_f32(chain, at - chain.steps)
            quantities = _replica(*_estimate(chain, window_steps, inputs), coverage)
            if at < window_steps and certified(quantities):
                break
        span.set_attr("stopped_at", chain.steps)
    return quantities


def _checkpoints(steps: int) -> range:
    """The steps before ``steps`` at which the chain tries the certificate."""
    stride = max(1, -(-steps // CHECKPOINTS))
    return range(stride, steps, stride)


def _estimate(
    chain: cnative.PairChain, steps: int, inputs: Tuple[int, int, int, float, float]
) -> Tuple[np.ndarray, np.ndarray, ErrorBounds]:
    """Both chains' estimates at ``steps`` from ``chain``'s step, and their bounds.

    ``inputs`` are :func:`error_bounds`' arguments after ``steps``.  At
    ``steps`` the estimates are the chains themselves, bounded by
    :func:`error_bounds`.  Before it, the chain runs one more step to
    measure each chain's drift (step 6); the ℓ1 norms are taken in the
    kernel's sorted row order, as they do not depend on it.
    """
    at = chain.steps
    now = chain.chains.astype(np.float64, order="C")
    if at == steps:
        return (*chain.unsorted(now), error_bounds(steps, *inputs))
    cnative.pair_chain_f32(chain, 1)
    ahead = chain.chains.astype(np.float64, order="C")
    mass = np.abs(now[1]).sum()
    rate = min(1.0, np.abs(ahead[1]).sum() / mass) if mass > 0.0 else 0.0
    rates = np.array([[1.0], [rate]])
    residuals = np.abs(ahead - now * rates).sum(axis=1)
    bounds = checkpoint_bounds(
        at, steps, *inputs, tuple(zip(residuals.tolist(), rates[:, 0].tolist()))
    )
    return (*chain.unsorted(now * rates ** (steps - at)), bounds)


def _replica(
    full: np.ndarray, absent: np.ndarray, bounds: ErrorBounds, coverage: np.ndarray
) -> FastQuantities:
    """The screen of every flow on the replica's estimates of both chains."""
    replica = screen(pruned(full)[np.newaxis], pruned(absent)[np.newaxis], coverage)
    return FastQuantities(screen=replica, bounds=bounds, coverage=coverage)


class _Certifier:
    """Per-candidate certification state (reachability is lazy).

    One certifier serves every checkpoint of a candidate's chain, so
    reachability runs at most once.
    """

    def __init__(
        self,
        model: CompactModel,
        quantities: Optional[FastQuantities],
        target: int,
        require_optimal_differs: bool,
    ) -> None:
        self.model = model
        self.quantities = quantities
        self.target = target
        self.require_optimal_differs = require_optimal_differs
        self._reach: Optional[np.ndarray] = None

    def certifies(self, quantities: FastQuantities) -> bool:
        """Whether every flow has a proof on ``quantities``, now its own."""
        self.quantities = quantities
        return all(
            self.verdict(flow) in PROOFS for flow in range(len(quantities.coverage))
        )

    def _covered_unreachable(self, flow: int, complement: bool) -> bool:
        """Whether the flow's (un)covered states carry provably no mass."""
        if self._reach is None:
            self._reach = reachable_states(self.model)
        covered = self.quantities.coverage[flow] > 0.0
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
        replica = self.quantities.screen
        bounds = self.quantities.bounds
        p_hit = replica.p_hit[flow]
        p_miss = replica.p_miss[flow]
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
        margin_miss = 0.5 - replica.posterior_absent_given_miss[flow]
        margin_hit = 0.5 - replica.posterior_present_given_hit[flow]
        if margin_miss > bounds.posterior(p_miss) or margin_hit > bounds.posterior(
            p_hit
        ):
            return "margin"
        return "thin_margin"


def screen_candidate(
    config: NetworkConfiguration,
    *,
    require_optimal_differs: bool,
) -> FastScreenOutcome:
    """Run the certified pre-pass on one sampled configuration.

    ``certified_reject=True`` is a proof obligation: the exact serial
    loop would reject this candidate.  Any uncertainty returns
    ``certified_reject=False`` together with the built model so the
    exact screen can reuse it.  The verdict depends on ``config`` alone:
    the viability screen always applies.
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
        # Any flow could be the exact optimal probe; the rejection must
        # hold for all of them, at a checkpoint or at the window's end.
        certifier = _Certifier(
            model, None, config.target_flow, require_optimal_differs
        )
        quantities = fast_quantities(
            model, config.target_flow, config.window_steps, certifier.certifies
        )
        if quantities is None:
            return _fallback(span, model, "no_replica")
        certifier.quantities = quantities
        proofs: Set[str] = set()
        for flow in range(len(config.universe)):
            verdict = certifier.verdict(flow)
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
