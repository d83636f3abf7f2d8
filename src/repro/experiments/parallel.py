"""Deterministic process-parallel experiment execution.

The figure pipelines aggregate hundreds of independent Monte Carlo
trials over dozens of sampled configurations; this module fans both
levels out across a fork pool while keeping every number **bit-identical
to the serial loops**:

* **trial-level** (:func:`plan_trials` + :func:`run_planned_trials`) --
  the per-trial randomness is pre-drawn in the parent from the harness
  generator in exactly the serial order (one seed integer, then one
  verdict per probeless attacker in lineup order), so the generator
  stream is untouched by the fan-out.  Workers replay the pre-drawn
  verdicts through :class:`_ScriptedAttacker` stand-ins and results are
  merged back in trial order.
* **config-level** (:func:`screen_accepted_configs`) -- the
  rejection-sampling screening loop samples candidate configurations in
  speculative batches, screens them across the pool, accepts in attempt
  order, and rewinds the generator's bit-generator state to just after
  the last *consumed* sample -- callers observe exactly the serial
  acceptance sequence and leave the generator exactly where the serial
  loop would have left it.

Both levels map through :class:`repro.parallel.ForkPool`: the trial
context or screening parameters reach the workers through fork (never
pickled), worker counters are merged into the parent (sums commute, so
totals match serial), and a pool failure -- including a worker killed
mid-map -- re-runs the map serially in the parent.  Trials and screens
are pure functions of their pre-drawn inputs, so the re-run reproduces
the identical results.  Fallbacks are counted in
:class:`ExecutionStats` and the ``experiment.pool.fallbacks`` metric.

See EXPERIMENTS.md ("Parallel execution") for the determinism contract
and the seed-stream layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attacker import Attacker
from repro.experiments.params import ExperimentParams
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.obs import get_instrumentation
from repro.parallel import ForkPool
from repro.simulator.timing import LatencyModel

#: Candidate configurations sampled per speculative screening batch,
#: as a multiple of the worker count.
SCREEN_BATCH_PER_WORKER = 2


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
@dataclass
class ExecutionStats:
    """Counters and stage timings for one parallel experiment run.

    The experiment-layer sibling of
    :class:`~repro.core.engine.ScoringStats`: one instance threads
    through ``sample_screened_harnesses`` and ``run_trials`` calls and
    accumulates what the fan-out actually did.
    """

    #: Parallelism the run was configured with.
    n_jobs: int = 1
    #: Trials executed through :func:`run_planned_trials`.
    trials: int = 0
    #: Trial chunks dispatched to the pool.
    trial_chunks: int = 0
    #: Screening attempts consumed (accepted + rejected samples).
    screen_attempts: int = 0
    #: Speculative screening batches dispatched.
    screen_batches: int = 0
    #: Harnesses built in the parent from accepted configurations.
    harness_builds: int = 0
    #: Pool dispatches re-run serially after a fork-pool failure.
    pool_fallbacks: int = 0
    #: Wall-clock seconds per stage (``trials``, ``screen``).
    wall_times: Dict[str, float] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for a named stage."""
        self.wall_times[stage] = self.wall_times.get(stage, 0.0) + seconds

    def rows(self) -> List[List[object]]:
        """``[name, value]`` rows for plain-text tables (CLI output)."""
        rows: List[List[object]] = [
            ["n_jobs", self.n_jobs],
            ["trials", self.trials],
            ["trial chunks", self.trial_chunks],
            ["screen attempts", self.screen_attempts],
            ["screen batches", self.screen_batches],
            ["harness builds", self.harness_builds],
            ["pool fallbacks", self.pool_fallbacks],
        ]
        for stage in sorted(self.wall_times):
            rows.append([f"{stage} time (s)", f"{self.wall_times[stage]:.6f}"])
        return rows


# ----------------------------------------------------------------------
# Trial-level fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialPlan:
    """Pre-drawn randomness for one trial.

    ``verdicts`` carries the scripted decision of every probeless
    attacker (``(name, verdict)`` in lineup order): those attackers may
    draw from the harness generator inside the trial, so their draws are
    made in the parent -- interleaved with the seed draws exactly as the
    serial loop interleaves them -- and replayed in the worker.
    """

    index: int
    seed: int
    verdicts: Tuple[Tuple[str, int], ...]


class _ScriptedAttacker(Attacker):
    """Replays a verdict pre-drawn by :func:`plan_trials` in the parent."""

    def __init__(self, name: str, verdict: int) -> None:
        self.name = name
        self._verdict = int(verdict)

    def plan(self) -> Tuple[int, ...]:
        return ()

    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        if outcomes:
            raise ValueError("scripted attacker sends no probes")
        return self._verdict


def plan_trials(
    rng: np.random.Generator,
    lineup: Sequence[Attacker],
    n_trials: int,
) -> List[TrialPlan]:
    """Pre-draw the randomness of ``n_trials`` trials from ``rng``.

    Consumes the generator stream exactly as the serial trial loop
    does: for each trial, one seed integer, then one ``decide(())``
    call per probeless attacker in lineup order (probing attackers
    never draw from the shared generator at trial time).  After this
    call the generator state equals the post-loop serial state, so
    later draws -- e.g. the next harness's trials -- are unaffected.
    """
    probeless = [attacker for attacker in lineup if not attacker.plan()]
    plans: List[TrialPlan] = []
    for index in range(int(n_trials)):
        seed = int(rng.integers(2**63 - 1))
        verdicts = tuple(
            (attacker.name, int(attacker.decide(())))
            for attacker in probeless
        )
        plans.append(TrialPlan(index=index, seed=seed, verdicts=verdicts))
    return plans


@dataclass
class TrialContext:
    """Everything but the plan that one trial needs (fork-inherited)."""

    config: NetworkConfiguration
    lineup: Tuple[Attacker, ...]
    mode: str
    latency: Optional[LatencyModel]
    defense_factory: Optional[DefenseFactory]
    fault_plan: Optional[FaultPlan]
    probe_retries: int


def _scripted_lineup(
    lineup: Tuple[Attacker, ...], plan: TrialPlan
) -> Tuple[Attacker, ...]:
    verdicts = dict(plan.verdicts)
    return tuple(
        _ScriptedAttacker(attacker.name, verdicts[attacker.name])
        if attacker.name in verdicts
        else attacker
        for attacker in lineup
    )


def run_planned_trial(context: TrialContext, plan: TrialPlan) -> TrialResult:
    """One trial from its pre-drawn plan (worker and serial path)."""
    return run_trial(
        context.config,
        _scripted_lineup(context.lineup, plan),
        plan.seed,
        mode=context.mode,
        latency=context.latency,
        defense_factory=context.defense_factory,
        fault_plan=context.fault_plan,
        probe_retries=context.probe_retries,
    )


def run_planned_trials(
    config: NetworkConfiguration,
    lineup: Sequence[Attacker],
    plans: Sequence[TrialPlan],
    *,
    n_jobs: int,
    mode: str = "network",
    latency: Optional[LatencyModel] = None,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
    execution: Optional[ExecutionStats] = None,
) -> List[TrialResult]:
    """Run pre-planned trials across a fork pool, in trial order.

    Every trial is a pure function of its :class:`TrialPlan` (the
    scripted verdicts remove the only in-trial draw from the shared
    generator), so the returned ``TrialResult`` list is bit-identical
    to running the serial loop over the same plans.  If the pool dies
    -- fork failure, worker crash, an exception escaping the map -- the
    whole batch is re-run serially in the parent and counted in
    ``execution.pool_fallbacks`` / ``experiment.pool.fallbacks``.
    """
    context = TrialContext(
        config=config,
        lineup=tuple(lineup),
        mode=mode,
        latency=latency,
        defense_factory=defense_factory,
        fault_plan=fault_plan,
        probe_retries=int(probe_retries),
    )
    started = time.perf_counter()
    with ForkPool(n_jobs, context, name="experiment") as pool:
        results = pool.map(run_planned_trial, plans)
    if execution is not None:
        execution.trials += len(results)
        execution.trial_chunks += pool.chunks
        execution.pool_fallbacks += pool.fallbacks
        execution.add_time("trials", time.perf_counter() - started)
    return results


# ----------------------------------------------------------------------
# Config-level fan-out (screened rejection sampling)
# ----------------------------------------------------------------------
def screening_verdicts(
    params: ExperimentParams,
    config: NetworkConfiguration,
    require_optimal_differs: bool = False,
) -> Tuple[bool, bool]:
    """``(screened_in, optimal_differs)`` for one candidate configuration.

    Builds the harness with a throwaway seeded generator -- screening
    never draws from the harness generator.  Inside a screening worker
    the harness's probe selection runs serially whatever
    ``params.selection_n_jobs`` says (a :class:`~repro.parallel.ForkPool`
    worker never forks), and the engine's gains are bit-identical for
    every ``n_jobs`` anyway.

    When the certified float32 fast screen applies
    (repro.experiments.fastscreen) and proves the candidate rejected,
    the exact harness is skipped and the verdict reports the rejection
    through whichever of the two checks is active (``(False, True)``
    under ``params.screen``, else ``(True, False)``).  The acceptance
    loop takes exactly one rejection branch either way, so accepted
    configurations, counters, and the generator stream are identical;
    only the unevaluated tuple component is conventional.
    """
    from repro.experiments import fastscreen
    from repro.experiments.harness import ConfigHarness

    model = None
    if fastscreen.supports(params):
        outcome = fastscreen.screen_candidate(
            params, config, require_optimal_differs=require_optimal_differs
        )
        if outcome.certified_reject:
            return (False, True) if params.screen else (True, False)
        model = outcome.model
    harness = ConfigHarness(
        config, params, rng=np.random.default_rng(0), model=model
    )
    return harness.is_screened_in(), harness.optimal_differs_from_target()


def _screen(
    shared: Tuple[ExperimentParams, bool], config: NetworkConfiguration
) -> Tuple[bool, bool]:
    params, require_optimal_differs = shared
    return screening_verdicts(params, config, require_optimal_differs)


def screen_accepted_configs(
    params: ExperimentParams,
    n_configs: int,
    *,
    require_optimal_differs: bool,
    max_attempts_factor: int,
    generator: ConfigGenerator,
    n_jobs: int,
    execution: Optional[ExecutionStats] = None,
) -> List[NetworkConfiguration]:
    """The screening acceptance loop, with the screens fanned out.

    Candidates are sampled from ``generator`` in the parent (the only
    place its stream is consumed) in speculative batches; each sample's
    post-draw bit-generator state is recorded so that once the
    acceptance quota is met mid-batch, the generator is rewound to just
    after the last consumed sample.  Acceptance runs in attempt order,
    so the returned configurations -- and the generator state handed
    back to the caller -- are exactly the serial loop's.  Exhaustion
    raises the same ``RuntimeError`` the serial loop raises.

    A dead pool degrades to screening in the parent (counted once in
    ``pool_fallbacks``); already-sampled candidates keep their place in
    the attempt order, so the fallback changes nothing but wall clock.
    """
    obs = get_instrumentation()
    max_attempts = max(1, n_configs) * max_attempts_factor
    sampled = obs.metrics.counter("experiment.configs_sampled")
    screened_out = obs.metrics.counter("experiment.configs_screened_out")
    accepted: List[NetworkConfiguration] = []
    attempts = 0
    batch_size = max(SCREEN_BATCH_PER_WORKER * int(n_jobs), 4)
    started = time.perf_counter()
    pool = ForkPool(
        n_jobs, (params, require_optimal_differs), name="experiment"
    )
    try:
        while len(accepted) < n_configs:
            remaining = max_attempts - attempts
            if remaining <= 0:
                # Same message the serial loop raises on its
                # (max_attempts + 1)-th attempt.
                raise RuntimeError(
                    f"only {len(accepted)}/{n_configs} configurations "
                    f"accepted after {max_attempts + 1} attempts; relax "
                    "the screens or the absence range"
                )
            batch: List[NetworkConfiguration] = []
            states: List[dict] = []
            for _ in range(min(batch_size, remaining)):
                batch.append(generator.sample())
                states.append(generator.rng.bit_generator.state)
            if execution is not None:
                execution.screen_batches += 1
            verdicts = pool.map(_screen, batch)
            for position, (screened, differs) in enumerate(verdicts):
                attempts += 1
                sampled.inc()
                if params.screen and not screened:
                    screened_out.inc()
                    continue
                if require_optimal_differs and not differs:
                    screened_out.inc()
                    continue
                accepted.append(batch[position])
                if len(accepted) == n_configs:
                    # Rewind past the speculative tail: the generator
                    # resumes exactly where the serial loop stopped.
                    generator.rng.bit_generator.state = states[position]
                    return accepted
        return accepted
    finally:
        pool.close()
        if execution is not None:
            execution.pool_fallbacks += pool.fallbacks
            execution.screen_attempts += attempts
            execution.add_time("screen", time.perf_counter() - started)
