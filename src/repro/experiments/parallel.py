"""Deterministic planned trials and candidate screens.

The figure pipelines aggregate hundreds of independent Monte Carlo
trials over dozens of sampled configurations.  Both loops run through
this module for every ``trial_jobs`` setting, mapped by
:class:`repro.parallel.ForkPool` -- in worker processes when
``trial_jobs > 1``, in the parent otherwise -- with identical numbers
either way:

* **trials** (:func:`plan_trials` + :func:`run_planned_trials`) -- the
  per-trial randomness is pre-drawn from the harness generator (one
  seed integer, then one verdict per probeless attacker in lineup
  order), so the generator stream does not depend on where the trials
  run.  Each trial replays its pre-drawn verdicts through
  :class:`_ScriptedAttacker` stand-ins, and results come back in trial
  order.
* **screens** (:func:`screening_verdicts`) -- the acceptance loop
  (:func:`repro.experiments.harness.sample_screened_harnesses`) maps
  this over each batch of sampled candidates.

The trial context or screening parameters reach the workers through
fork (never pickled), worker counters are merged into the parent (sums
commute, so totals match an in-process run), and a pool failure --
including a worker killed mid-map -- re-runs the map in the parent.
Trials and screens are pure functions of their pre-drawn inputs, so the
re-run reproduces the identical results.  Each fallback is counted on
the pool, carried on the results as ``pool_fallbacks``, and in the
``experiment.pool.fallbacks`` metric.

The serial loops these replaced live on as test oracles
(``tests/oracles/loops.py``).  See EXPERIMENTS.md ("Parallel
execution") for the determinism contract and the seed-stream layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attacker import Attacker
from repro.experiments.params import ExperimentParams
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.faults import FaultPlan
from repro.flows.config import NetworkConfiguration
from repro.obs import get_instrumentation
from repro.parallel import ForkPool
from repro.simulator.timing import LatencyModel

if TYPE_CHECKING:
    from repro.core.compact_model import CompactModel
    from repro.experiments.harness import ConfigHarness

#: Candidate configurations sampled per speculative screening batch,
#: as a multiple of the worker count.
SCREEN_BATCH_PER_WORKER = 2


# ----------------------------------------------------------------------
# Trial-level fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialPlan:
    """Pre-drawn randomness for one trial.

    ``verdicts`` carries the scripted decision of every probeless
    attacker (``(name, verdict)`` in lineup order): those attackers may
    draw from the harness generator inside the trial, so their draws are
    made up front -- interleaved with the seed draws exactly as a
    trial-by-trial loop interleaves them -- and replayed in the trial.
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
    (``tests/oracles/loops.py``) does: for each trial, one seed integer, then one ``decide(())``
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
    """One trial from its pre-drawn plan, in a worker or the parent."""
    with get_instrumentation().span(
        "experiment.trial", trial=plan.index, mode=context.mode
    ):
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
) -> Tuple[List[TrialResult], int]:
    """Run pre-planned trials through a ``ForkPool`` of ``n_jobs``.

    Returns the results, in trial order, and the pool's fallbacks.  The
    trials run in the parent when ``n_jobs <= 1`` and across worker
    processes otherwise.  Every trial is a pure function of its
    :class:`TrialPlan` (the scripted verdicts remove the only in-trial
    draw from the shared generator), so the results are the same either
    way.  If the pool dies -- fork failure, worker crash, an exception
    escaping the map -- the whole batch is re-run in the parent.
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
    with ForkPool(n_jobs, context, name="experiment") as pool:
        results = pool.map(run_planned_trial, plans)
    return results, pool.fallbacks


# ----------------------------------------------------------------------
# Candidate screening (screened rejection sampling)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScreenContext:
    """What every candidate screen needs: the screening map's ``shared``."""

    params: ExperimentParams
    require_optimal_differs: bool
    #: The caller's generator when the screens run in the parent, so the
    #: screen can build the very harness the loop accepts.  ``None`` in
    #: pool workers, which never receive the parent generator.
    rng: Optional[np.random.Generator] = None


def screening_verdicts(
    context: ScreenContext, config: NetworkConfiguration
) -> Tuple[Optional[str], Union[None, "ConfigHarness", "CompactModel"]]:
    """``(rejected_by, built)`` for one candidate configuration.

    ``rejected_by`` is ``None`` when the candidate passes every active
    check (the viability screen, then ``require_optimal_differs``),
    evaluated in the order the serial loop evaluates them.  Otherwise it
    names the rejection: ``"fastscreen"`` for a certified fast-screen
    reject, or the exact screen's first failed check, ``"viability"``
    (the Section VI-B condition) or ``"target"`` (the optimal probe is
    the target), which the caller counts for the candidates it consumes.

    ``built`` is ``None`` without ``context.rng``.  With it, ``built``
    is what the screen built: the harness on ``context.rng`` -- which
    the loop accepts as is -- or, for a certified rejection, the fast
    screen's model.  The caller holds ``built`` while it screens the
    next candidate, as the serial loop did: freeing each model before
    the next one is built lets malloc return the pages to the OS and
    fault them in again, about three times the page faults and a few
    percent slower per candidate on the ``screen`` benchmark.

    Without ``context.rng`` the harness seeds its own generator from
    ``params.seed`` -- screening never draws from it -- and the caller
    rebuilds accepted configurations on its own.

    When the certified float32 fast screen applies
    (repro.experiments.fastscreen) and proves the candidate rejected,
    no exact harness is built.
    """
    from repro.experiments import fastscreen
    from repro.experiments.harness import ConfigHarness

    params = context.params
    model = None
    if fastscreen.supports(params):
        outcome = fastscreen.screen_candidate(
            config, require_optimal_differs=context.require_optimal_differs
        )
        if outcome.certified_reject:
            built = outcome.model if context.rng is not None else None
            return "fastscreen", built
        model = outcome.model
    rng = context.rng
    harness = ConfigHarness(config, params, rng=rng, model=model)
    rejected_by: Optional[str] = None
    if not harness.is_screened_in():
        rejected_by = "viability"
    elif (
        context.require_optimal_differs
        and not harness.optimal_differs_from_target()
    ):
        rejected_by = "target"
    return rejected_by, harness if rng is not None else None
