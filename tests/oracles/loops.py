"""Oracle: the serial trial loop and the serial screening loop.

Production runs both Figure 6/7 loops through one planned path
(:mod:`repro.experiments.parallel`): trials are pre-drawn by
``plan_trials`` and mapped by ``run_planned_trials``, and candidates are
screened in batches by ``sample_screened_harnesses``, for every
``trial_jobs``.  These are the loops that path replaced, kept unchanged:

* :func:`run_trials` draws each trial's seed inline from the harness
  generator and lets the random attacker draw its verdict inside the
  trial;
* :func:`sample_screened_harnesses` samples, screens and accepts one
  candidate at a time, reusing the harness it screened.

:func:`serial_loops` substitutes both, so a whole pipeline runs on them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

import pytest

from repro.core.attacker import Attacker
from repro.experiments import defend, harness, robustness
from repro.experiments.harness import (
    ConfigHarness,
    ConfigResult,
    ScreenedHarnesses,
)
from repro.experiments.params import ExperimentParams
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator
from repro.obs import get_instrumentation


def run_trials(
    harness: ConfigHarness,
    *,
    n_trials: Optional[int] = None,
    attackers: Optional[Sequence[Attacker]] = None,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    trial_jobs: Optional[int] = None,
) -> ConfigResult:
    """``harness.run_trials`` as one serial loop (``trial_jobs`` ignored)."""
    n_trials = n_trials if n_trials is not None else harness.params.n_trials
    if fault_plan is None:
        fault_plan = harness.params.fault_plan
    lineup = tuple(attackers) if attackers is not None else harness.attackers()
    names = [attacker.name for attacker in lineup]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            "duplicate attacker name(s) in lineup: " + ", ".join(duplicates)
        )
    results: List[TrialResult] = []
    obs = harness._obs
    trial_counter = obs.metrics.counter("experiment.trials")
    with obs.span(
        "experiment.trial_batch",
        trials=n_trials,
        jobs=1,
        mode=harness.params.trial_mode,
    ):
        for index in range(n_trials):
            seed = int(harness.rng.integers(2**63 - 1))
            with obs.span(
                "experiment.trial",
                trial=index,
                mode=harness.params.trial_mode,
            ):
                trial = run_trial(
                    harness.config,
                    lineup,
                    seed,
                    mode=harness.params.trial_mode,
                    defense_factory=defense_factory,
                    fault_plan=fault_plan,
                    probe_retries=harness.params.probe_retries,
                )
            trial_counter.inc()
            results.append(trial)
    return harness.config_result(names, results)


def sample_screened_harnesses(
    params: ExperimentParams,
    n_configs: int,
    *,
    require_optimal_differs: bool = False,
    max_attempts_factor: int = 40,
    generator: Optional[ConfigGenerator] = None,
) -> ScreenedHarnesses:
    """The serial acceptance loop (``params.trial_jobs`` ignored; no
    pool, so ``pool_fallbacks`` stays 0)."""
    from repro.experiments import fastscreen

    generator = generator or ConfigGenerator(params.config, seed=params.seed)
    harnesses = ScreenedHarnesses()
    attempts = 0
    max_attempts = max(1, n_configs) * max_attempts_factor
    obs = get_instrumentation()
    sampled = obs.metrics.counter("experiment.configs_sampled")
    screened_out = obs.metrics.counter("experiment.configs_screened_out")
    fast = fastscreen.supports(params)
    while len(harnesses) < n_configs:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"only {len(harnesses)}/{n_configs} configurations accepted "
                f"after {attempts} attempts; relax the screens or the "
                "absence range"
            )
        if fast:
            # Certified float32 pre-screen: rejects only when the
            # rejection is provable within derived error bounds, so
            # accepted harnesses (and the generator's RNG stream) are
            # bit-identical to the exact branch below.
            config = generator.sample()
            sampled.inc()
            outcome = fastscreen.screen_candidate(
                config, require_optimal_differs=require_optimal_differs
            )
            if outcome.certified_reject:
                screened_out.inc()
                continue
            harness = ConfigHarness(
                config, params, rng=generator.rng, model=outcome.model
            )
        else:
            harness = ConfigHarness(
                generator.sample(), params, rng=generator.rng
            )
            sampled.inc()
        if not harness.is_screened_in():
            screened_out.inc()
            obs.metrics.counter("experiment.exact_screen_reject_viability").inc()
            continue
        if require_optimal_differs and not harness.optimal_differs_from_target():
            screened_out.inc()
            obs.metrics.counter("experiment.exact_screen_reject_target").inc()
            continue
        harnesses.append(harness)
    return harnesses


@contextmanager
def serial_loops() -> Iterator[None]:
    """Run the enclosed pipelines on the two serial loops."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConfigHarness, "run_trials", run_trials)
        for module in (defend, harness, robustness):
            patch.setattr(
                module, "sample_screened_harnesses", sample_screened_harnesses
            )
        yield
