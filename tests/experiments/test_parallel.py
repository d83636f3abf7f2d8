"""Differential suite: the planned loops are bit-identical to serial.

The contract (EXPERIMENTS.md, "Parallel execution") is that every
``trial_jobs`` setting produces exactly the numbers the serial loops
(:mod:`tests.oracles.loops`) produce -- same accuracies, same
``TrialResult`` sequences, same generator states, same persisted
documents -- and that a dying pool degrades to the parent with identical
results, counted in ``experiment.pool.fallbacks``.
"""

from dataclasses import replace

import pytest

import repro.experiments.parallel as parallel_mod
import repro.parallel as primitive
from repro.apispec import JobSpec
from repro.core.compact_model import CompactModel
from repro.experiments import fastscreen
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.harness import ConfigHarness, sample_screened_harnesses
from repro.experiments.persist import (
    fig6_to_document,
    fig7_to_document,
    robustness_to_document,
)
from repro.experiments.robustness import run_robustness
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation

from tests.experiments.conftest import tiny_experiment_params
from tests.oracles import loops

#: Two broad bins keep fig6's double screen affordable at tiny scale.
BINS = ((0.0, 0.5), (0.5, 1.0))

JOBS = 2

#: Production runs its trials and screens in the parent at 1 and in a
#: fork pool above; both must equal the serial loops.
TRIAL_JOBS = (1, JOBS)


def _config_key(config):
    return (
        config.target_flow,
        config.concrete_rules,
        config.cache_size,
        config.delta,
        config.window_steps,
        tuple(config.universe.rates),
    )


def _normalized(document):
    """Strip the fields that legitimately differ between jobs settings."""
    document = dict(document)
    document.pop("provenance", None)
    for section in ("params", "job"):
        value = document.get(section)
        if isinstance(value, dict):
            document[section] = {
                k: v for k, v in value.items() if k != "trial_jobs"
            }
    return document


def _accuracies(results_per_bucket):
    return [
        [result.accuracies for result in bucket]
        for bucket in results_per_bucket
    ]


# ----------------------------------------------------------------------
# Trial-level fan-out
# ----------------------------------------------------------------------
class TestTrialFanout:
    def test_run_trials_bit_identical(self):
        for trial_jobs in (1, 3):
            params = tiny_experiment_params(n_trials=12)
            serial = ConfigHarness.sample(params)
            fanned = ConfigHarness.sample(params)
            a = loops.run_trials(serial, keep_trials=True)
            b = fanned.run_trials(keep_trials=True, trial_jobs=trial_jobs)
            assert a.accuracies == b.accuracies
            assert a.trial_results == b.trial_results
            assert a.screened == b.screened
            # The generator streams end in the same place: later draws
            # are unaffected by the fan-out.
            assert (
                serial.rng.bit_generator.state
                == fanned.rng.bit_generator.state
            )

    def test_run_trials_network_mode(self):
        for trial_jobs in TRIAL_JOBS:
            params = tiny_experiment_params(n_trials=4, trial_mode="network")
            serial = ConfigHarness.sample(params)
            fanned = ConfigHarness.sample(params)
            a = loops.run_trials(serial, keep_trials=True)
            b = fanned.run_trials(keep_trials=True, trial_jobs=trial_jobs)
            assert a.accuracies == b.accuracies
            assert a.trial_results == b.trial_results

    def test_run_trials_with_faults_and_retries(self):
        for trial_jobs in TRIAL_JOBS:
            plan = FaultPlan(packet_in_loss=0.4, probe_reply_loss=0.2, seed=5)
            params = tiny_experiment_params(n_trials=10)
            serial = ConfigHarness.sample(params)
            fanned = ConfigHarness.sample(params)
            a = loops.run_trials(
                serial, keep_trials=True, fault_plan=plan, probe_retries=1
            )
            b = fanned.run_trials(
                keep_trials=True, fault_plan=plan, probe_retries=1,
                trial_jobs=trial_jobs,
            )
            assert a.accuracies == b.accuracies
            assert a.trial_results == b.trial_results

    def test_trial_counters_match_serial(self):
        plan = FaultPlan(probe_reply_loss=0.5, seed=9)
        params = tiny_experiment_params(n_trials=8)

        def counters(run):
            backend = Instrumentation()
            with use_instrumentation(backend):
                run(ConfigHarness.sample(params))
            document = backend.metrics.to_document()["counters"]
            return {
                name: value
                for name, value in document.items()
                if value
                and (
                    name.startswith("faults.")
                    or name.startswith("attacker.")
                    or name == "experiment.trials"
                )
            }

        serial = counters(
            lambda harness: loops.run_trials(
                harness, fault_plan=plan, probe_retries=1
            )
        )
        for trial_jobs in TRIAL_JOBS:
            assert serial == counters(
                lambda harness: harness.run_trials(
                    fault_plan=plan, probe_retries=1, trial_jobs=trial_jobs
                )
            )

    def test_params_trial_jobs_used_by_default(self):
        params = tiny_experiment_params(n_trials=6)
        serial = ConfigHarness.sample(params)
        fanned = ConfigHarness.sample(replace(params, trial_jobs=JOBS))
        a = loops.run_trials(serial, keep_trials=True)
        b = fanned.run_trials(keep_trials=True)
        assert a.trial_results == b.trial_results

    def test_duplicate_attacker_names_rejected(self):
        params = tiny_experiment_params()
        harness = ConfigHarness.sample(params)
        lineup = (harness.naive_attacker, harness.naive_attacker)
        with pytest.raises(ValueError, match="duplicate attacker name"):
            harness.run_trials(attackers=lineup)
        with pytest.raises(ValueError, match="naive"):
            harness.run_trials(attackers=lineup, trial_jobs=JOBS)


# ----------------------------------------------------------------------
# Config-level fan-out (screened sampling)
# ----------------------------------------------------------------------
class TestScreeningFanout:
    def test_screened_harnesses_bit_identical(self):
        for trial_jobs in TRIAL_JOBS:
            params = tiny_experiment_params()
            serial_gen = ConfigGenerator(params.config, seed=7)
            fanned_gen = ConfigGenerator(params.config, seed=7)
            serial = loops.sample_screened_harnesses(
                params, 3, generator=serial_gen
            )
            fanned = sample_screened_harnesses(
                params, 3, generator=fanned_gen, trial_jobs=trial_jobs
            )
            assert [_config_key(h.config) for h in serial] == [
                _config_key(h.config) for h in fanned
            ]
            # The generator is left exactly where the serial loop left it...
            assert (
                serial_gen.rng.bit_generator.state
                == fanned_gen.rng.bit_generator.state
            )
            # ...so the trial loops that follow are bit-identical too.
            a = [loops.run_trials(h, keep_trials=True) for h in serial]
            b = [h.run_trials(keep_trials=True) for h in fanned]
            assert [r.trial_results for r in a] == [r.trial_results for r in b]

    def test_exhaustion_error_matches_serial(self):
        for trial_jobs in TRIAL_JOBS:
            params = tiny_experiment_params()
            with pytest.raises(RuntimeError) as serial_error:
                loops.sample_screened_harnesses(
                    params,
                    3,
                    require_optimal_differs=True,
                    max_attempts_factor=1,
                    generator=ConfigGenerator(params.config, seed=11),
                )
            with pytest.raises(RuntimeError) as fanned_error:
                sample_screened_harnesses(
                    params,
                    3,
                    require_optimal_differs=True,
                    max_attempts_factor=1,
                    generator=ConfigGenerator(params.config, seed=11),
                    trial_jobs=trial_jobs,
                )
            assert str(serial_error.value) == str(fanned_error.value)


class TestInProcessScreening:
    """At ``trial_jobs=1`` the batched loop *is* the serial loop."""

    @staticmethod
    def _run(loop, params, monkeypatch):
        # Every candidate is sampled, then gets exactly one model build
        # (fast screen or exact harness): the event order shows both a
        # speculative sample and a second build of an accepted harness.
        events = []
        sample = ConfigGenerator.sample
        build = CompactModel.__init__

        def logged_sample(generator, *args, **kwargs):
            events.append("sample")
            return sample(generator, *args, **kwargs)

        def logged_build(model, *args, **kwargs):
            events.append("model")
            build(model, *args, **kwargs)

        backend = Instrumentation()
        generator = ConfigGenerator(params.config, seed=7)
        with monkeypatch.context() as patch, use_instrumentation(backend):
            patch.setattr(ConfigGenerator, "sample", logged_sample)
            patch.setattr(CompactModel, "__init__", logged_build)
            harnesses = loop(
                params,
                2,
                require_optimal_differs=True,
                max_attempts_factor=100,
                generator=generator,
                trial_jobs=1,
            )
        counters = {
            name: value
            for name, value in backend.metrics.to_document()[
                "counters"
            ].items()
            if name.startswith(("experiment.", "fastscreen."))
        }
        return harnesses, generator, events, counters

    @pytest.mark.parametrize(
        "n_probes", [1, 2], ids=["fastscreen", "exact-only"]
    )
    def test_matches_serial_loop_exactly(self, n_probes, monkeypatch):
        params = tiny_experiment_params(n_probes=n_probes)
        if n_probes == 1 and not fastscreen.supports(params):
            pytest.skip("native kernel unavailable: no fast screen")
        assert fastscreen.supports(params) == (n_probes == 1)
        serial, serial_gen, serial_events, serial_counters = self._run(
            loops.sample_screened_harnesses, params, monkeypatch
        )
        batched, batched_gen, batched_events, batched_counters = self._run(
            sample_screened_harnesses, params, monkeypatch
        )
        assert [_config_key(h.config) for h in batched] == [
            _config_key(h.config) for h in serial
        ]
        # One sample per attempt: no speculative candidate is drawn...
        assert batched_events.count("sample") == serial_events.count("sample")
        assert batched_events == serial_events
        assert (
            batched_gen.rng.bit_generator.state
            == serial_gen.rng.bit_generator.state
        )
        # ...or screened, and no accepted harness is built twice: one
        # build per candidate the exact screen had to look at.
        assert batched_counters == serial_counters
        built = batched_counters["experiment.harnesses_built"]
        if n_probes == 1:
            assert batched_counters["experiment.fastscreen_rejects"] > 0
            assert built == batched_counters["experiment.fastscreen_fallbacks"]
        else:
            assert built == batched_counters["experiment.configs_sampled"]
        # The accepted harnesses draw trials from the caller's generator.
        for harness in batched:
            assert harness.rng is batched_gen.rng
            assert harness.random_attacker._rng is batched_gen.rng


# ----------------------------------------------------------------------
# Whole pipelines
# ----------------------------------------------------------------------
def _spec(params, experiment):
    return JobSpec.from_params(params, experiment=experiment)


def _execution_fields(execution):
    return {
        name: getattr(execution, name)
        for name in (
            "n_jobs", "trials", "trial_chunks", "screen_attempts",
            "screen_batches", "harness_builds", "pool_fallbacks",
        )
    }


#: ``ExecutionStats`` of the tiny pipelines below.  At ``JOBS`` these are
#: the fan-out's counts; in the parent, screens go one candidate per
#: batch and every accepted harness is the one screened (no rebuilds).
EXECUTION = {
    ("fig6", 1): dict(
        n_jobs=1, trials=16, trial_chunks=8, screen_attempts=105,
        screen_batches=105, harness_builds=0, pool_fallbacks=0,
    ),
    ("fig6", JOBS): dict(
        n_jobs=JOBS, trials=16, trial_chunks=16, screen_attempts=105,
        screen_batches=27, harness_builds=2, pool_fallbacks=0,
    ),
    ("fig7", 1): dict(
        n_jobs=1, trials=16, trial_chunks=8, screen_attempts=6,
        screen_batches=6, harness_builds=0, pool_fallbacks=0,
    ),
    ("fig7", JOBS): dict(
        n_jobs=JOBS, trials=16, trial_chunks=16, screen_attempts=6,
        screen_batches=2, harness_builds=2, pool_fallbacks=0,
    ),
    ("robustness", 1): dict(
        n_jobs=1, trials=24, trial_chunks=12, screen_attempts=3,
        screen_batches=3, harness_builds=0, pool_fallbacks=0,
    ),
    ("robustness", JOBS): dict(
        n_jobs=JOBS, trials=24, trial_chunks=24, screen_attempts=3,
        screen_batches=1, harness_builds=2, pool_fallbacks=0,
    ),
}


class TestPipelineDifferentials:
    def test_fig6_bit_identical(self):
        params = tiny_experiment_params(n_configs=2, n_trials=8)
        with loops.serial_loops():
            serial = run_fig6(
                _spec(params, "fig6"), bins=BINS, configs_per_bin=1
            )
        for trial_jobs in TRIAL_JOBS:
            fanned_params = replace(params, trial_jobs=trial_jobs)
            fanned = run_fig6(
                _spec(fanned_params, "fig6"), bins=BINS, configs_per_bin=1
            )
            assert _accuracies(serial.results_per_bin) == _accuracies(
                fanned.results_per_bin
            )
            assert serial.accuracy_series() == fanned.accuracy_series()
            assert serial.improvement_cdf() == fanned.improvement_cdf()
            assert serial.headline() == fanned.headline()
            assert _normalized(
                fig6_to_document(serial, params=params)
            ) == _normalized(fig6_to_document(fanned, params=fanned_params))
            assert fanned.execution is not None
            assert fanned.execution.n_jobs == trial_jobs
            assert fanned.execution.trials > 0
            assert _execution_fields(fanned.execution) == (
                EXECUTION["fig6", trial_jobs]
            )

    def test_fig7_bit_identical(self):
        params = tiny_experiment_params(n_configs=2, n_trials=8)
        with loops.serial_loops():
            serial = run_fig7(
                _spec(params, "fig7"), bins=BINS, configs_per_bin=1
            )
        for trial_jobs in TRIAL_JOBS:
            fanned_params = replace(params, trial_jobs=trial_jobs)
            fanned = run_fig7(
                _spec(fanned_params, "fig7"), bins=BINS, configs_per_bin=1
            )
            assert _accuracies(serial.results_per_bin) == _accuracies(
                fanned.results_per_bin
            )
            assert serial.accuracy_series() == fanned.accuracy_series()
            assert serial.summary() == fanned.summary()
            assert serial.accuracy_by_covering_count() == (
                fanned.accuracy_by_covering_count()
            )
            assert _normalized(
                fig7_to_document(serial, params=params)
            ) == _normalized(fig7_to_document(fanned, params=fanned_params))
            assert _execution_fields(fanned.execution) == (
                EXECUTION["fig7", trial_jobs]
            )

    def test_robustness_bit_identical_with_fault_plan(self):
        params = tiny_experiment_params(
            n_configs=2,
            n_trials=6,
            fault_plan=FaultPlan(seed=3),
            probe_retries=1,
        )
        rates = (0.0, 0.3)
        with loops.serial_loops():
            serial = run_robustness(
                _spec(params, "robustness"), rates=rates, configs=2
            )
        for trial_jobs in TRIAL_JOBS:
            fanned_params = replace(params, trial_jobs=trial_jobs)
            fanned = run_robustness(
                _spec(fanned_params, "robustness"), rates=rates, configs=2
            )
            assert _accuracies(serial.results_per_rate) == _accuracies(
                fanned.results_per_rate
            )
            assert serial.accuracy_series() == fanned.accuracy_series()
            assert serial.counters_per_rate == fanned.counters_per_rate
            assert serial.summary() == fanned.summary()
            assert _normalized(
                robustness_to_document(serial, params=params)
            ) == _normalized(
                robustness_to_document(fanned, params=fanned_params)
            )
            assert _execution_fields(fanned.execution) == (
                EXECUTION["robustness", trial_jobs]
            )


# ----------------------------------------------------------------------
# Pool death and worker exceptions degrade to identical serial results
# ----------------------------------------------------------------------
def _broken_executor(*args, **kwargs):
    """Stands in for the process pool; every pool creation dies."""
    raise BrokenPipeError("simulated pool death")


def _exploding_chunk(fn, chunk, collect):
    """Stands in for the worker-side chunk runner of repro.parallel."""
    raise RuntimeError("worker crashed mid-chunk")


class TestFallbacks:
    def test_trial_pool_death_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params(n_trials=10)
        baseline = loops.run_trials(
            ConfigHarness.sample(params), keep_trials=True
        )
        monkeypatch.setattr(
            primitive, "ProcessPoolExecutor", _broken_executor
        )
        backend = Instrumentation()
        with use_instrumentation(backend):
            harness = ConfigHarness.sample(params)
            execution = parallel_mod.ExecutionStats(n_jobs=JOBS)
            result = harness.run_trials(
                keep_trials=True, trial_jobs=JOBS, execution=execution
            )
        assert result.accuracies == baseline.accuracies
        assert result.trial_results == baseline.trial_results
        assert execution.pool_fallbacks == 1
        assert (
            backend.metrics.counter("experiment.pool.fallbacks").value == 1
        )

    def test_trial_worker_exception_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params(n_trials=10)
        baseline = loops.run_trials(
            ConfigHarness.sample(params), keep_trials=True
        )
        monkeypatch.setattr(primitive, "_run_chunk", _exploding_chunk)
        backend = Instrumentation()
        with use_instrumentation(backend):
            harness = ConfigHarness.sample(params)
            execution = parallel_mod.ExecutionStats(n_jobs=JOBS)
            result = harness.run_trials(
                keep_trials=True, trial_jobs=JOBS, execution=execution
            )
        assert result.accuracies == baseline.accuracies
        assert result.trial_results == baseline.trial_results
        assert execution.pool_fallbacks == 1
        assert (
            backend.metrics.counter("experiment.pool.fallbacks").value == 1
        )

    def test_screen_pool_death_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params()
        expected = loops.sample_screened_harnesses(
            params, 2, generator=ConfigGenerator(params.config, seed=21)
        )
        monkeypatch.setattr(
            primitive, "ProcessPoolExecutor", _broken_executor
        )
        backend = Instrumentation()
        with use_instrumentation(backend):
            execution = parallel_mod.ExecutionStats(n_jobs=JOBS)
            harnesses = sample_screened_harnesses(
                params,
                2,
                generator=ConfigGenerator(params.config, seed=21),
                trial_jobs=JOBS,
                execution=execution,
            )
        assert [_config_key(h.config) for h in harnesses] == [
            _config_key(h.config) for h in expected
        ]
        assert execution.pool_fallbacks == 1
        assert (
            backend.metrics.counter("experiment.pool.fallbacks").value == 1
        )

    def test_screen_worker_exception_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params()
        expected = loops.sample_screened_harnesses(
            params, 2, generator=ConfigGenerator(params.config, seed=21)
        )
        monkeypatch.setattr(primitive, "_run_chunk", _exploding_chunk)
        backend = Instrumentation()
        with use_instrumentation(backend):
            execution = parallel_mod.ExecutionStats(n_jobs=JOBS)
            harnesses = sample_screened_harnesses(
                params,
                2,
                generator=ConfigGenerator(params.config, seed=21),
                trial_jobs=JOBS,
                execution=execution,
            )
        assert [_config_key(h.config) for h in harnesses] == [
            _config_key(h.config) for h in expected
        ]
        assert execution.pool_fallbacks == 1
        assert (
            backend.metrics.counter("experiment.pool.fallbacks").value == 1
        )
