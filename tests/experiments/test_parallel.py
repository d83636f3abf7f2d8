"""Differential suite: the planned loops are bit-identical to serial.

The contract (EXPERIMENTS.md, "Parallel execution") is that every
``trial_jobs`` setting produces exactly the numbers the serial loops
(:mod:`tests.oracles.loops`) produce -- same accuracies, same
``TrialResult`` sequences, same generator states, same persisted
documents, outcome counters -- and that a dying pool degrades to the
parent with identical results, counted in the results' ``pool_fallbacks``
and in ``experiment.pool.fallbacks``.  Every counter comparison goes
through :func:`tests.obs.catalogue.assert_outcome_counters_match`,
which reads the fan-out class of each counter from the metric catalogue.
"""

from dataclasses import replace

import pytest

import repro.parallel as primitive
from repro.apispec import JobSpec
from repro.core.compact_model import CompactModel
from repro.experiments import fastscreen
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.harness import ConfigHarness, sample_screened_harnesses
from repro.experiments.persist import result_document
from repro.experiments.robustness import run_robustness
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation

from tests.experiments.conftest import tiny_experiment_params
from tests.obs.catalogue import assert_outcome_counters_match
from tests.oracles import loops

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


def _counters(run):
    """The counters ``run()`` records, and what it returns."""
    backend = Instrumentation()
    with use_instrumentation(backend):
        returned = run()
    return backend.metrics.to_document()["counters"], returned


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
            a = loops.run_trials(serial)
            b = fanned.run_trials(trial_jobs=trial_jobs)
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
            a = loops.run_trials(serial)
            b = fanned.run_trials(trial_jobs=trial_jobs)
            assert a.accuracies == b.accuracies
            assert a.trial_results == b.trial_results

    def test_run_trials_with_faults_and_retries(self):
        for trial_jobs in TRIAL_JOBS:
            plan = FaultPlan(packet_in_loss=0.4, probe_reply_loss=0.2, seed=5)
            params = tiny_experiment_params(n_trials=10)
            serial = ConfigHarness.sample(params)
            fanned = ConfigHarness.sample(params)
            a = loops.run_trials(
                serial, fault_plan=plan, probe_retries=1
            )
            b = fanned.run_trials(
                fault_plan=plan, probe_retries=1,
                trial_jobs=trial_jobs,
            )
            assert a.accuracies == b.accuracies
            assert a.trial_results == b.trial_results

    def test_trial_counters_match_serial(self):
        # Table-mode `sim.table.*` counts exist only in the registry, so
        # this is their one serial/pooled check.  `engine.*` is a work
        # class: each worker builds its own decision tree from the
        # inherited inference (docs/OBSERVABILITY.md).
        plan = FaultPlan(probe_reply_loss=0.5, seed=9)
        params = tiny_experiment_params(n_trials=8)
        serial, _ = _counters(
            lambda: loops.run_trials(
                ConfigHarness.sample(params), fault_plan=plan, probe_retries=1
            )
        )
        for trial_jobs in TRIAL_JOBS:
            fanned, _ = _counters(
                lambda: ConfigHarness.sample(params).run_trials(
                    fault_plan=plan, probe_retries=1, trial_jobs=trial_jobs
                )
            )
            compared = assert_outcome_counters_match(serial, fanned)
            assert compared["sim.table.hits"] > 0
            assert compared["experiment.trials"] == 8

    def test_network_trial_counters_match_serial(self):
        # The network-mode twin: trials fork a per-process template
        # network, and workers build their own templates per chunk, so
        # every `sim.*` count must be independent of how many templates
        # were built (permanent entries are installed uncounted).
        plan = FaultPlan(
            packet_in_loss=0.1,
            flow_mod_loss=0.1,
            probe_reply_loss=0.3,
            controller_jitter=1e-4,
            seed=9,
        )
        params = tiny_experiment_params(n_trials=6, trial_mode="network")
        serial, _ = _counters(
            lambda: loops.run_trials(
                ConfigHarness.sample(params), fault_plan=plan, probe_retries=1
            )
        )
        assert serial["sim.table.installs"] > 0
        assert serial["sim.network.host_sends"] > 0
        assert any(name.startswith("faults.") for name in serial)
        # A lookup the to-controller or flood entry wins is a miss.
        assert serial["sim.table.misses"] > 0
        assert (
            serial["sim.table.hits"] + serial["sim.table.misses"]
            == serial["sim.switch.received"]
        )
        assert serial["sim.table.misses"] == (
            serial["sim.switch.packet_ins"] + serial["sim.switch.flooded"]
        )
        for trial_jobs in (2, 3):
            fanned, _ = _counters(
                lambda: ConfigHarness.sample(params).run_trials(
                    fault_plan=plan, probe_retries=1, trial_jobs=trial_jobs
                )
            )
            compared = assert_outcome_counters_match(serial, fanned)
            assert compared["sim.switch.packet_ins"] > 0

    def test_params_trial_jobs_used_by_default(self):
        params = tiny_experiment_params(n_trials=6)
        serial = ConfigHarness.sample(params)
        fanned = ConfigHarness.sample(replace(params, trial_jobs=JOBS))
        a = loops.run_trials(serial)
        b = fanned.run_trials()
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
                replace(params, trial_jobs=trial_jobs), 3, generator=fanned_gen
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
            a = [loops.run_trials(h) for h in serial]
            b = [h.run_trials(trial_jobs=1) for h in fanned]
            assert [r.trial_results for r in a] == [r.trial_results for r in b]

    @pytest.mark.parametrize(
        "n_probes", [1, 2], ids=["fastscreen", "exact-only"]
    )
    def test_screening_counters_match_serial(self, n_probes):
        # A pooled batch also screens the speculative candidates past the
        # quota.  The outcome counters -- sampled, screened out, exact
        # rejects by reason -- count only the candidates the loop
        # consumes.  At seed 3 the last pooled batch screens exact
        # rejects past the quota.
        params = tiny_experiment_params(n_probes=n_probes)

        def screen(loop, trial_jobs=1):
            return _counters(
                lambda: loop(
                    replace(params, trial_jobs=trial_jobs),
                    2,
                    generator=ConfigGenerator(params.config, seed=3),
                )
            )

        serial, _ = screen(loops.sample_screened_harnesses)
        for trial_jobs in TRIAL_JOBS:
            fanned, harnesses = screen(sample_screened_harnesses, trial_jobs)
            compared = assert_outcome_counters_match(serial, fanned)
            assert compared["experiment.configs_sampled"] == 9
            assert compared["experiment.configs_screened_out"] == 7
            assert harnesses.pool_fallbacks == 0
        if n_probes == 2:
            assert compared["experiment.exact_screen_reject_viability"] == 7
            # The speculative candidates were screened: work counters
            # may count them.
            assert (
                fanned["experiment.harnesses_built"]
                > serial["experiment.harnesses_built"]
            )

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
                    replace(params, trial_jobs=trial_jobs),
                    3,
                    require_optimal_differs=True,
                    max_attempts_factor=1,
                    generator=ConfigGenerator(params.config, seed=11),
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


#: Outcome counters of the tiny pipelines below, equal at every
#: ``trial_jobs``: trials run and candidate configurations sampled.
PIPELINE_COUNTS = {
    "fig6": (16, 98),
    "fig7": (24, 7),
    "robustness": (24, 3),
}


def _check_pipeline_counters(pipeline, serial, fanned, trial_jobs):
    """The fan-out contract on one pipeline run against the oracle's."""
    compared = assert_outcome_counters_match(serial, fanned)
    assert (
        compared["experiment.trials"],
        compared["experiment.configs_sampled"],
    ) == PIPELINE_COUNTS[pipeline]
    if trial_jobs == 1:
        # In the parent every accepted harness is the one screened: no
        # harness is built twice.
        assert (
            fanned["experiment.harnesses_built"]
            == serial["experiment.harnesses_built"]
        )


class TestPipelineDifferentials:
    def test_fig6_bit_identical(self):
        params = tiny_experiment_params(n_configs=2, n_trials=8)
        with loops.serial_loops():
            serial_counters, serial = _counters(
                lambda: run_fig6(_spec(params, "fig6"))
            )
        for trial_jobs in TRIAL_JOBS:
            fanned_params = replace(params, trial_jobs=trial_jobs)
            fanned_counters, fanned = _counters(
                lambda: run_fig6(_spec(fanned_params, "fig6"))
            )
            assert _accuracies(serial.results_per_bin) == _accuracies(
                fanned.results_per_bin
            )
            assert serial.accuracy_series() == fanned.accuracy_series()
            assert serial.improvement_cdf() == fanned.improvement_cdf()
            assert serial.headline() == fanned.headline()
            assert _normalized(
                result_document(serial, _spec(params, "fig6"))
            ) == _normalized(
                result_document(fanned, _spec(fanned_params, "fig6"))
            )
            assert fanned.pool_fallbacks == 0
            _check_pipeline_counters(
                "fig6", serial_counters, fanned_counters, trial_jobs
            )

    def test_fig7_bit_identical(self):
        # One configuration per Figure 7 bin.
        params = tiny_experiment_params(n_configs=3, n_trials=8)
        with loops.serial_loops():
            serial_counters, serial = _counters(
                lambda: run_fig7(_spec(params, "fig7"))
            )
        for trial_jobs in TRIAL_JOBS:
            fanned_params = replace(params, trial_jobs=trial_jobs)
            fanned_counters, fanned = _counters(
                lambda: run_fig7(_spec(fanned_params, "fig7"))
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
                result_document(serial, _spec(params, "fig7"))
            ) == _normalized(
                result_document(fanned, _spec(fanned_params, "fig7"))
            )
            assert fanned.pool_fallbacks == 0
            _check_pipeline_counters(
                "fig7", serial_counters, fanned_counters, trial_jobs
            )

    def test_robustness_bit_identical_with_fault_plan(self):
        params = tiny_experiment_params(
            n_configs=2,
            n_trials=6,
            fault_plan=FaultPlan(seed=3),
            probe_retries=1,
        )
        spec = replace(_spec(params, "robustness"), rates=(0.0, 0.3))
        with loops.serial_loops():
            serial_counters, serial = _counters(lambda: run_robustness(spec))
        for trial_jobs in TRIAL_JOBS:
            fanned_spec = replace(spec, trial_jobs=trial_jobs)
            fanned_counters, fanned = _counters(
                lambda: run_robustness(fanned_spec)
            )
            assert _accuracies(serial.results_per_rate) == _accuracies(
                fanned.results_per_rate
            )
            assert serial.accuracy_series() == fanned.accuracy_series()
            assert serial.counters_per_rate == fanned.counters_per_rate
            assert serial.summary() == fanned.summary()
            assert _normalized(result_document(serial, spec)) == _normalized(
                result_document(fanned, fanned_spec)
            )
            assert fanned.pool_fallbacks == 0
            _check_pipeline_counters(
                "robustness", serial_counters, fanned_counters, trial_jobs
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
    """Each pool death is counted once on the results, under the null
    backend, and once in ``experiment.pool.fallbacks`` when recording."""

    def test_trial_pool_death_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params(n_trials=10)
        baseline = loops.run_trials(
            ConfigHarness.sample(params)
        )
        monkeypatch.setattr(
            primitive, "ProcessPoolExecutor", _broken_executor
        )
        result = ConfigHarness.sample(params).run_trials(
            trial_jobs=JOBS
        )
        assert result.accuracies == baseline.accuracies
        assert result.trial_results == baseline.trial_results
        assert result.pool_fallbacks == 1
        counters, _ = _counters(
            lambda: ConfigHarness.sample(params).run_trials(trial_jobs=JOBS)
        )
        assert counters["experiment.pool.fallbacks"] == 1

    def test_trial_worker_exception_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params(n_trials=10)
        baseline = loops.run_trials(
            ConfigHarness.sample(params)
        )
        monkeypatch.setattr(primitive, "_run_chunk", _exploding_chunk)
        result = ConfigHarness.sample(params).run_trials(
            trial_jobs=JOBS
        )
        assert result.accuracies == baseline.accuracies
        assert result.trial_results == baseline.trial_results
        assert result.pool_fallbacks == 1
        counters, _ = _counters(
            lambda: ConfigHarness.sample(params).run_trials(trial_jobs=JOBS)
        )
        assert counters["experiment.pool.fallbacks"] == 1

    @staticmethod
    def _screen(params):
        return sample_screened_harnesses(
            replace(params, trial_jobs=JOBS),
            2,
            generator=ConfigGenerator(params.config, seed=21),
        )

    def test_screen_pool_death_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params()
        expected = loops.sample_screened_harnesses(
            params, 2, generator=ConfigGenerator(params.config, seed=21)
        )
        monkeypatch.setattr(
            primitive, "ProcessPoolExecutor", _broken_executor
        )
        result = self._screen(params)
        assert [_config_key(h.config) for h in result] == [
            _config_key(h.config) for h in expected
        ]
        assert result.pool_fallbacks == 1
        counters, _ = _counters(lambda: self._screen(params))
        assert counters["experiment.pool.fallbacks"] == 1

    def test_screen_worker_exception_falls_back_serially(self, monkeypatch):
        params = tiny_experiment_params()
        expected = loops.sample_screened_harnesses(
            params, 2, generator=ConfigGenerator(params.config, seed=21)
        )
        monkeypatch.setattr(primitive, "_run_chunk", _exploding_chunk)
        result = self._screen(params)
        assert [_config_key(h.config) for h in result] == [
            _config_key(h.config) for h in expected
        ]
        assert result.pool_fallbacks == 1
        counters, _ = _counters(lambda: self._screen(params))
        assert counters["experiment.pool.fallbacks"] == 1
