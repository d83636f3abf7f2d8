"""Tests for the accuracy-vs-fault-rate robustness sweep."""

import json
from dataclasses import replace

import pytest

from repro.experiments.params import ExperimentParams
from repro.experiments.persist import load_document, save_result
from repro.experiments.robustness import (
    DEFAULT_KINDS,
    RobustnessResult,
    run_robustness,
)
from repro.faults import FaultPlan
from repro.obs import Instrumentation, use_instrumentation

from tests.experiments.conftest import tiny_job_spec

RATES = (0.0, 1.0)

SPEC = replace(
    tiny_job_spec("robustness", n_trials=8, probe_retries=1), rates=RATES
)


@pytest.fixture(scope="module")
def sweep():
    backend = Instrumentation()
    with use_instrumentation(backend):
        result = run_robustness(SPEC)
    return result, backend


class TestSweep:
    def test_shape(self, sweep):
        result, _ = sweep
        assert result.rates == RATES
        assert result.kinds == DEFAULT_KINDS
        assert result.probe_retries == 1
        assert len(result.results_per_rate) == 2
        assert len(result.counters_per_rate) == 2
        # Same (re-trialled) configuration set at every rate.
        assert len(result.results_per_rate[0]) == len(
            result.results_per_rate[1]
        )

    def test_accuracy_series_covers_lineup(self, sweep):
        result, _ = sweep
        series = result.accuracy_series()
        assert set(series) >= {"model", "naive", "random", "constrained"}
        for values in series.values():
            assert len(values) == len(RATES)

    def test_clean_rate_injects_nothing(self, sweep):
        result, _ = sweep
        clean = result.counters_per_rate[0]
        assert all(
            value == 0
            for name, value in clean.items()
            if name.startswith("faults.injected.")
        )

    def test_total_loss_injects_and_retries(self, sweep):
        result, _ = sweep
        lossy = result.counters_per_rate[1]
        assert lossy["faults.injected.packet_in_loss"] > 0
        assert lossy["attacker.probe.retries"] > 0
        assert lossy["attacker.probe.unobserved"] > 0
        assert result.faults_injected()[1] > 0

    def test_counters_reemitted_to_outer_backend(self, sweep):
        result, backend = sweep
        exported = backend.metrics.counter(
            "faults.injected.packet_in_loss"
        ).value
        assert exported == result.counters_per_rate[1][
            "faults.injected.packet_in_loss"
        ]
        assert backend.metrics.counter("attacker.probe.retries").value > 0

    def test_summary_fields(self, sweep):
        result, _ = sweep
        summary = result.summary()
        assert summary["n_rates"] == 2.0
        assert summary["n_configs"] == 2.0
        assert summary["probe_retries"] == 1.0
        assert 0.0 <= summary["model_accuracy_clean"] <= 1.0
        assert summary["total_faults_injected"] > 0


class TestDeterminism:
    def test_same_params_same_curves(self):
        spec = replace(
            tiny_job_spec("robustness", n_trials=6), rates=(0.0, 0.5)
        )
        first = run_robustness(spec)
        second = run_robustness(spec)
        assert first.accuracy_series() == second.accuracy_series()
        assert first.counters_per_rate == second.counters_per_rate

    def test_rates_differ_only_in_the_faults(self):
        # Every rate re-trials the same worlds from the same generator
        # state: two clean rates give equal results, and the random
        # attacker, which never probes, scores the same at every rate.
        clean = run_robustness(
            replace(tiny_job_spec("robustness", n_trials=20), rates=(0.0, 0.0))
        )
        first, second = clean.results_per_rate
        assert first == second
        lossy = run_robustness(
            replace(
                tiny_job_spec("robustness", n_trials=20), rates=(0.0, 0.5, 1.0)
            )
        )
        random = lossy.accuracy_series()["random"]
        assert random == [random[0]] * len(random)


class TestValidation:
    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            run_robustness(replace(tiny_job_spec("robustness"), rates=()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            run_robustness(
                replace(
                    tiny_job_spec("robustness"), kinds=("controller_jitter",)
                )
            )

    def test_base_plan_rates_are_overridden_per_sweep_point(self):
        spec = replace(
            tiny_job_spec(
                "robustness",
                n_trials=4,
                fault_plan=FaultPlan(packet_in_loss=0.9, seed=3),
            ),
            rates=(0.0,),
            kinds=("packet_in_loss",),
        )
        result = run_robustness(spec)
        # Rate 0 overrides the base plan's 0.9: nothing may fire.
        assert result.faults_injected() == [0]


class TestPersistence:
    def test_document_roundtrip(self, sweep, tmp_path):
        result, _ = sweep
        path = save_result(result, tmp_path / "robustness.json", SPEC)
        document = load_document(path)
        assert document["artifact"] == "robustness"
        assert document["metrics"]["n_rates"] == 2.0
        assert document["series"]["rates"] == list(RATES)
        assert document["series"]["kinds"] == list(DEFAULT_KINDS)
        assert len(document["series"]["counters_per_rate"]) == 2
        # The document is plain JSON end to end.
        json.loads(path.read_text())

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported result type"):
            save_result(object(), tmp_path / "nope.json", SPEC)
