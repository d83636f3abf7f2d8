"""JobSpec: the unified public job API (round trips and validation)."""

import argparse
import dataclasses

import pytest

from repro.apispec import EXPERIMENTS, JobSpec, require_spec
from repro.experiments.params import ExperimentParams
from repro.faults import FaultPlan
from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)


class TestRoundTrips:
    def test_dict_round_trip_is_identity(self):
        spec = JobSpec(
            experiment="robustness",
            config=tiny_config_params(),
            n_configs=3,
            n_trials=7,
            seed=42,
            fault_plan=FaultPlan(packet_in_loss=0.1, seed=5),
            probe_retries=2,
            rates=(0.0, 0.2),
            kinds=("packet_in_loss",),
            targets=(1, 3),
            job_id="job-x",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defense_and_detector_round_trip(self):
        spec = JobSpec(
            experiment="defend",
            config=tiny_config_params(),
            n_configs=2,
            n_trials=4,
            seed=7,
            trial_mode="network",
            defense=("none", "delay"),
            detector="logistic",
        )
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.defense == ("none", "delay")
        assert restored.detector == "logistic"

    def test_to_dict_is_json_shaped(self):
        import json

        spec = JobSpec(config=tiny_config_params(), rates=(0.1,), seed=1)
        json.dumps(spec.to_dict())  # must not raise

    def test_params_round_trip(self):
        params = tiny_experiment_params(n_trials=9, probe_retries=1)
        spec = JobSpec.from_params(params, experiment="fig7")
        assert spec.to_params() == params
        assert spec.experiment == "fig7"
        # Every ExperimentParams field crosses the bridge both ways.
        params = ExperimentParams(
            config=tiny_config_params(),
            n_configs=3,
            n_trials=7,
            seed=5,
            trial_mode="table",
            n_probes=2,
            fault_plan=FaultPlan(packet_in_loss=0.1, seed=2),
            probe_retries=1,
            trial_jobs=2,
        )
        default = ExperimentParams()
        assert all(
            getattr(params, f.name) != getattr(default, f.name)
            for f in dataclasses.fields(ExperimentParams)
        )
        assert JobSpec.from_params(params).to_params() == params

    def test_from_dict_rejects_unknown_fields(self):
        spec = JobSpec(config=tiny_config_params(), seed=1)
        document = spec.to_dict()
        document["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            JobSpec.from_dict(document)

    def test_from_dict_drops_legacy_selectors(self):
        spec = JobSpec(config=tiny_config_params(), seed=1)
        for legacy in ({"kernel": "dense"}, {"simpath": "reference"},
                       {"kernel": "auto", "simpath": "fastpath"},
                       {"estimator": "independent"},
                       {"selection_jobs": 2}, {"decision": "query"},
                       {"constrained_decision": "map"},
                       {"random_attacker_mode": "sample"}, {"screen": True}):
            document = {**spec.to_dict(), **legacy}
            assert JobSpec.from_dict(document) == spec
            assert JobSpec.from_dict(document).digest() == spec.digest()

    @pytest.mark.parametrize(
        "legacy", [{"kernel": "bogus"}, {"simpath": "turbo"},
                   {"estimator": "montecarlo"}, {"selection_jobs": 0},
                   {"decision": "map"}, {"screen": False}, {"screen": 1},
                   {"random_attacker_mode": "map"}]
    )
    def test_from_dict_rejects_invalid_legacy_values(self, legacy):
        document = {**JobSpec(seed=1).to_dict(), **legacy}
        (name,) = legacy
        with pytest.raises(ValueError, match=f"legacy JobSpec field {name}"):
            JobSpec.from_dict(document)

    def test_legacy_selectors_are_not_spec_fields(self):
        with pytest.raises(TypeError):
            JobSpec(kernel="auto")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            JobSpec(decision="query")  # type: ignore[call-arg]
        assert "kernel" not in JobSpec().to_dict()
        assert "simpath" not in JobSpec().to_dict()

    def test_digest_ignores_job_id(self):
        spec = JobSpec(config=tiny_config_params(), seed=3)
        assert spec.digest() == spec.with_job_id("renamed").digest()
        assert spec.digest() != JobSpec(
            config=tiny_config_params(), seed=4
        ).digest()


class TestFromArgs:
    def _namespace(self, **values):
        defaults = dict(
            seed=11,
            seed_fallback=None,
            configs=2,
            trials=5,
            mode="table",
            jobs=1,
            fault_plan="packet_in_loss=0.25,seed=3",
            probe_retries=1,
            trial_jobs=2,
        )
        defaults.update(values)
        return argparse.Namespace(**defaults)

    def test_cli_namespace_maps_onto_every_field(self):
        spec = JobSpec.from_args(self._namespace(), "fig6a")
        assert spec.experiment == "fig6"
        assert spec.seed == 11
        assert spec.n_configs == 2
        assert spec.n_trials == 5
        assert spec.trial_mode == "table"
        assert spec.fault_plan.packet_in_loss == 0.25
        assert spec.probe_retries == 1
        assert spec.trial_jobs == 2

    def test_seed_fallback_applies_when_seed_absent(self):
        spec = JobSpec.from_args(
            self._namespace(seed=None, seed_fallback=2017), "robustness"
        )
        assert spec.seed == 2017

    def test_comma_lists_are_split(self):
        spec = JobSpec.from_args(
            self._namespace(rates="0,0.1", kinds="packet_in_loss",
                            targets="1,2"),
            "robustness",
        )
        assert spec.rates == (0.0, 0.1)
        assert spec.kinds == ("packet_in_loss",)
        assert spec.targets == (1, 2)

    def test_defense_list_splits_and_detector_threads_through(self):
        spec = JobSpec.from_args(
            self._namespace(
                mode="network",
                defense="none, delay",
                detector="threshold",
            ),
            "defend",
        )
        assert spec.defense == ("none", "delay")
        assert spec.detector == "threshold"


class TestValidation:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="experiment"):
            JobSpec(experiment="warp")

    def test_experiments_registry_is_closed(self):
        assert set(EXPERIMENTS) == {
            "fig6", "fig7", "robustness", "reproduce", "select", "recon",
            "defend",
        }

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            JobSpec(
                config=tiny_config_params(),
                trial_mode="network",
                defense=("firewall",),
            )

    def test_empty_defense_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobSpec(config=tiny_config_params(), defense=())

    def test_defense_requires_network_mode(self):
        with pytest.raises(ValueError, match="network-mode"):
            JobSpec(
                config=tiny_config_params(),
                trial_mode="table",
                defense=("delay",),
            )

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            JobSpec(config=tiny_config_params(), detector="oracle")

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            JobSpec(config=tiny_config_params(), targets=(-1,))

    def test_experiment_params_validation_is_reused(self):
        with pytest.raises(ValueError):
            JobSpec(config=tiny_config_params(), trial_mode="warp")


class TestRequireSpec:
    def test_jobspec_passes_through_silently(self):
        spec = JobSpec(config=tiny_config_params(), seed=1)
        got, params = require_spec(spec, caller="t")
        assert got is spec
        assert params == spec.to_params()

    def test_legacy_params_rejected(self):
        with pytest.raises(TypeError, match="JobSpec.from_params"):
            require_spec(tiny_experiment_params(), caller="t")

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="t: expected a JobSpec"):
            require_spec(42, caller="t")


class TestLegacyRunnerShims:
    """The removed legacy entry-point forms now raise ``TypeError``."""

    def test_run_fig6_rejects_legacy_params(self):
        from repro.experiments.fig6 import run_fig6

        params = tiny_experiment_params(n_trials=4, n_configs=2)
        with pytest.raises(TypeError, match="run_fig6: expected a JobSpec"):
            run_fig6(params)

    def test_reproduce_all_rejects_legacy_keywords(self):
        from repro.experiments.reproduce import reproduce_all

        with pytest.raises(TypeError):
            reproduce_all(scale=0.02, seed=5, trial_mode="table")

    def test_reproduce_all_rejects_spec_plus_legacy_kwargs(self):
        from repro.experiments.reproduce import reproduce_all

        spec = JobSpec(
            experiment="reproduce", config=tiny_config_params(), seed=1
        )
        with pytest.raises(TypeError, match="scale"):
            reproduce_all(spec, scale=0.5)

    def test_robustness_spec_supplies_the_grid(self):
        from repro.experiments.robustness import run_robustness

        spec = JobSpec(
            experiment="robustness",
            config=tiny_config_params(),
            n_configs=1,
            n_trials=4,
            seed=9,
            trial_mode="table",
            rates=(0.0, 0.5),
            kinds=("packet_in_loss",),
        )
        result = run_robustness(spec)
        assert result.rates == (0.0, 0.5)
        assert result.kinds == ("packet_in_loss",)


def test_experiment_params_unchanged_by_spec_bridge():
    """to_params() must not invent or drop ExperimentParams fields."""
    params = ExperimentParams(config=tiny_config_params(), seed=7)
    spec = JobSpec.from_params(params)
    assert spec.to_params() == params
