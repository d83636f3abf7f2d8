"""Tests for the per-configuration harness."""

import pytest

from repro.experiments.harness import (
    ConfigHarness,
    sample_screened_harnesses,
)
from repro.flows.config import ConfigGenerator

from tests.experiments.conftest import tiny_experiment_params


@pytest.fixture(scope="module")
def harness():
    params = tiny_experiment_params(n_trials=12)
    return ConfigHarness.sample(params)


class TestConstruction:
    def test_attacker_lineup(self, harness):
        names = [attacker.name for attacker in harness.attackers()]
        assert names == ["naive", "model", "constrained", "random"]

    def test_model_matches_config(self, harness):
        assert harness.model.context.cache_size == harness.config.cache_size
        assert len(harness.model.policy) == len(harness.config.policy)

    def test_inference_target(self, harness):
        assert harness.inference.target_flow == harness.config.target_flow

    def test_constrained_avoids_target(self, harness):
        assert (
            harness.config.target_flow
            not in harness.constrained_attacker.plan()
        )


class TestScreens:
    def test_screen_is_boolean(self, harness):
        assert harness.is_screened_in() in (True, False)

    def test_optimal_differs_consistent(self, harness):
        differs = harness.optimal_differs_from_target()
        assert differs == (
            harness.model_attacker.probes[0] != harness.config.target_flow
        )


class TestRunTrials:
    def test_result_structure(self, harness):
        result = harness.run_trials(n_trials=8)
        assert result.trials == 8
        assert set(result.accuracies) == {
            "naive",
            "model",
            "constrained",
            "random",
        }
        for accuracy in result.accuracies.values():
            assert 0.0 <= accuracy <= 1.0

    def test_improvement_definition(self, harness):
        result = harness.run_trials(n_trials=8)
        assert result.improvement == pytest.approx(
            result.accuracies["model"] - result.accuracies["naive"]
        )

    def test_keep_trials(self, harness):
        result = harness.run_trials(n_trials=4, keep_trials=True)
        assert len(result.trial_results) == 4

    def test_custom_attackers(self, harness):
        from repro.core.attacker import NaiveAttacker

        result = harness.run_trials(
            n_trials=4, attackers=[NaiveAttacker(harness.config.target_flow)]
        )
        assert set(result.accuracies) == {"naive"}

    def test_metadata_recorded(self, harness):
        result = harness.run_trials(n_trials=4)
        assert 0.0 <= result.prior_absent <= 1.0
        assert result.n_rules_covering_target == len(
            harness.config.rules_covering_target()
        )
        assert result.optimal_probe == harness.model_attacker.probes[0]


class TestSampleScreened:
    def test_returns_requested_count(self):
        params = tiny_experiment_params(n_trials=4)
        harnesses = sample_screened_harnesses(params, 2)
        assert len(harnesses) == 2
        assert all(h.is_screened_in() for h in harnesses)

    def test_screen_can_be_disabled(self):
        params = tiny_experiment_params(screen=False)
        harnesses = sample_screened_harnesses(params, 2)
        assert len(harnesses) == 2

    def test_gives_up_when_impossible(self):
        params = tiny_experiment_params()
        generator = ConfigGenerator(params.config, seed=9)
        with pytest.raises(RuntimeError, match="accepted"):
            sample_screened_harnesses(
                params,
                5,
                require_optimal_differs=True,
                max_attempts_factor=1,
                generator=generator,
            )


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda h, p: h.run_trials(n_trials=0),
            "n_configs and n_trials must be >= 1",
        ),
        (
            lambda h, p: h.run_trials(n_trials=-3),
            "n_configs and n_trials must be >= 1",
        ),
        (
            lambda h, p: h.run_trials(trial_jobs=0),
            "trial_jobs must be >= 1",
        ),
        (
            lambda h, p: h.run_trials(trial_jobs=-5),
            "trial_jobs must be >= 1",
        ),
        (
            lambda h, p: sample_screened_harnesses(p, 1, trial_jobs=0),
            "trial_jobs must be >= 1",
        ),
        (
            lambda h, p: sample_screened_harnesses(p, 1, trial_jobs=-5),
            "trial_jobs must be >= 1",
        ),
    ],
    ids=[
        "run_trials-n_trials-0",
        "run_trials-n_trials-negative",
        "run_trials-trial_jobs-0",
        "run_trials-trial_jobs-negative",
        "sample_screened-trial_jobs-0",
        "sample_screened-trial_jobs-negative",
    ],
)
def test_overrides_validated_like_params(harness, call, message):
    """Overrides are held to ``ExperimentParams``' own checks."""
    params = tiny_experiment_params()
    with pytest.raises(ValueError) as params_error:
        tiny_experiment_params(
            **{"trial_jobs" if "trial_jobs" in message else "n_trials": 0}
        )
    state = harness.rng.bit_generator.state
    with pytest.raises(ValueError) as error:
        call(harness, params)
    assert str(error.value) == str(params_error.value) == message
    # Rejected before any draw from the harness generator.
    assert harness.rng.bit_generator.state == state
