"""Defenses driven through the full trial pipeline (harness-level)."""

import numpy as np
import pytest

from repro.countermeasures.delay import DelayDefense
from repro.countermeasures.proactive import ProactiveDefense
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness
from repro.flows.config import ConfigGenerator
from repro.simulator.probing import Prober

from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)


@pytest.fixture(scope="module")
def harness():
    params = tiny_experiment_params(trial_mode="network", n_trials=6)
    generator = ConfigGenerator(tiny_config_params(), seed=44)
    return ConfigHarness(generator.sample(), params, rng=generator.rng)


class TestDefenseFactoryPlumbing:
    def test_fresh_defense_per_trial(self, harness, monkeypatch):
        created = []
        probed = []

        def factory():
            defense = DelayDefense(first_k=2)
            created.append(defense)
            return defense

        class RecordingProber(Prober):
            def __init__(self, network, **kwargs):
                probed.append(network.defense)
                super().__init__(network, **kwargs)

        monkeypatch.setattr(trials, "Prober", RecordingProber)
        result = harness.run_trials(n_trials=3, defense_factory=factory)
        # One factory call per trial: the window runs once, and every
        # probing fork of it carries its own copy of the defense.
        assert len(created) == 3
        assert result.trials == 3
        # Every probing replica holds a defense object of its own, distinct
        # from every other replica's, in the same trial and across trials;
        # each trial's own defense probes its first distinct plan.
        assert len(probed) >= 3
        assert all(isinstance(defense, DelayDefense) for defense in probed)
        assert len({id(defense) for defense in probed}) == len(probed)
        assert {id(defense) for defense in created} <= {
            id(defense) for defense in probed
        }

    def test_proactive_defense_forces_hits(self, harness):
        result = harness.run_trials(
            n_trials=4,
            defense_factory=lambda: ProactiveDefense(),
            keep_trials=True,
        )
        for trial in result.trial_results:
            for name in ("naive", "model"):
                assert all(bit == 1 for bit in trial.outcomes[name])

    def test_delay_defense_forces_misses(self, harness):
        result = harness.run_trials(
            n_trials=4,
            defense_factory=lambda: DelayDefense(first_k=3),
            keep_trials=True,
        )
        for trial in result.trial_results:
            for name in ("naive", "model"):
                assert all(bit == 0 for bit in trial.outcomes[name])

    def test_table_mode_rejects_defenses(self):
        params = tiny_experiment_params(trial_mode="table")
        generator = ConfigGenerator(tiny_config_params(), seed=45)
        harness = ConfigHarness(generator.sample(), params, rng=generator.rng)
        with pytest.raises(ValueError, match="network-mode"):
            harness.run_trials(
                n_trials=1, defense_factory=lambda: DelayDefense()
            )
