"""Tests for the trial runners."""

import numpy as np
import pytest

from repro.core.attacker import NaiveAttacker, RandomAttacker
from repro.experiments.trials import TrialResult, _TableWorld, run_trial
from repro.flows.config import ConfigGenerator

from tests.experiments.conftest import tiny_config_params


@pytest.fixture(scope="module")
def config():
    return ConfigGenerator(tiny_config_params(), seed=5).sample()


class TestTableWorld:
    def test_arrival_miss_installs(self, config):
        world = _TableWorld(config)
        covered = config.target_flow
        assert not world.arrival(covered, 0.0)  # miss
        assert world.arrival(covered, 0.01)  # hit (well within any TTL)

    def test_probe_returns_bits(self, config):
        world = _TableWorld(config)
        flow = config.universe.flows[config.target_flow]
        assert world.probe(flow) == 0
        assert world.probe(flow) == 1

    def test_rule_expiry(self, config):
        world = _TableWorld(config)
        world.arrival(config.target_flow, 0.0)
        timeout = max(r.timeout_steps for r in config.policy) * config.delta
        assert not world.arrival(config.target_flow, timeout + 1.0)


class TestTableTrial:
    def test_structure(self, config):
        attackers = [NaiveAttacker(config.target_flow), RandomAttacker(0.5, np.random.default_rng(0))]
        trial = run_trial(config, attackers, seed=1, mode="table")
        assert trial.ground_truth in (0, 1)
        assert set(trial.decisions) == {"naive", "random"}
        assert trial.outcomes["naive"] in ((0,), (1,))
        assert trial.outcomes["random"] == ()

    def test_deterministic_given_seed(self, config):
        attackers = [NaiveAttacker(config.target_flow)]
        first = run_trial(config, attackers, seed=42, mode="table")
        second = run_trial(config, attackers, seed=42, mode="table")
        assert first.ground_truth == second.ground_truth
        assert first.outcomes == second.outcomes

    def test_different_seeds_vary(self, config):
        attackers = [NaiveAttacker(config.target_flow)]
        truths = {
            run_trial(config, attackers, seed=s, mode="table").ground_truth
            for s in range(25)
        }
        assert truths == {0, 1}

    def test_correct_helper(self, config):
        trial = TrialResult(
            ground_truth=1, decisions={"naive": 1}, outcomes={"naive": (1,)}
        )
        assert trial.correct("naive")


class TestNetworkTrial:
    def test_matches_table_trial_semantics(self, config):
        # With identical seeds the network trial's probe outcome must
        # agree with the idealised table trial (latency noise cannot
        # flip a 4 ms gap against a 1 ms threshold).
        attackers = [NaiveAttacker(config.target_flow)]
        for seed in range(5):
            table = run_trial(config, attackers, seed=seed, mode="table")
            network = run_trial(config, attackers, seed=seed, mode="network")
            assert network.ground_truth == table.ground_truth
            assert network.outcomes["naive"] == table.outcomes["naive"]

    def test_probe_free_attacker_skips_network(self, config):
        trial = run_trial(
            config, [RandomAttacker(0.5, rng=np.random.default_rng(0))],
            seed=3, mode="network",
        )
        assert trial.outcomes["random"] == ()


class TestDispatch:
    def test_mode_dispatch(self, config):
        attackers = [NaiveAttacker(config.target_flow)]
        assert run_trial(config, attackers, 1, mode="table")
        assert run_trial(config, attackers, 1, mode="network")

    def test_unknown_mode(self, config):
        with pytest.raises(ValueError, match="unknown trial mode"):
            run_trial(config, [], 1, mode="quantum")

    def test_defense_requires_network_mode(self, config):
        with pytest.raises(ValueError, match="network-mode"):
            run_trial(config, [], 1, mode="table", defense_factory=object)
