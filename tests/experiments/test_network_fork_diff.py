"""Differential suite: network trials on forks == one replica per attacker.

Production simulates a network-mode trial's detection window once and
forks the post-window network per distinct probe plan
(:func:`repro.experiments.trials.run_trial`).  The oracle
(:mod:`tests.oracles.trials`) builds one identically seeded replica per
probing attacker.  The two must return equal :class:`TrialResult`
objects -- ground truth, decisions and outcome bits -- across configs,
seeds, lineups with duplicate and empty plans, defenses, every fault
kind and probe retries, and the adaptive trial too.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveModelAttacker
from repro.core.attacker import Attacker, NaiveAttacker, RandomAttacker
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.countermeasures.delay import DelayDefense
from repro.countermeasures.proactive import ProactiveDefense
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator, ConfigParams

from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)
from tests.oracles import trials as oracle

SEEDS = (0, 1, 17, 2**40 + 3)


class PlannedAttacker(Attacker):
    """A fixed probe plan; decides by the parity of the observed hits."""

    def __init__(self, name, probes):
        self.name = name
        self.probes = tuple(probes)

    def plan(self):
        return self.probes

    def decide(self, outcomes):
        return sum(bit or 0 for bit in outcomes) % 2


def mixed_lineup(config):
    last = len(config.universe) - 1
    return (
        NaiveAttacker(config.target_flow),
        PlannedAttacker("pair", (0, last)),
        PlannedAttacker("triple", (last, 0, 1)),
        RandomAttacker(0.5, rng=np.random.default_rng(7)),
    )


def duplicate_lineup(config):
    target = config.target_flow
    return (
        PlannedAttacker("empty", ()),
        NaiveAttacker(target),
        PlannedAttacker("same", (target,)),
        RandomAttacker(0.4, rng=np.random.default_rng(3)),
        PlannedAttacker("pair", (0, 1)),
        PlannedAttacker("pair_again", (0, 1)),
    )


def empty_lineup(config):
    return (PlannedAttacker("empty", ()), RandomAttacker(0.3, rng=np.random.default_rng(1)))


LINEUPS = {
    "mixed": mixed_lineup,
    "duplicates": duplicate_lineup,
    "empty": empty_lineup,
}

CONFIGS = {
    "tiny3": ConfigGenerator(tiny_config_params(), seed=3).sample(),
    "tiny8": ConfigGenerator(tiny_config_params(), seed=8).sample(),
    "sim23": ConfigGenerator(
        ConfigParams(n_rules=14, cache_size=12), seed=23
    ).sample(),
}


def both(config, lineup, seed, **kwargs):
    """The trial on the oracle and in production, fresh lineups each."""
    expected = oracle.run_network_trial(config, lineup(config), seed, **kwargs)
    actual = trials.run_trial(
        config, lineup(config), seed, mode="network", **kwargs
    )
    return expected, actual


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("lineup_name", sorted(LINEUPS))
def test_seeds_configs_lineups(seed, config_name, lineup_name):
    expected, actual = both(
        CONFIGS[config_name], LINEUPS[lineup_name], seed
    )
    assert actual == expected


@pytest.mark.parametrize("factory", [DelayDefense, ProactiveDefense])
@pytest.mark.parametrize("lineup_name", ["mixed", "duplicates"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_defense_factories(factory, lineup_name, seed):
    config = CONFIGS["tiny3"]
    expected, actual = both(
        config, LINEUPS[lineup_name], seed, defense_factory=factory
    )
    assert actual == expected


FAULT_PLANS = {
    "packet_in_loss": FaultPlan(packet_in_loss=0.4, seed=11),
    "flow_mod_loss": FaultPlan(flow_mod_loss=0.5, seed=12),
    "probe_reply_loss": FaultPlan(probe_reply_loss=0.5, seed=13),
    "jitter": FaultPlan(controller_jitter=2e-3, seed=14),
    "outage": FaultPlan(outage_rate=0.3, outage_duration=0.02, seed=15),
}


@pytest.mark.parametrize("retries", [0, 1])
@pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_fault_kinds_and_retries(kind, retries, seed):
    config = CONFIGS["tiny8"]
    expected, actual = both(
        config,
        mixed_lineup,
        seed,
        fault_plan=FAULT_PLANS[kind],
        probe_retries=retries,
        defense_factory=DelayDefense,
    )
    assert actual == expected


def test_faults_leave_some_probes_unanswered():
    # The fault cases above must exercise unanswered probes, or they
    # would not pin the None bits.
    config = CONFIGS["tiny8"]
    outcomes = [
        bit
        for seed in SEEDS
        for bits in trials.run_trial(
            config,
            mixed_lineup(config),
            seed,
            mode="network",
            fault_plan=FAULT_PLANS["probe_reply_loss"],
        ).outcomes.values()
        for bit in bits
    ]
    assert None in outcomes


def test_harness_model_attackers():
    params = tiny_experiment_params(trial_mode="network")
    generator = ConfigGenerator(tiny_config_params(), seed=44)
    harness = ConfigHarness(generator.sample(), params, rng=generator.rng)

    def lineup(config):
        return (
            harness.naive_attacker,
            harness.model_attacker,
            harness.constrained_attacker,
            RandomAttacker(0.5, rng=np.random.default_rng(9)),
        )

    for seed in SEEDS:
        expected, actual = both(harness.config, lineup, seed)
        assert actual == expected


def merged(adaptive_trial, baseline_trial):
    """One result: the adaptive session's and the same-seed baselines'."""
    assert adaptive_trial.ground_truth == baseline_trial.ground_truth
    return trials.TrialResult(
        adaptive_trial.ground_truth,
        {**adaptive_trial.decisions, **baseline_trial.decisions},
        {**adaptive_trial.outcomes, **baseline_trial.outcomes},
    )


@pytest.fixture(scope="module")
def adaptive():
    config = CONFIGS["tiny8"]
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    inference = ReconInference(model, config.target_flow, config.window_steps)
    return config, AdaptiveModelAttacker(inference, max_probes=2)


@pytest.mark.parametrize("lineup_name", [None] + sorted(LINEUPS))
@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_network_trial(adaptive, lineup_name, seed):
    config, attacker = adaptive

    def baselines():
        return LINEUPS[lineup_name](config) if lineup_name else ()

    expected = oracle.run_adaptive_trial(
        config, attacker, seed, baselines=baselines()
    )
    actual = merged(
        trials.run_adaptive_trial(config, attacker, seed, mode="network"),
        trials.run_trial(config, baselines(), seed, mode="network"),
    )
    assert actual == expected
