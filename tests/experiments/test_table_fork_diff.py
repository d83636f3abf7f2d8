"""Differential suite: table trials on forks == one replay per attacker.

Production replays a table-mode trial's detection window once and forks
the post-window table world per distinct probe plan
(:func:`repro.experiments.trials.run_trial` with ``mode="table"``).  The
oracle (:mod:`tests.oracles.trials`) replays the window on a fresh
table world per probing attacker.  The two must return equal
:class:`TrialResult` objects over the network suite's seeds, configs
and lineups, every fault kind with and without a probe retry, harness
attackers, and the adaptive trial with and without probing baselines.
"""

import pytest

from repro.core.adaptive import AdaptiveModelAttacker
from repro.core.attacker import RandomAttacker
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness
from repro.flows.config import ConfigGenerator

from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)
from tests.experiments.test_network_fork_diff import (
    CONFIGS,
    FAULT_PLANS,
    LINEUPS,
    SEEDS,
    mixed_lineup,
)
from tests.oracles import trials as oracle


def both(config, lineup, seed, **kwargs):
    """The trial on the oracle and in production, fresh lineups each."""
    expected = oracle.run_table_trial(config, lineup(config), seed, **kwargs)
    actual = trials.run_trial(
        config, lineup(config), seed, mode="table", **kwargs
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


@pytest.mark.parametrize("retries", [0, 1])
@pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
@pytest.mark.parametrize("config_name", ["tiny8", "sim23"])
def test_fault_kinds_and_retries(kind, retries, config_name):
    config = CONFIGS[config_name]
    for seed in SEEDS:
        expected, actual = both(
            config,
            LINEUPS["duplicates"],
            seed,
            fault_plan=FAULT_PLANS[kind],
            probe_retries=retries,
        )
        assert actual == expected


def test_faults_leave_some_probes_unanswered():
    # The fault cases above must exercise unanswered probes and
    # stranded installs, or they would not pin the injector's fork.
    config = CONFIGS["tiny8"]
    outcomes = [
        bit
        for kind in ("packet_in_loss", "probe_reply_loss")
        for seed in SEEDS
        for bits in trials.run_trial(
            config,
            mixed_lineup(config),
            seed,
            mode="table",
            fault_plan=FAULT_PLANS[kind],
        ).outcomes.values()
        for bit in bits
    ]
    assert None in outcomes


def test_harness_model_attackers():
    params = tiny_experiment_params(trial_mode="table")
    generator = ConfigGenerator(tiny_config_params(), seed=44)
    harness = ConfigHarness(generator.sample(), params, rng=generator.rng)

    def lineup(config):
        return (
            harness.naive_attacker,
            harness.model_attacker,
            harness.constrained_attacker,
            RandomAttacker(0.5, seed=9),
        )

    for seed in SEEDS:
        expected, actual = both(harness.config, lineup, seed)
        assert actual == expected


@pytest.fixture(scope="module")
def adaptive():
    config = CONFIGS["tiny8"]
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    inference = ReconInference(model, config.target_flow, config.window_steps)
    return config, AdaptiveModelAttacker(inference, max_probes=3)


@pytest.mark.parametrize("lineup_name", [None] + sorted(LINEUPS))
@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_table_trial(adaptive, lineup_name, seed):
    config, attacker = adaptive

    def baselines():
        return LINEUPS[lineup_name](config) if lineup_name else ()

    expected = oracle.run_adaptive_table_trial(
        config, attacker, seed, baselines=baselines()
    )
    actual = trials.run_adaptive_trial(
        config, attacker, seed, mode="table", baselines=baselines()
    )
    assert actual == expected
