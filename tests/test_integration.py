"""End-to-end integration tests across the whole stack.

These are the tests that tie the reproduction together: the analytic
model's predictions against the packet-level simulator, the attack
pipeline against ground truth, and the headline demo.  A few take
several seconds; they are the price of confidence.
"""

import numpy as np
import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.experiments.harness import ConfigHarness
from repro.experiments.params import ExperimentParams
from repro.experiments.trials import run_trial
from repro.flows.arrival import sample_schedule
from repro.flows.config import ConfigGenerator, ConfigParams

from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)


@pytest.mark.slow
class TestModelTracksSimulator:
    """The compact model must predict what the simulator does."""

    def test_hit_probabilities_match_table_replay(self):
        config = ConfigGenerator(tiny_config_params(), seed=5).sample()
        model = CompactModel(
            config.policy, config.universe, config.delta, config.cache_size
        )
        inference = ReconInference(
            model, config.target_flow, config.window_steps
        )
        rng = np.random.default_rng(9)
        n_trials = 2500
        hits = np.zeros(len(config.universe))
        from repro.experiments.trials import _TableWorld

        for _ in range(n_trials):
            world = _TableWorld(config)
            for arrival in sample_schedule(
                config.universe, config.window_seconds, rng
            ):
                world.arrival(arrival.flow_index, arrival.time)
            for flow in range(len(config.universe)):
                entry = world.table.peek(
                    config.universe.flows[flow], config.window_seconds
                )
                if entry is not None:
                    hits[flow] += 1
        empirical = hits / n_trials
        predicted = np.array(
            [
                inference.hit_probability(flow)
                for flow in range(len(config.universe))
            ]
        )
        assert np.abs(predicted - empirical).max() < 0.06

    def test_conditional_probabilities_match_ground_truth(self):
        """P(X̂=0 | Q=q) predicted vs measured over many trials."""
        config = ConfigGenerator(
            tiny_config_params(absence_range=(0.3, 0.8)), seed=11
        ).sample()
        harness = ConfigHarness(
            config,
            tiny_experiment_params(n_trials=2000),
            rng=np.random.default_rng(4),
        )
        probe = harness.model_attacker.probes[0]
        table = harness.inference.outcome_table((probe,))
        result = harness.run_trials(n_trials=2000)
        joint = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        for trial in result.trial_results:
            outcome = trial.outcomes["model"][0]
            joint[(trial.ground_truth, outcome)] += 1
        total = sum(joint.values())
        for q in (0, 1):
            p_q = (joint[(0, q)] + joint[(1, q)]) / total
            predicted_q = table.outcome_probs.get((q,), 0.0)
            assert predicted_q == pytest.approx(p_q, abs=0.07)
            if joint[(0, q)] + joint[(1, q)] > 50:
                empirical_absent = joint[(0, q)] / (
                    joint[(0, q)] + joint[(1, q)]
                )
                assert table.posterior_absent((q,)) == pytest.approx(
                    empirical_absent, abs=0.1
                )


class TestNetworkVsTableTrials:
    def test_agree_at_paper_scale(self):
        config = ConfigGenerator(ConfigParams(), seed=13).sample()
        harness = ConfigHarness(
            config,
            ExperimentParams(n_trials=1, seed=1),
            rng=np.random.default_rng(1),
        )
        attackers = harness.attackers()
        for seed in range(4):
            network = run_trial(config, attackers, seed=seed, mode="network")
            table = run_trial(config, attackers, seed=seed, mode="table")
            assert network.ground_truth == table.ground_truth
            for name in ("naive", "model", "constrained"):
                assert network.outcomes[name] == table.outcomes[name], name


@pytest.mark.slow
class TestMonitorAgreesWithModel:
    def test_presence_fraction_tracks_stationary_marginal(self):
        """Long-run cache residency in the DES matches the chain.

        One long simulated run, sampled by the monitor, against the
        compact chain's late-window marginal for the same rule.
        """
        from repro.core.compact_model import CompactModel
        from tests.oracles.monitor import NetworkMonitor
        from repro.simulator.network import Network

        config = ConfigGenerator(tiny_config_params(), seed=23).sample()
        model = CompactModel(
            config.policy, config.universe, config.delta, config.cache_size
        )
        horizon = 120.0
        steps = int(horizon / config.delta)
        marginals = model.rule_presence_marginals(
            model.distribution_after(steps)
        )

        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(3),
        )
        monitor = NetworkMonitor(network, sample_interval=0.1)
        monitor.arm(until=horizon)
        schedule = sample_schedule(
            config.universe, horizon, np.random.default_rng(4)
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(horizon)

        # Compare on the busiest rule (the one with the tightest
        # empirical estimate from a single run).
        busiest = int(np.argmax(marginals))
        fraction = monitor.presence_fraction(
            config.policy[busiest].name
        )
        assert fraction == pytest.approx(marginals[busiest], abs=0.12)


class TestQuickDemo:
    def test_demo_text(self):
        from repro import quick_attack_demo

        text = quick_attack_demo(seed=3)
        assert "optimal probe" in text
        assert "naive" in text and "model" in text


class TestPaperScalePipeline:
    def test_one_screened_config_end_to_end(self):
        """Paper-scale config: screen, probe selection, 10 trials."""
        params = ExperimentParams(
            n_trials=10, seed=2017, trial_mode="network"
        )
        harness = ConfigHarness.sample(params)
        result = harness.run_trials()
        assert result.trials == 10
        for accuracy in result.accuracies.values():
            assert 0.0 <= accuracy <= 1.0
        # The model attacker's probe is a valid flow index.
        assert 0 <= result.optimal_probe < len(harness.config.universe)
