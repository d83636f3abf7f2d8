"""Tests for the adaptive probing extension."""

import pytest

from repro.core.adaptive import AdaptiveModelAttacker, AdaptiveSession
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set

from tests.conftest import make_policy, make_universe


@pytest.fixture
def inference():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=30)


class TestSessionProtocol:
    def test_next_then_observe(self, inference):
        session = AdaptiveSession(inference, max_probes=2)
        flow = session.next_probe()
        assert flow is not None
        session.observe(0)
        assert session.history == [(flow, 0)]

    def test_observe_without_pending_rejected(self, inference):
        session = AdaptiveSession(inference)
        with pytest.raises(RuntimeError, match="no probe pending"):
            session.observe(0)

    def test_double_next_rejected(self, inference):
        session = AdaptiveSession(inference)
        session.next_probe()
        with pytest.raises(RuntimeError, match="pending"):
            session.next_probe()

    def test_outcome_validation(self, inference):
        session = AdaptiveSession(inference)
        session.next_probe()
        with pytest.raises(ValueError):
            session.observe(2)

    def test_budget_enforced(self, inference):
        session = AdaptiveSession(inference, max_probes=1)
        flow = session.next_probe()
        session.observe(1)
        assert session.next_probe() is None
        del flow

    def test_no_repeats_by_default(self, inference):
        session = AdaptiveSession(inference, max_probes=4)
        seen = []
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            seen.append(flow)
            session.observe(0)
        assert len(seen) == len(set(seen))

    def test_candidate_restriction(self, inference):
        session = AdaptiveSession(inference, candidates=[1, 2], max_probes=5)
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            assert flow in (1, 2)
            session.observe(0)

    def test_validation(self, inference):
        with pytest.raises(ValueError):
            AdaptiveSession(inference, max_probes=0)
        with pytest.raises(ValueError):
            AdaptiveSession(inference, candidates=[])


class TestPosteriors:
    def test_initial_posterior_matches_prior(self, inference):
        session = AdaptiveSession(inference)
        assert session.posterior_absent() == pytest.approx(
            inference.prior_absent()
        )

    def test_posterior_consistent_with_outcome_table(self, inference):
        # After one observation, the session's posterior must equal the
        # non-adaptive outcome table's posterior for that probe.
        session = AdaptiveSession(inference, max_probes=1)
        flow = session.next_probe()
        table = inference.outcome_table((flow,))
        for bit in (0, 1):
            fresh = AdaptiveSession(inference, max_probes=1)
            assert fresh.next_probe() == flow
            fresh.observe(bit)
            assert fresh.posterior_absent() == pytest.approx(
                table.posterior_absent((bit,)), abs=1e-9
            )

    def test_evidence_mass_decreases(self, inference):
        session = AdaptiveSession(inference, max_probes=2)
        masses = [session.evidence_mass]
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            session.observe(0)
            masses.append(session.evidence_mass)
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_decide_is_map(self, inference):
        session = AdaptiveSession(inference)
        expected = 1 if 1.0 - session.posterior_absent() > 0.5 else 0
        assert session.decide() == expected


class TestAdaptiveVsNonAdaptive:
    def test_first_probe_is_best_single(self, inference):
        session = AdaptiveSession(inference)
        from repro.core.selection import best_single_probe

        assert session.next_probe() == best_single_probe(inference).probes[0]

    def test_expected_information_tracks_greedy_nonadaptive(
        self, inference
    ):
        # Myopic adaptivity re-optimises per branch but is pinned to the
        # best-single first probe; the sorted-order non-adaptive plan
        # can win a hair through perturbation ordering, so the bound is
        # soft (see repro.core.adaptive's optimality note).
        m = 2
        session = AdaptiveSession(inference, max_probes=m)
        adaptive_info = session.expected_information()
        nonadaptive = best_probe_set(inference, m, method="greedy")
        assert adaptive_info >= nonadaptive.gain - 0.01

    def test_adaptive_dominates_same_order_plan(self, inference):
        # Against the fixed plan that probes the same first flow and
        # then the best joint partner *in that order*, the adaptive
        # policy's expected information weakly dominates.
        session = AdaptiveSession(inference, max_probes=2)
        first = session.next_probe()
        best_fixed = -1.0
        for second in range(inference.model.context.n_flows):
            if second == first:
                continue
            table = inference.outcome_table((first, second))
            from repro.core.gain import information_gain

            gain = information_gain(
                inference.prior_absent(),
                table.joint_absent,
                table.outcome_probs,
            )
            best_fixed = max(best_fixed, gain)
        fresh = AdaptiveSession(inference, max_probes=2)
        assert fresh.expected_information() >= best_fixed - 1e-9


class TestAttackerWrapper:
    def test_sessions_independent(self, inference):
        attacker = AdaptiveModelAttacker(inference, max_probes=2)
        first = attacker.start_session()
        flow = first.next_probe()
        first.observe(1)
        second = attacker.start_session()
        assert second.history == []
        assert second.next_probe() == flow  # same fresh state

    def test_trial_runner_integration(self):
        from repro.experiments.trials import run_adaptive_trial, run_trial
        from repro.core.attacker import NaiveAttacker
        from repro.flows.config import ConfigGenerator

        from tests.experiments.conftest import tiny_config_params

        config = ConfigGenerator(tiny_config_params(), seed=8).sample()
        model = CompactModel(
            config.policy, config.universe, config.delta, config.cache_size
        )
        inference = ReconInference(
            model, config.target_flow, config.window_steps
        )
        attacker = AdaptiveModelAttacker(inference, max_probes=2)
        trial = run_adaptive_trial(config, attacker, seed=4, mode="table")
        baseline = run_trial(
            config, [NaiveAttacker(config.target_flow)], 4, mode="table"
        )
        assert "adaptive" in trial.decisions
        assert "naive" in baseline.decisions
        assert trial.ground_truth == baseline.ground_truth
        assert len(trial.outcomes["adaptive"]) <= 2

    def test_network_mode_integration(self):
        from repro.experiments.trials import run_adaptive_trial
        from repro.flows.config import ConfigGenerator

        from tests.experiments.conftest import tiny_config_params

        config = ConfigGenerator(tiny_config_params(), seed=8).sample()
        model = CompactModel(
            config.policy, config.universe, config.delta, config.cache_size
        )
        inference = ReconInference(
            model, config.target_flow, config.window_steps
        )
        attacker = AdaptiveModelAttacker(inference, max_probes=2)
        trial = run_adaptive_trial(config, attacker, seed=4, mode="network")
        assert trial.decisions["adaptive"] in (0, 1)
