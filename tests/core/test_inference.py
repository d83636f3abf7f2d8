"""Tests for reconnaissance inference (Section V probabilities)."""

import math

import numpy as np
import pytest

from repro.core.compact_model import CompactModel
from repro.core.gain import binary_entropy
from repro.core.inference import OutcomeTable, ReconInference
from repro.experiments.screening import paper_screen

from tests.conftest import make_policy, make_universe
from tests.oracles.probes import conditional_entropy_binary

DELTA = 0.25


@pytest.fixture
def model():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    return CompactModel(policy, universe, DELTA, cache_size=2)


@pytest.fixture
def inference(model):
    return ReconInference(model, target_flow=0, window_steps=30)


class TestPriors:
    def test_prior_absent_is_chain_mass(self, inference):
        assert inference.prior_absent() == pytest.approx(
            inference.dist_absent.sum()
        )

    def test_prior_matches_geometric(self, inference, model):
        rates = np.asarray(model.context.step_rates)
        p_target = rates[0] / (1.0 + rates.sum())
        assert inference.prior_absent() == pytest.approx(
            (1.0 - p_target) ** 30
        )

    def test_poisson_prior_converges_to_chain_prior_as_delta_shrinks(self):
        # At the fixture's coarse Delta the two priors differ (the
        # normalisation correction); they converge as Delta -> 0 over a
        # fixed wall-clock window.
        policy_specs = [({0}, 4), ({0, 1}, 6), ({2}, 5)]
        rates = [0.3, 0.4, 0.5, 0.2]
        window_seconds = 7.5

        def gap(delta):
            scale = DELTA / delta
            specs = [
                (covered, max(1, int(t * scale)))
                for covered, t in policy_specs
            ]
            model = CompactModel(
                make_policy(specs), make_universe(rates), delta, 2
            )
            inf = ReconInference(
                model, target_flow=0, window_steps=int(window_seconds / delta)
            )
            # The paper's closed-form prior e^{-lambda_f T Delta}.
            poisson = math.exp(
                -model.context.step_rates[0] * inf.window_steps
            )
            return abs(inf.prior_absent() - poisson)

        assert gap(0.025) < gap(0.25)
        assert gap(0.025) < 0.01

    def test_prior_entropy(self, inference):
        assert inference.prior_entropy() == pytest.approx(
            binary_entropy(inference.prior_absent())
        )

    def test_zero_window(self, model):
        inference = ReconInference(model, target_flow=0, window_steps=0)
        assert inference.prior_absent() == pytest.approx(1.0)

    def test_negative_window_rejected(self, model):
        with pytest.raises(ValueError):
            ReconInference(model, target_flow=0, window_steps=-1)


class TestOutcomeTables:
    def test_outcome_probs_sum_to_one(self, inference):
        table = inference.outcome_table((0, 1))
        assert sum(table.outcome_probs.values()) == pytest.approx(1.0)

    def test_joint_bounded_by_outcome(self, inference):
        table = inference.outcome_table((0,))
        for outcome, p_q in table.outcome_probs.items():
            assert table.joint_absent.get(outcome, 0.0) <= p_q + 1e-12

    def test_joint_sums_to_prior(self, inference):
        table = inference.outcome_table((1,))
        assert sum(table.joint_absent.values()) == pytest.approx(
            inference.prior_absent()
        )

    def test_posteriors_complement(self, inference):
        table = inference.outcome_table((0,))
        for outcome in table.outcome_probs:
            total = table.posterior_absent(outcome) + table.posterior_present(
                outcome
            )
            assert total == pytest.approx(1.0)

    def test_posterior_for_impossible_outcome(self, inference):
        table = inference.outcome_table((0,))
        assert table.posterior_absent((9, 9)) == 0.5

    def test_tables_memoised(self, inference):
        assert inference.outcome_table((0,)) is inference.outcome_table((0,))

    def test_decide_is_map(self):
        table = OutcomeTable(
            probes=(0,),
            outcome_probs={(0,): 0.5, (1,): 0.5},
            joint_absent={(0,): 0.4, (1,): 0.1},
        )
        assert table.decide((0,)) == 0  # P(absent | 0) = 0.8
        assert table.decide((1,)) == 1  # P(absent | 1) = 0.2


class TestInformationGain:
    def test_gain_non_negative(self, inference, model):
        for flow in range(model.context.n_flows):
            assert inference.information_gain((flow,)) >= 0.0

    def test_gain_bounded_by_prior_entropy(self, inference, model):
        prior_entropy = inference.prior_entropy()
        for flow in range(model.context.n_flows):
            assert inference.information_gain((flow,)) <= prior_entropy + 1e-9

    def test_uncovered_probe_gains_nothing(self, inference):
        # Flow 3 is covered by no rule: its probe outcome is always 0.
        assert inference.information_gain((3,)) == pytest.approx(0.0)

    def test_more_probes_never_reduce_gain(self, inference):
        single = inference.information_gain((0,))
        pair = inference.information_gain((0, 1))
        assert pair >= single - 1e-9

    def test_gain_decomposition(self, inference):
        probes = (0, 1)
        gain = inference.information_gain(probes)
        table = inference.outcome_table(probes)
        expected = inference.prior_entropy() - conditional_entropy_binary(
            table.joint_absent, table.outcome_probs
        )
        assert gain == pytest.approx(max(expected, 0.0))


class TestHitProbability:
    def test_consistent_with_outcome_table(self, inference):
        for flow in range(3):
            table = inference.outcome_table((flow,))
            assert inference.hit_probability(flow) == pytest.approx(
                table.outcome_probs.get((1,), 0.0)
            )

    def test_uncovered_flow_never_hits(self, inference):
        assert inference.hit_probability(3) == 0.0


class TestViability:
    def test_uncovered_probe_not_viable(self, inference):
        assert not paper_screen(inference, 3)

    def test_viability_matches_posteriors(self, inference, model):
        for flow in range(model.context.n_flows):
            table = inference.outcome_table((flow,))
            p_hit = table.outcome_probs.get((1,), 0.0)
            p_miss = table.outcome_probs.get((0,), 0.0)
            expected = (
                p_hit > 0.0
                and p_miss > 0.0
                and table.posterior_absent((0,)) > 0.5
                and table.posterior_present((1,)) > 0.5
            )
            assert paper_screen(inference, flow) == expected
