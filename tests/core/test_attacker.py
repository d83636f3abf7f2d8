"""Tests for the attacker strategies."""

import numpy as np
import pytest

from repro.core.attacker import (
    ConstrainedModelAttacker,
    ModelAttacker,
    NaiveAttacker,
    RandomAttacker,
)
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe

from tests.conftest import make_policy, make_universe


@pytest.fixture
def inference():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=30)


class TestNaiveAttacker:
    def test_probes_target(self):
        attacker = NaiveAttacker(target_flow=5)
        assert attacker.plan() == (5,)

    def test_decision_is_outcome_bit(self):
        attacker = NaiveAttacker(target_flow=5)
        assert attacker.decide([1]) == 1
        assert attacker.decide([0]) == 0

    def test_rejects_wrong_arity(self):
        attacker = NaiveAttacker(target_flow=5)
        with pytest.raises(ValueError):
            attacker.decide([1, 0])


class TestModelAttacker:
    def test_plans_optimal_probe(self, inference):
        from repro.core.selection import best_single_probe

        attacker = ModelAttacker(inference)
        assert attacker.plan() == best_single_probe(inference).probes

    def test_query_decision(self, inference):
        attacker = ModelAttacker(inference, decision="query")
        assert attacker.decide([1]) == 1
        assert attacker.decide([0]) == 0

    def test_map_decision_uses_tree(self, inference):
        attacker = ModelAttacker(inference, decision="map")
        table = inference.outcome_table(attacker.probes)
        for outcome in table.outcome_probs:
            assert attacker.decide(outcome) == table.decide(outcome)

    def test_multi_probe_plan(self, inference):
        attacker = ModelAttacker(inference, n_probes=2, decision="map")
        assert len(attacker.plan()) == 2

    def test_multi_probe_always_uses_tree(self, inference):
        attacker = ModelAttacker(inference, n_probes=2, decision="query")
        # With two probes, "query" cannot apply; the tree decides.
        outcome = attacker.decide((0, 0))
        assert outcome in (0, 1)

    def test_wrong_arity_rejected(self, inference):
        attacker = ModelAttacker(inference)
        with pytest.raises(ValueError):
            attacker.decide([0, 1])

    def test_invalid_decision_rule(self, inference):
        with pytest.raises(ValueError):
            ModelAttacker(inference, decision="vibes")

    def test_predicted_gain_exposed(self, inference):
        attacker = ModelAttacker(inference)
        assert attacker.predicted_gain >= 0.0

    def test_candidate_restriction(self, inference):
        attacker = ModelAttacker(inference, candidates=[2, 3])
        assert attacker.probes[0] in (2, 3)


class TestConstrainedModelAttacker:
    def test_never_probes_target(self, inference):
        attacker = ConstrainedModelAttacker(inference)
        assert inference.target_flow not in attacker.plan()

    def test_respects_extra_candidates(self, inference):
        # The best probe among every flow but the target.
        best = best_single_probe(inference, candidates=[1, 2, 3])
        assert ConstrainedModelAttacker(inference).plan() == best.probes

    def test_no_alternatives_rejected(self):
        # A universe holding only the target leaves nothing to probe.
        model = CompactModel(
            make_policy([({0}, 4)]), make_universe([0.3]), 0.25, cache_size=1
        )
        inference = ReconInference(model, target_flow=0, window_steps=30)
        with pytest.raises(ValueError, match="besides the target"):
            ConstrainedModelAttacker(inference)


class TestRandomAttacker:
    def test_sends_no_probes(self):
        attacker = RandomAttacker(0.7, np.random.default_rng(0))
        assert attacker.plan() == ()

    def test_rejects_outcomes(self):
        attacker = RandomAttacker(0.7, np.random.default_rng(0))
        with pytest.raises(ValueError):
            attacker.decide([1])

    def test_sample_mode_frequency(self):
        rng = np.random.default_rng(0)
        attacker = RandomAttacker(0.7, rng=rng)
        decisions = [attacker.decide(()) for _ in range(2000)]
        assert 0.65 < np.mean(decisions) < 0.75

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            RandomAttacker(1.5, np.random.default_rng(0))

    def test_mode_validation(self):
        # The paper's random attacker always samples its prior: there
        # is no mode to choose.
        with pytest.raises(TypeError):
            RandomAttacker(0.5, np.random.default_rng(0), mode="map")  # type: ignore[call-arg]
