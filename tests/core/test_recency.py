"""Tests for the recency (u-function) estimators.

The exact enumerator (a test oracle, like the Monte Carlo sampler) is
the reference for the independence approximation, whose per-state form
is an oracle too (production's bulk tables equal it bit for bit): the
Monte Carlo sampler must
agree statistically, and the independence approximation must agree in
direction (and exactly in the degenerate cases with closed forms).
"""

import math

import pytest

from repro.core.context import ModelContext
from repro.core.masks import mask_from_indices

from tests.conftest import make_policy, make_universe
from tests.oracles.recency import (
    ExactRecencyEstimator,
    IndependentRecencyEstimator,
    MonteCarloRecencyEstimator,
)


def make_context(rule_specs, rates, cache_size=2, delta=0.5):
    policy = make_policy(rule_specs)
    universe = make_universe(rates)
    return ModelContext(policy, universe, delta, cache_size)


@pytest.fixture
def disjoint_context():
    """Two disjoint rules with different timeouts and rates."""
    return make_context([({0}, 4), ({1}, 6)], [0.4, 0.8])


@pytest.fixture
def overlap_context():
    """Figure 2b: r0 covers {f0}; r1 covers {f0, f1} at lower priority."""
    return make_context([({0}, 4), ({0, 1}, 5)], [0.6, 0.3])


ALL_ESTIMATORS = [
    ExactRecencyEstimator,
    IndependentRecencyEstimator,
    lambda ctx: MonteCarloRecencyEstimator(ctx, n_samples=3000, seed=1),
]


class TestBasicContracts:
    @pytest.mark.parametrize("factory", ALL_ESTIMATORS)
    def test_empty_state(self, disjoint_context, factory):
        stats = factory(disjoint_context).stats(0)
        assert stats.timeout_hazards == {}
        assert stats.eviction == {}

    @pytest.mark.parametrize("factory", ALL_ESTIMATORS)
    def test_eviction_distribution_sums_to_one(
        self, disjoint_context, factory
    ):
        state = mask_from_indices([0, 1])
        stats = factory(disjoint_context).stats(state)
        assert sum(stats.eviction.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", ALL_ESTIMATORS)
    def test_hazards_are_probabilities(self, overlap_context, factory):
        state = mask_from_indices([0, 1])
        stats = factory(overlap_context).stats(state)
        for hazard in stats.timeout_hazards.values():
            assert 0.0 <= hazard <= 1.0

    @pytest.mark.parametrize("factory", ALL_ESTIMATORS)
    def test_single_rule_always_evicted(self, disjoint_context, factory):
        state = mask_from_indices([0])
        stats = factory(disjoint_context).stats(state)
        assert stats.eviction == {0: pytest.approx(1.0)}

    def test_stats_memoised(self, disjoint_context):
        estimator = IndependentRecencyEstimator(disjoint_context)
        state = mask_from_indices([0, 1])
        assert estimator.stats(state) is estimator.stats(state)


class TestIndependentClosedForms:
    def test_uniform_limit_for_zero_rate(self):
        # A cached rule whose relevant rate is zero has u uniform on
        # {1..t}: hazard exactly 1/t.
        context = make_context([({0}, 5)], [0.0], cache_size=1)
        stats = IndependentRecencyEstimator(context).stats(1)
        assert stats.timeout_hazards[0] == pytest.approx(1 / 5)

    def test_truncated_geometric_hazard(self):
        rate, timeout, delta = 0.8, 3, 0.5
        context = make_context([({0}, timeout)], [rate], cache_size=1)
        stats = IndependentRecencyEstimator(context).stats(1)
        a = 1 - math.exp(-rate * delta)
        pmf = [a * (1 - a) ** k for k in range(timeout)]
        expected = pmf[-1] / sum(pmf)
        assert stats.timeout_hazards[0] == pytest.approx(expected)

    def test_busier_rule_has_lower_hazard(self):
        context = make_context([({0}, 5), ({1}, 5)], [2.0, 0.05])
        stats = IndependentRecencyEstimator(context).stats(
            mask_from_indices([0, 1])
        )
        assert stats.timeout_hazards[0] < stats.timeout_hazards[1]

    def test_idle_rule_more_likely_evicted(self):
        # Equal timeouts; the rarely matched rule has less remaining
        # time on average, so it should be the likelier eviction victim.
        context = make_context([({0}, 6), ({1}, 6)], [2.0, 0.05])
        stats = IndependentRecencyEstimator(context).stats(
            mask_from_indices([0, 1])
        )
        assert stats.eviction[1] > stats.eviction[0]

    def test_shorter_timeout_more_likely_evicted(self):
        # Equal rates; the rule with the shorter TTL has less remaining.
        context = make_context([({0}, 3), ({1}, 12)], [0.2, 0.2])
        stats = IndependentRecencyEstimator(context).stats(
            mask_from_indices([0, 1])
        )
        assert stats.eviction[0] > stats.eviction[1]

    def test_hard_timeout_hazard_is_uniform(self):
        # A hard-timeout rule expires on schedule regardless of matches:
        # its age pmf is uniform, hazard exactly 1/t, even under heavy
        # matching traffic.
        from repro.flows.policy import ModelRule, Policy
        from repro.flows.universe import FlowUniverse
        from repro.flows.flowid import FlowId

        policy = Policy(
            [ModelRule(0, "hard", frozenset({0}), 8, 10, hard=True)]
        )
        universe = FlowUniverse((FlowId(src=0, dst=9),), (5.0,))
        context = ModelContext(policy, universe, 0.5, 1)
        stats = IndependentRecencyEstimator(context).stats(1)
        assert stats.timeout_hazards[0] == pytest.approx(1 / 8)

    def test_higher_priority_shadowing_raises_hazard(self):
        # In Figure 2b, with both rules cached, r1's relevant flows are
        # rule1 \ rule0 = {f1}; alone in cache they are {f0, f1}.  Less
        # relevant traffic -> higher timeout hazard.
        context = make_context([({0}, 4), ({0, 1}, 5)], [0.6, 0.3])
        estimator = IndependentRecencyEstimator(context)
        both = estimator.stats(mask_from_indices([0, 1]))
        alone = estimator.stats(mask_from_indices([1]))
        assert both.timeout_hazards[1] > alone.timeout_hazards[1]


class TestCrossEstimatorAgreement:
    @pytest.mark.parametrize(
        "context_fixture", ["disjoint_context", "overlap_context"]
    )
    def test_montecarlo_matches_exact(self, context_fixture, request):
        context = request.getfixturevalue(context_fixture)
        state = mask_from_indices([0, 1])
        exact = ExactRecencyEstimator(context).stats(state)
        mc = MonteCarloRecencyEstimator(context, n_samples=8000, seed=3).stats(
            state
        )
        for rule in exact.eviction:
            assert mc.eviction[rule] == pytest.approx(
                exact.eviction[rule], abs=0.03
            )
            assert mc.timeout_hazards[rule] == pytest.approx(
                exact.timeout_hazards[rule], abs=0.03
            )

    @pytest.mark.parametrize(
        "context_fixture", ["disjoint_context", "overlap_context"]
    )
    def test_independent_tracks_exact_direction(
        self, context_fixture, request
    ):
        context = request.getfixturevalue(context_fixture)
        state = mask_from_indices([0, 1])
        exact = ExactRecencyEstimator(context).stats(state)
        indep = IndependentRecencyEstimator(context).stats(state)
        # Agreement on which rule is the likelier eviction victim --
        # only meaningful away from a near-tie, where the approximation
        # can legitimately land on the other side of 0.5.
        exact_victim = max(exact.eviction, key=exact.eviction.get)
        if exact.eviction[exact_victim] > 0.6:
            indep_victim = max(indep.eviction, key=indep.eviction.get)
            assert exact_victim == indep_victim
        # Rough numeric agreement.
        for rule in exact.eviction:
            assert indep.eviction[rule] == pytest.approx(
                exact.eviction[rule], abs=0.15
            )
            assert indep.timeout_hazards[rule] == pytest.approx(
                exact.timeout_hazards[rule], abs=0.05
            )

    def test_exact_guard_on_large_enumeration(self):
        context = make_context(
            [({0}, 50), ({1}, 50), ({0, 1}, 50)], [0.1, 0.1], cache_size=3
        )
        estimator = ExactRecencyEstimator(context, max_assignments=100)
        with pytest.raises(ValueError, match="too large"):
            estimator.stats(mask_from_indices([0, 1, 2]))
