"""Tests for the shared model context (Section IV-A1 flowIds/rates).

The effective-rate definitions are the semantic heart of the model:

* for a *cached* rule, relevant flows are those not captured by a
  higher-priority cached rule;
* for an *uncached* rule, relevant flows are those hitting no cached
  rule at all and not claimed by a higher-priority uncached rule (the
  controller would install that one instead).
"""

import pytest

from repro.core.context import ModelContext
from repro.core.masks import mask_from_indices

from tests.conftest import make_policy, make_universe
from tests.oracles.basic import match_in_cache, state_covers
from tests.oracles.recency import (
    cached_rules,
    gamma_cached,
    gamma_uncached,
    total_step_rate,
    uncached_rules,
)

DELTA = 0.5


@pytest.fixture
def context():
    """r0={f0} > r1={f0,f1} > r2={f1,f2}; rates 0.2/0.4/0.6 (+f3 0.8)."""
    policy = make_policy([({0}, 4), ({0, 1}, 5), ({1, 2}, 6)])
    universe = make_universe([0.2, 0.4, 0.6, 0.8])
    return ModelContext(policy, universe, DELTA, cache_size=2)


class TestConstruction:
    def test_precomputed_views(self, context):
        assert context.n_rules == 3
        assert context.n_flows == 4
        assert context.flow_masks == (0b0001, 0b0011, 0b0110)
        assert context.timeouts == (4, 5, 6)
        assert context.covering == ((0, 1), (1, 2), (2,), ())
        assert context.install_rule == (0, 1, 2, None)

    def test_step_rates(self, context):
        assert context.step_rates == pytest.approx((0.1, 0.2, 0.3, 0.4))
        assert total_step_rate(context) == pytest.approx(1.0)

    def test_validation(self):
        policy = make_policy([({0}, 4)])
        universe = make_universe([0.2])
        with pytest.raises(ValueError):
            ModelContext(policy, universe, 0.0, 1)
        with pytest.raises(ValueError):
            ModelContext(policy, universe, 0.5, 0)


class TestSwitchSemantics:
    def test_match_prefers_cached_priority(self, context):
        both = mask_from_indices([0, 1])
        assert match_in_cache(context, 0, both) == 0
        assert match_in_cache(context, 0, mask_from_indices([1])) == 1
        assert match_in_cache(context, 0, mask_from_indices([2])) is None

    def test_state_covers(self, context):
        state = mask_from_indices([2])
        assert state_covers(context, 1, state)
        assert state_covers(context, 2, state)
        assert not state_covers(context, 0, state)
        assert not state_covers(context, 3, state)

    def test_cached_uncached_partition(self, context):
        state = mask_from_indices([0, 2])
        assert cached_rules(context, state) == [0, 2]
        assert uncached_rules(context, state) == [1]


class TestGammaCached:
    def test_no_shadowing_when_alone(self, context):
        # r1 alone in cache: relevant flows {f0, f1}.
        gamma = gamma_cached(context, 1, mask_from_indices([1]))
        assert gamma == pytest.approx(0.1 + 0.2)

    def test_higher_priority_cached_shadows(self, context):
        # r0 cached too: f0 matches r0 first; r1's relevant set is {f1}.
        gamma = gamma_cached(context, 1, mask_from_indices([0, 1]))
        assert gamma == pytest.approx(0.2)

    def test_lower_priority_does_not_shadow(self, context):
        # r2 (lower priority) cached alongside r1 does not reduce r1.
        gamma = gamma_cached(context, 1, mask_from_indices([1, 2]))
        assert gamma == pytest.approx(0.1 + 0.2)

    def test_full_overlap_shadowing_gives_zero(self):
        policy = make_policy([({0, 1}, 4), ({0, 1}, 5)])
        universe = make_universe([0.2, 0.4])
        context = ModelContext(policy, universe, DELTA, 2)
        assert gamma_cached(context, 1, mask_from_indices([0, 1])) == 0.0


class TestGammaUncached:
    def test_excludes_all_cached_rules(self, context):
        # r2 uncached while r1 cached: f1 hits r1, so r2's relevant set
        # is {f2} only.
        gamma = gamma_uncached(context, 2, mask_from_indices([1]))
        assert gamma == pytest.approx(0.3)

    def test_excludes_higher_priority_uncached(self, context):
        # Empty cache: f0 would install r0, f1 would install r1; r2 only
        # gets installed by f2.
        gamma = gamma_uncached(context, 2, 0)
        assert gamma == pytest.approx(0.3)
        assert gamma_uncached(context, 1, 0) == pytest.approx(0.2)
        assert gamma_uncached(context, 0, 0) == pytest.approx(0.1)

    def test_lower_priority_uncached_does_not_shadow(self, context):
        # r1 uncached with empty cache: r2 being lower priority does not
        # take f1 away from r1.
        assert gamma_uncached(context, 1, 0) == pytest.approx(0.2)
