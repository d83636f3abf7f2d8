"""Cached arrays are tamper-proof at runtime.

The inference/engine caches alias one array to every caller; a caller
mutating a cached distribution in place would silently corrupt every
later score.  Lint rule MUT001 catches such writes statically; these
tests pin the dynamic complement: every cache accessor returns an array
with ``writeable=False`` so an in-place write raises immediately.
"""

import numpy as np
import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference

from tests.conftest import make_policy, make_universe

DELTA = 0.25


@pytest.fixture
def model():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    return CompactModel(policy, universe, DELTA, cache_size=2)


@pytest.fixture
def inference(model):
    return ReconInference(model, target_flow=0, window_steps=20)


class TestFrozenInferenceCaches:
    def test_dist_full_is_readonly(self, inference):
        assert not inference.dist_full.flags.writeable
        with pytest.raises(ValueError):
            inference.dist_full[0] = 1.0

    def test_dist_absent_is_readonly(self, inference):
        assert not inference.dist_absent.flags.writeable
        with pytest.raises(ValueError):
            inference.dist_absent += 1.0

    def test_evolution_is_readonly(self, inference):
        dist = inference.evolution((1,))
        assert not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[0] = 0.5
        # The cached entry (returned again) is the same frozen array.
        assert inference.evolution((1,)) is dist

    def test_prefix_distribution_is_readonly(self, inference):
        rows = inference.prefix_distribution((1, 2))
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            rows.sort()

    def test_precomputed_full_is_copied_and_frozen(self, model):
        base = ReconInference(model, target_flow=0, window_steps=20)
        supplied = np.array(base.dist_full)
        inf = ReconInference(
            model, target_flow=0, window_steps=20, precomputed_full=supplied
        )
        assert not inf.dist_full.flags.writeable
        # The caller's array must not be frozen (it was copied, not
        # aliased) -- freezing a caller-owned buffer would be rude.
        assert supplied.flags.writeable
        supplied[0] = -1.0
        assert inf.dist_full[0] != -1.0


class TestFrozenModelCaches:
    def test_coverage_vector_is_readonly(self, model):
        cov = model.coverage_vector(0)
        assert not cov.flags.writeable
        with pytest.raises(ValueError):
            cov[0] = 2.0

    def test_membership_matrix_is_readonly_and_cached(self, model):
        membership = model.state_membership_matrix()
        assert not membership.flags.writeable
        with pytest.raises(ValueError):
            membership[0, 0] = 1.0
        assert model.state_membership_matrix() is membership

    def test_membership_matrix_matches_state_rules(self, model):
        membership = model.state_membership_matrix()
        assert membership.shape == (model.context.n_rules, model.n_states)
        for index in range(model.n_states):
            rules = model.state_rules(index)
            for rule in range(model.context.n_rules):
                assert membership[rule, index] == (1.0 if rule in rules else 0.0)

    def test_state_popcounts_is_readonly_and_cached(self, model):
        popcounts = model.state_popcounts()
        assert popcounts.dtype == np.int64
        assert not popcounts.flags.writeable
        with pytest.raises(ValueError):
            popcounts[0] = 3
        assert model.state_popcounts() is popcounts
        assert [int(c) for c in popcounts] == [
            len(model.state_rules(i)) for i in range(model.n_states)
        ]

    def test_vectorised_marginals_match_loop(self, model):
        rng = np.random.default_rng(3)
        distribution = rng.random(model.n_states)
        distribution /= distribution.sum()
        marginals = model.rule_presence_marginals(distribution)
        expected = np.zeros(model.context.n_rules)
        for index in range(model.n_states):
            for rule in model.state_rules(index):
                expected[rule] += distribution[index]
        assert marginals == pytest.approx(expected)
        occupancy = model.occupancy_distribution(distribution)
        assert occupancy.sum() == pytest.approx(1.0)
        assert len(occupancy) == model.context.cache_size + 1

    def test_copy_remains_writable(self, model, inference):
        for arr in (
            inference.dist_full,
            inference.evolution((1,)),
            inference.prefix_distribution((1,)),
            model.coverage_vector(1),
        ):
            clone = arr.copy()
            assert clone.flags.writeable
            clone[...] = 0.0  # must not raise

    def test_scores_unaffected_by_freezing(self, inference):
        # End-to-end sanity: the probability pipeline still runs on the
        # frozen caches and produces finite, normalised outputs.
        gain = inference.information_gain((1, 2))
        assert np.isfinite(gain)
        table = inference.outcome_table((1,))
        assert sum(table.outcome_probs.values()) == pytest.approx(1.0)
