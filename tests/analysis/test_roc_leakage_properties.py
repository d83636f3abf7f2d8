"""Property-based tests for the ROC and leakage analyses.

The defend grid (``repro-sdn defend``) leans on both modules for its
per-cell channel metrics, so their mathematical invariants are pinned
here: ROC curves are monotone staircases, rank AUC lands in [0, 1]
and is antisymmetric in its populations, per-target leakage is a
non-negative number of bits bounded by the probe's binary outcome
alphabet, and the worst case over targets is the leakage map's maximum.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.leakage import compare_structures, leakage_map
from repro.analysis.roc import roc_points, score_auc
from repro.flows.config import ConfigGenerator

from tests.experiments.conftest import tiny_config_params


def rtt_samples(min_size=1, max_size=30):
    """Strategy: a positive latency population (seconds)."""
    return st.lists(
        st.floats(
            min_value=1e-6,
            max_value=1.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=min_size,
        max_size=max_size,
    )


def thresholds_strategy(min_size=1, max_size=20):
    return st.lists(
        st.floats(
            min_value=0.0,
            max_value=2.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=min_size,
        max_size=max_size,
    )


class TestRocProperties:
    @given(rtt_samples(), rtt_samples(), thresholds_strategy())
    def test_rates_monotone_in_threshold(self, hits, misses, thresholds):
        points = roc_points(hits, misses, sorted(thresholds))
        true_rates = [p.true_hit_rate for p in points]
        false_rates = [p.false_hit_rate for p in points]
        assert true_rates == sorted(true_rates)
        assert false_rates == sorted(false_rates)

    @given(rtt_samples(), rtt_samples(), thresholds_strategy())
    def test_rates_and_accuracy_are_probabilities(
        self, hits, misses, thresholds
    ):
        for point in roc_points(hits, misses, thresholds):
            assert 0.0 <= point.true_hit_rate <= 1.0
            assert 0.0 <= point.false_hit_rate <= 1.0
            assert 0.0 <= point.accuracy <= 1.0

    @given(rtt_samples(min_size=0), rtt_samples(min_size=0))
    def test_score_auc_in_unit_interval(self, positives, negatives):
        assert 0.0 <= score_auc(positives, negatives) <= 1.0

    @given(rtt_samples(), rtt_samples())
    def test_score_auc_antisymmetric(self, positives, negatives):
        forward = score_auc(positives, negatives)
        backward = score_auc(negatives, positives)
        assert math.isclose(forward + backward, 1.0, abs_tol=1e-12)

    @given(rtt_samples())
    def test_score_auc_of_identical_populations_is_half(self, samples):
        assert score_auc(samples, samples) == 0.5

    @given(rtt_samples(), st.floats(min_value=1.5, max_value=10.0))
    def test_score_auc_of_separated_populations_is_one(
        self, negatives, gap
    ):
        positives = [max(negatives) * gap + n for n in negatives]
        assert score_auc(positives, negatives) == 1.0

    @given(rtt_samples(min_size=0))
    def test_score_auc_empty_population_is_uninformative(self, samples):
        assert score_auc([], samples) == 0.5
        assert score_auc(samples, []) == 0.5


class TestLeakageProperties:
    """One probe answers hit/miss, so leakage is at most log2(2) bits."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_leakage_nonnegative_and_bounded_by_outcome_alphabet(
        self, seed
    ):
        config = ConfigGenerator(tiny_config_params(), seed=seed).sample()
        leaks = leakage_map(
            config.policy,
            config.universe,
            config.delta,
            config.cache_size,
            config.window_steps,
        )
        assert leaks, "a sampled policy covers at least one flow"
        for bits in leaks.values():
            assert 0.0 <= bits <= math.log2(2) + 1e-9

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_worst_case_is_the_map_maximum(self, seed):
        config = ConfigGenerator(tiny_config_params(), seed=seed).sample()
        args = (
            config.policy,
            config.universe,
            config.delta,
            config.cache_size,
            config.window_steps,
        )
        leaks = leakage_map(*args)
        (row,) = compare_structures({"sampled": config.policy}, *args[1:])
        target, worst = row["worst_target"], row["worst_leakage_bits"]
        assert worst == max(leaks.values())
        assert leaks[target] == worst
