"""Tests for CDF helpers and state-count arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf, survival_at
from repro.analysis.statecount import (
    basic_state_count,
    basic_state_count_uniform,
    compact_state_count,
    state_count_table,
)


class TestEmpiricalCdf:
    def test_simple(self):
        points = empirical_cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_duplicates_collapse(self):
        points = empirical_cdf([1.0, 1.0, 2.0])
        assert points == [(1.0, 2 / 3), (2.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1))
    def test_monotone_reaching_one(self, samples):
        points = empirical_cdf(samples)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


class TestCdfQueries:
    def test_survival_at(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert survival_at(samples, 0.3) == 0.5
        assert survival_at(samples, 0.05) == 1.0


class TestBasicStateCount:
    def test_tiny_hand_computed(self):
        # Two rules, t = [1, 2], cache 1:
        # k=0: 1;  k=1: {r0}: 1!*(1+1)=2, {r1}: 1!*(2+1)=3.  Total 6.
        assert basic_state_count([1, 2], 1) == 6

    def test_cache_two_hand_computed(self):
        # Adds k=2: 2! * 2 * 3 = 12 -> total 18.
        assert basic_state_count([1, 2], 2) == 18

    def test_uniform_agrees_with_general(self):
        assert basic_state_count([4] * 5, 3) == basic_state_count_uniform(
            5, 4, 3
        )

    def test_grows_with_cache_size(self):
        counts = [basic_state_count_uniform(6, 10, n) for n in range(4)]
        assert counts == sorted(counts)
        assert counts[0] == 1

    def test_paper_example_magnitude(self):
        # The printed formula at |Rules|=10, t=100, n=8: ~2e22 (the text
        # quotes 5.9e7 -- see EXPERIMENTS.md).
        value = basic_state_count_uniform(10, 100, 8)
        assert 1e21 < value < 1e23

    def test_validation(self):
        with pytest.raises(ValueError):
            basic_state_count([3], -1)


class TestCompactStateCount:
    def test_paper_formula(self):
        # sum_{k=1..6} C(12, k) = 2509.
        assert compact_state_count(12, 6) == 2509

    def test_include_empty(self):
        assert compact_state_count(12, 6, include_empty=True) == 2510

    def test_cache_larger_than_rules(self):
        assert compact_state_count(3, 10) == 7  # 2^3 - 1

    def test_matches_model_enumeration(self):
        from repro.core.masks import enumerate_subsets

        assert compact_state_count(8, 4, include_empty=True) == len(
            enumerate_subsets(8, 4)
        )


class TestStateCountTable:
    def test_rows(self):
        rows = state_count_table(6, 10, [2, 4])
        assert len(rows) == 2
        for row in rows:
            assert row["basic"] >= row["compact"]
            assert row["ratio"] >= 1.0

    def test_ratio_explodes(self):
        rows = state_count_table(12, 100, [6])
        assert rows[0]["ratio"] > 1e9
