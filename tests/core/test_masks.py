"""Tests for bitmask utilities and the subset rate table."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.masks import (
    RateTable,
    enumerate_subsets,
    indices_from_mask,
    iter_bits,
    mask_from_indices,
    popcount,
    subsets_within,
)


class TestMaskConversions:
    def test_roundtrip_simple(self):
        assert indices_from_mask(mask_from_indices([0, 3, 5])) == [0, 3, 5]

    def test_empty(self):
        assert mask_from_indices([]) == 0
        assert indices_from_mask(0) == []

    def test_duplicates_collapse(self):
        assert mask_from_indices([2, 2, 2]) == 4

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            mask_from_indices([-1])

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    @given(st.sets(st.integers(0, 63)))
    def test_roundtrip_property(self, indices):
        mask = mask_from_indices(indices)
        assert set(indices_from_mask(mask)) == indices
        assert popcount(mask) == len(indices)


class TestRateTable:
    def test_sum_over_subsets(self):
        table = RateTable([0.5, 1.5, 2.0])
        assert table.sum(0b000) == 0.0
        assert table.sum(0b001) == 0.5
        assert table.sum(0b110) == 3.5
        assert table.sum(0b111) == 4.0

    def test_total_and_full_mask(self):
        table = RateTable([1.0, 2.0])
        assert table.full_mask == 0b11
        assert table.total == 3.0

    def test_len(self):
        assert len(RateTable([0.1] * 5)) == 5

    @given(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=10),
        st.data(),
    )
    def test_sum_matches_direct_computation(self, rates, data):
        table = RateTable(rates)
        mask = data.draw(st.integers(0, (1 << len(rates)) - 1))
        direct = sum(
            rates[i] for i in range(len(rates)) if mask & (1 << i)
        )
        assert table.sum(mask) == pytest.approx(direct)


class TestEnumerateSubsets:
    def test_counts_match_binomials(self):
        subsets = enumerate_subsets(5, 3)
        expected = sum(math.comb(5, k) for k in range(4))
        assert len(subsets) == expected

    def test_empty_set_first(self):
        assert enumerate_subsets(4, 2)[0] == 0

    def test_all_within_size(self):
        for mask in enumerate_subsets(6, 2):
            assert popcount(mask) <= 2

    def test_distinct(self):
        subsets = enumerate_subsets(8, 4)
        assert len(set(subsets)) == len(subsets)

    def test_max_size_larger_than_universe(self):
        assert len(enumerate_subsets(3, 10)) == 8

    def test_negative_max_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subsets(3, -1)

    @given(st.integers(0, 8), st.data())
    def test_subsets_within_filters_in_order(self, n_items, data):
        mask = data.draw(st.integers(0, (1 << n_items) - 1))
        max_size = data.draw(st.integers(0, n_items + 1))
        assert subsets_within(mask, max_size) == [
            subset
            for subset in enumerate_subsets(n_items, max_size)
            if not subset & ~mask
        ]
