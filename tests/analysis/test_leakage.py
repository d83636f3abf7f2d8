"""Tests for the defender-side leakage analysis."""

import pytest

from repro.analysis.leakage import (
    compare_structures,
    leakage_map,
)
from repro.countermeasures.transform import (
    merge_to_coarse,
    split_to_microflows,
)

from tests.conftest import make_policy, make_universe

DELTA = 0.25
WINDOW = 30


@pytest.fixture
def setting():
    policy = make_policy([({0}, 6), ({0, 1}, 8), ({2}, 6)])
    universe = make_universe([0.15, 0.5, 0.3, 0.2])
    return policy, universe


class TestLeakageMap:
    def test_covers_policy_targets_only(self, setting):
        policy, universe = setting
        leaks = leakage_map(policy, universe, DELTA, 2, WINDOW)
        assert set(leaks) == {0, 1, 2}  # flow 3 is uncovered

    def test_values_non_negative(self, setting):
        policy, universe = setting
        leaks = leakage_map(policy, universe, DELTA, 2, WINDOW)
        assert all(value >= 0.0 for value in leaks.values())

    def test_explicit_targets(self, setting):
        policy, universe = setting
        leaks = leakage_map(policy, universe, DELTA, 2, WINDOW, targets=[1])
        assert set(leaks) == {1}

    def test_candidate_restriction_lowers_leakage(self, setting):
        policy, universe = setting
        full = leakage_map(policy, universe, DELTA, 2, WINDOW)
        limited = leakage_map(
            policy, universe, DELTA, 2, WINDOW, candidates=[3]
        )
        for target in limited:
            assert limited[target] <= full[target] + 1e-12


class TestWorstCase:
    def test_matches_map_maximum(self, setting):
        policy, universe = setting
        leaks = leakage_map(policy, universe, DELTA, 2, WINDOW)
        (row,) = compare_structures(
            {"original": policy}, universe, DELTA, 2, WINDOW
        )
        target, value = row["worst_target"], row["worst_leakage_bits"]
        assert value == pytest.approx(max(leaks.values()))
        assert leaks[target] == pytest.approx(value)


class TestCompareStructures:
    def test_rows_structure(self, setting):
        policy, universe = setting
        rows = compare_structures(
            {
                "original": policy,
                "micro": split_to_microflows(policy),
                "coarse": merge_to_coarse(policy, 1),
            },
            universe,
            DELTA,
            2,
            WINDOW,
        )
        assert [row["structure"] for row in rows] == [
            "original",
            "micro",
            "coarse",
        ]
        for row in rows:
            assert row["mean_leakage_bits"] <= row["worst_leakage_bits"] + 1e-12

    def test_coarse_leaks_no_more_than_micro(self, setting):
        policy, universe = setting
        rows = {
            row["structure"]: row
            for row in compare_structures(
                {
                    "micro": split_to_microflows(policy),
                    "coarse": merge_to_coarse(policy, 1),
                },
                universe,
                DELTA,
                2,
                WINDOW,
            )
        }
        assert (
            rows["coarse"]["worst_leakage_bits"]
            <= rows["micro"]["worst_leakage_bits"] + 1e-9
        )
