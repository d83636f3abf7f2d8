"""Tests for abstract policies and their switch semantics."""

import pytest

from repro.flows.policy import ModelRule, Policy


class TestModelRule:
    def test_covers(self):
        rule = ModelRule(0, "r", frozenset({1, 2}), 5, 10)
        assert rule.covers(1)
        assert not rule.covers(0)

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ModelRule(0, "r", frozenset({1}), 0, 10)


class TestPolicyValidation:
    def test_priorities_must_descend(self):
        rules = [
            ModelRule(0, "a", frozenset({0}), 5, 1),
            ModelRule(1, "b", frozenset({1}), 5, 2),
        ]
        with pytest.raises(ValueError, match="descending"):
            Policy(rules)

    def test_priorities_must_be_distinct(self):
        rules = [
            ModelRule(0, "a", frozenset({0}), 5, 2),
            ModelRule(1, "b", frozenset({1}), 5, 2),
        ]
        with pytest.raises(ValueError, match="distinct"):
            Policy(rules)

    def test_indices_must_be_ranks(self):
        rules = [ModelRule(3, "a", frozenset({0}), 5, 2)]
        with pytest.raises(ValueError, match="index"):
            Policy(rules)

    def test_empty_rules_rejected(self):
        rules = [ModelRule(0, "a", frozenset(), 5, 2)]
        with pytest.raises(ValueError, match="covers no flows"):
            Policy(rules)


class TestPolicyQueries:
    def test_covering_order(self, tiny_policy):
        # f0 is covered by r0 (rank 0) then r1 (rank 1).
        assert tiny_policy.covering(0) == (0, 1)
        assert tiny_policy.covering(1) == (1,)
        assert tiny_policy.covering(2) == (2,)
        assert tiny_policy.covering(3) == ()

    def test_highest_covering(self, tiny_policy):
        assert tiny_policy.highest_covering(0) == 0
        assert tiny_policy.highest_covering(1) == 1
        assert tiny_policy.highest_covering(3) is None

    def test_covered_flows(self, tiny_policy):
        assert tiny_policy.covered_flows() == frozenset({0, 1, 2})

    def test_describe_lists_rules(self, tiny_policy):
        text = tiny_policy.describe()
        for rank in range(3):
            assert f"r{rank}" in text

