"""Tests for rule-sharing structure diagnostics."""

import pytest

from repro.analysis.structure import target_structure

from tests.conftest import make_policy


@pytest.fixture
def policy():
    """r0={0} exact; r1={0,1}; r2={2,3}; r3={4} exact."""
    return make_policy(
        [({0}, 5), ({0, 1}, 6), ({2, 3}, 5), ({4}, 5)]
    )


class TestTargetStructure:
    def test_covering_and_siblings(self, policy):
        structure = target_structure(policy, 0)
        assert structure.covering_rules == frozenset({0, 1})
        assert structure.sibling_flows == frozenset({1})
        assert structure.exclusive_rules == frozenset({0})

    def test_exclusive_install_detection(self, policy):
        # Flow 0's install rule is r0, which covers only flow 0.
        assert target_structure(policy, 0).install_rule_is_exclusive
        # Flow 1's install rule is r1, shared with flow 0.
        assert not target_structure(policy, 1).install_rule_is_exclusive

    def test_fully_shared_flow(self, policy):
        structure = target_structure(policy, 2)
        assert structure.sibling_flows == frozenset({3})
        assert structure.exclusive_rules == frozenset()

    def test_uncovered_flow(self, policy):
        structure = target_structure(policy, 9)
        assert structure.covering_rules == frozenset()
        assert not structure.install_rule_is_exclusive
        assert structure.sibling_flows == frozenset()

