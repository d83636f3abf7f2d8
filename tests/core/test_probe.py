"""Tests for probe semantics over compact states."""

import pytest

from repro.core.compact_model import CompactModel
from repro.core.masks import mask_from_indices
from tests.oracles.perstate import PerStateCompactModel
from tests.oracles.probes import probe_outcome, walk_probes

from tests.conftest import make_policy, make_universe

DELTA = 0.25


def _scenario():
    """r0={f0} t=4; r1={f0,f1} t=6; r2={f2} t=5; cache 2; f3 uncovered."""
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    return policy, universe, DELTA, 2


@pytest.fixture
def model():
    return CompactModel(*_scenario())


@pytest.fixture
def oracle_model():
    """The scenario on the per-state oracle, which keeps ``apply_probe``."""
    return PerStateCompactModel(*_scenario())


class TestProbeOutcome:
    def test_hit_when_any_covering_rule_cached(self, model):
        state = mask_from_indices([1])
        assert probe_outcome(model, state, 0) == 1  # r1 covers f0
        assert probe_outcome(model, state, 1) == 1

    def test_miss_on_empty(self, model):
        assert probe_outcome(model, 0, 0) == 0

    def test_uncovered_flow_always_misses(self, model):
        state = mask_from_indices([0, 1])
        assert probe_outcome(model, state, 3) == 0


class TestApplyProbe:
    def test_hit_leaves_state_unchanged(self, oracle_model):
        state = mask_from_indices([1])
        assert oracle_model.apply_probe(state, 0) == [(state, 1.0)]

    def test_miss_installs_highest_priority(self, oracle_model):
        branches = oracle_model.apply_probe(0, 0)
        assert branches == [(mask_from_indices([0]), 1.0)]

    def test_uncovered_miss_changes_nothing(self, oracle_model):
        branches = oracle_model.apply_probe(0, 3)
        assert branches == [(0, 1.0)]

    def test_full_cache_miss_branches_on_eviction(self, oracle_model):
        state = mask_from_indices([0, 1])
        branches = oracle_model.apply_probe(state, 2)
        targets = {s for s, _ in branches}
        assert targets == {
            mask_from_indices([1, 2]),
            mask_from_indices([0, 2]),
        }
        assert sum(p for _, p in branches) == pytest.approx(1.0)


class TestWalkProbes:
    def test_empty_probe_sequence(self, model):
        weights = {0: 0.4, mask_from_indices([0]): 0.6}
        outcome = walk_probes(model, weights, ())
        assert outcome == {(): pytest.approx(1.0)}

    def test_single_probe_partitions_mass(self, model):
        weights = {0: 0.4, mask_from_indices([0]): 0.6}
        outcome = walk_probes(model, weights, (0,))
        assert outcome[(0,)] == pytest.approx(0.4)
        assert outcome[(1,)] == pytest.approx(0.6)

    def test_mass_conserved_through_sequence(self, model):
        weights = {
            0: 0.25,
            mask_from_indices([0]): 0.25,
            mask_from_indices([1]): 0.25,
            mask_from_indices([0, 1]): 0.25,
        }
        outcome = walk_probes(model, weights, (0, 1, 2))
        assert sum(outcome.values()) == pytest.approx(1.0)

    def test_probe_perturbation_feeds_next_probe(self, model):
        # Start empty; probe f0 misses but installs r0.  A second probe
        # of f0 must then hit: outcome (0, 1) with certainty.
        outcome = walk_probes(model, {0: 1.0}, (0, 0))
        assert outcome == {(0, 1): pytest.approx(1.0)}

    def test_substochastic_weights_preserved(self, model):
        weights = {0: 0.3}  # deliberately not normalised
        outcome = walk_probes(model, weights, (1,))
        assert sum(outcome.values()) == pytest.approx(0.3)

    def test_pruning_drops_negligible_mass(self, model):
        weights = {0: 1e-20}
        outcome = walk_probes(model, weights, (0,))
        assert outcome == {}
