"""Tests for probe selection."""

import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import (
    best_probe_set,
    best_single_probe,
    rank_probes,
)

from tests.conftest import make_policy, make_universe

DELTA = 0.25


@pytest.fixture
def inference():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    model = CompactModel(policy, universe, DELTA, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=30)


class TestBestSingleProbe:
    def test_maximises_gain(self, inference):
        choice = best_single_probe(inference)
        gains = [
            inference.information_gain((f,))
            for f in range(inference.model.context.n_flows)
        ]
        assert choice.gain == pytest.approx(max(gains))

    def test_candidate_restriction(self, inference):
        choice = best_single_probe(inference, candidates=[2, 3])
        assert choice.probes[0] in (2, 3)

    def test_empty_candidates_rejected(self, inference):
        with pytest.raises(ValueError, match="no candidate"):
            best_single_probe(inference, candidates=[])

    def test_deterministic_tie_break(self, inference):
        # Flows 2 and 3 both have (near-)zero gain about target 0; the
        # lower index must win deterministically.
        choice = best_single_probe(inference, candidates=[3, 2])
        assert choice.probes == (2,)


class TestBestProbeSet:
    def test_single_delegates(self, inference):
        assert best_probe_set(inference, 1) == best_single_probe(inference)

    def test_exhaustive_beats_or_equals_all_pairs(self, inference):
        from itertools import combinations

        best = best_probe_set(inference, 2, method="exhaustive")
        n_flows = inference.model.context.n_flows
        for combo in combinations(range(n_flows), 2):
            assert best.gain >= inference.information_gain(combo) - 1e-12

    def test_greedy_within_exhaustive(self, inference):
        exhaustive = best_probe_set(inference, 2, method="exhaustive")
        greedy = best_probe_set(inference, 2, method="greedy")
        assert greedy.gain <= exhaustive.gain + 1e-12
        assert len(greedy.probes) == 2

    def test_pair_at_least_best_single(self, inference):
        single = best_single_probe(inference)
        pair = best_probe_set(inference, 2)
        assert pair.gain >= single.gain - 1e-9

    def test_too_few_candidates(self, inference):
        with pytest.raises(ValueError, match="candidates"):
            best_probe_set(inference, 3, candidates=[0, 1])

    def test_invalid_method(self, inference):
        with pytest.raises(ValueError, match="method"):
            best_probe_set(inference, 2, method="quantum")

    def test_invalid_count(self, inference):
        with pytest.raises(ValueError):
            best_probe_set(inference, 0)


class TestRankProbes:
    def test_descending_order(self, inference):
        ranked = rank_probes(inference)
        gains = [choice.gain for choice in ranked]
        assert gains == sorted(gains, reverse=True)

    def test_all_candidates_present(self, inference):
        ranked = rank_probes(inference)
        flows = {choice.probes[0] for choice in ranked}
        assert flows == set(range(inference.model.context.n_flows))

    def test_restricted_candidates(self, inference):
        # A restricted selection picks the top-ranked flow it may probe.
        ranked = rank_probes(inference)
        allowed = [choice for choice in ranked if choice.probes[0] in (1, 2)]
        best = best_single_probe(inference, candidates=[1, 2])
        assert best.probes == allowed[0].probes
        assert best.gain == pytest.approx(allowed[0].gain, abs=1e-12)

