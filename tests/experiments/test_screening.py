"""Tests for the configuration screens."""

import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe
from repro.experiments.screening import (
    ScreenReport,
    paper_screen,
    screen_report,
)

from tests.conftest import make_policy, make_universe
from tests.oracles.probes import walk_outcome_table


@pytest.fixture
def inference():
    policy = make_policy([({0}, 6), ({0, 1}, 8), ({2}, 5)])
    universe = make_universe([0.15, 0.5, 0.3, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=25)


class TestScreenReport:
    def test_defaults_to_optimal_probe(self, inference):
        report = screen_report(inference)
        assert report.optimal_probe == best_single_probe(inference).probes[0]
        assert report.optimal_gain == pytest.approx(
            best_single_probe(inference).gain
        )

    def test_explicit_probe(self, inference):
        report = screen_report(inference, probe=2)
        assert report.optimal_probe == 2
        assert report.optimal_gain == pytest.approx(
            inference.information_gain((2,))
        )

    def test_probabilities_consistent(self, inference):
        report = screen_report(inference)
        assert report.p_hit + report.p_miss == pytest.approx(1.0)
        assert 0.0 <= report.posterior_absent_given_miss <= 1.0
        assert 0.0 <= report.posterior_present_given_hit <= 1.0

    def test_paper_accepted_matches_inference_helper(self, inference):
        # The Section VI-B condition, read off the dict-walk oracle table.
        for probe in range(4):
            table = walk_outcome_table(inference, (probe,))
            expected = (
                table.outcome_probs.get((1,), 0.0) > 0.0
                and table.outcome_probs.get((0,), 0.0) > 0.0
                and table.posterior_absent((0,)) > 0.5
                and table.posterior_present((1,)) > 0.5
            )
            report = screen_report(inference, probe=probe)
            assert report.paper_accepted == paper_screen(inference, probe)
            assert report.paper_accepted == expected


class TestScreens:
    def test_paper_screen_matches_report(self, inference):
        assert paper_screen(inference) == screen_report(
            inference
        ).paper_accepted

    def test_uncovered_probe_rejected(self, inference):
        # Flow 3 is covered by no rule: never a viable detector.
        assert not paper_screen(inference, probe=3)

    def test_report_fields_for_dead_probe(self, inference):
        report = screen_report(inference, probe=3)
        assert report.p_hit == 0.0
        assert not report.paper_accepted
