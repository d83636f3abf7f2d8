"""Tests for the configuration screen."""

import numpy as np
import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.experiments.screening import paper_screen, screen

from tests.conftest import make_policy, make_universe
from tests.oracles.probes import walk_outcome_table


@pytest.fixture
def inference():
    policy = make_policy([({0}, 6), ({0, 1}, 8), ({2}, 5)])
    universe = make_universe([0.15, 0.5, 0.3, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=25)


def _screen(inference, flows=range(4)):
    """The screen of ``flows`` on the inference's exact rows."""
    return screen(
        inference.prefix_distribution(()),
        inference.prefix_distribution((), exclusion=(inference.target_flow,)),
        inference.model.coverage_matrix(flows),
    )


class TestScreenReport:
    def test_probabilities_consistent(self, inference):
        result = _screen(inference)
        np.testing.assert_allclose(result.p_hit + result.p_miss, 1.0)
        for posterior in (
            result.posterior_absent_given_miss,
            result.posterior_present_given_hit,
        ):
            assert np.all((0.0 <= posterior) & (posterior <= 1.0))

    def test_paper_accepted_matches_inference_helper(self, inference):
        # The Section VI-B condition, read off the dict-walk oracle table.
        accepted = _screen(inference).accepted
        for probe in range(4):
            table = walk_outcome_table(inference, (probe,))
            expected = (
                table.outcome_probs.get((1,), 0.0) > 0.0
                and table.outcome_probs.get((0,), 0.0) > 0.0
                and table.posterior_absent((0,)) > 0.5
                and table.posterior_present((1,)) > 0.5
            )
            assert paper_screen(inference, probe) == expected
            assert accepted[probe] == expected

    @pytest.mark.parametrize("probe", range(4))
    def test_one_probe_equals_the_outcome_table(self, inference, probe):
        # paper_screen's split is the outcome table's, bit for bit.
        result = _screen(inference, (probe,))
        table = inference.outcome_table((probe,))
        assert result.p_hit[0] == table.outcome_probs.get((1,), 0.0)
        assert result.p_miss[0] == table.outcome_probs.get((0,), 0.0)
        assert result.posterior_absent_given_miss[0] == table.posterior_absent(
            (0,)
        )
        assert result.posterior_present_given_hit[0] == table.posterior_present(
            (1,)
        )


class TestScreens:
    def test_uncovered_probe_rejected(self, inference):
        # Flow 3 is covered by no rule: never a viable detector.
        assert not paper_screen(inference, probe=3)

    def test_report_fields_for_dead_probe(self, inference):
        result = _screen(inference)
        assert result.p_hit[3] == 0.0
        assert result.posterior_present_given_hit[3] == 0.5
        assert not result.accepted[3]
