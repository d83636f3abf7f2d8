"""Tests for the one-call reproduction entry point."""

import pytest

from repro.apispec import JobSpec
from repro.experiments.reproduce import ReproductionReport, reproduce_all

#: The end-to-end reproduction costs minutes of rejection sampling.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def report() -> ReproductionReport:
    # The tiniest meaningful reproduction: the scale floor gives
    # 2 configurations per figure and 10 trials each.
    spec = JobSpec(
        experiment="reproduce", scale=0.01, seed=31, trial_mode="table"
    )
    return reproduce_all(spec)


class TestReproduceAll:
    def test_all_artifacts_present(self, report):
        assert report.fig6.improvements()
        assert report.fig7.summary()["n_configs"] >= 2
        assert report.timing["threshold_accuracy"] > 0.9
        assert report.statecount["experiment"]["compact"] == 2509

    def test_elapsed_recorded(self, report):
        assert set(report.elapsed_seconds) == {"fig6", "fig7", "timing"}
        assert all(v > 0 for v in report.elapsed_seconds.values())

    def test_render_contains_every_section(self, report):
        text = report.render()
        for marker in (
            "Figure 6a",
            "Figure 6b",
            "Headline",
            "Figure 7a",
            "Figure 7b",
            "timing characterisation",
            "State-space sizes",
            "Wall-clock",
        ):
            assert marker in text, marker

    def test_save_archives_everything(self, report, tmp_path):
        directory = report.save(tmp_path / "run")
        assert (directory / "fig6.json").exists()
        assert (directory / "fig7.json").exists()
        assert "Figure 6a" in (directory / "report.txt").read_text()

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            reproduce_all(JobSpec(experiment="reproduce", scale=0.0))
