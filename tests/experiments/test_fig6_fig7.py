"""End-to-end tests for the Figure 6 and Figure 7 pipelines (tiny scale)."""

import pytest

from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import FIG7_ATTACKERS, Fig7Result, run_fig7

from tests.experiments.conftest import tiny_job_spec

#: Two high-absence bins where the screens accept a few percent of
#: configurations, keeping tiny-scale rejection sampling fast.
BINS = ((0.5, 0.75), (0.75, 0.95))


@pytest.fixture(scope="module")
def fig6_result() -> Fig6Result:
    spec = tiny_job_spec("fig6", n_trials=10, seed=61)
    return run_fig6(spec, bins=BINS, configs_per_bin=2)


@pytest.fixture(scope="module")
def fig7_result() -> Fig7Result:
    spec = tiny_job_spec("fig7", n_trials=10, seed=71)
    return run_fig7(spec, bins=BINS, configs_per_bin=2)


class TestFig6:
    def test_bin_structure(self, fig6_result):
        assert fig6_result.bins == BINS
        assert len(fig6_result.results_per_bin) == 2
        assert all(len(bucket) == 2 for bucket in fig6_result.results_per_bin)

    def test_all_configs_pass_both_screens(self, fig6_result):
        for bucket in fig6_result.results_per_bin:
            for result in bucket:
                assert result.screened
                assert not result.optimal_is_target

    def test_accuracy_series_shape(self, fig6_result):
        series = fig6_result.accuracy_series()
        assert set(series) == {"model", "naive"}
        assert len(series["model"]) == 2
        for value in series["model"]:
            assert value is None or 0.0 <= value <= 1.0

    def test_bin_centers(self, fig6_result):
        centers = fig6_result.bin_centers()
        expected = [(low + high) / 2 for low, high in BINS]
        assert centers == [pytest.approx(c) for c in expected]

    def test_improvements_and_cdf(self, fig6_result):
        improvements = fig6_result.improvements()
        assert len(improvements) == 4
        cdf = fig6_result.improvement_cdf()
        assert cdf[-1][1] == pytest.approx(1.0)
        values = [x for x, _ in cdf]
        assert values == sorted(values)

    def test_headline_keys(self, fig6_result):
        headline = fig6_result.headline()
        expected = {
            "mean_improvement",
            "frac_configs_improving_15pct",
            "frac_configs_improving_35pct",
            "mean_model_accuracy",
            "mean_naive_accuracy",
            "n_configs",
        }
        assert set(headline) == expected
        assert headline["n_configs"] == 4.0
        assert 0.0 <= headline["frac_configs_improving_15pct"] <= 1.0


class TestFig7:
    def test_bin_structure(self, fig7_result):
        assert len(fig7_result.results_per_bin) == 2

    def test_configs_only_screened(self, fig7_result):
        for bucket in fig7_result.results_per_bin:
            for result in bucket:
                assert result.screened

    def test_accuracy_series_has_three_attackers(self, fig7_result):
        series = fig7_result.accuracy_series()
        assert set(series) == set(FIG7_ATTACKERS)

    def test_accuracy_by_covering_count(self, fig7_result):
        table = fig7_result.accuracy_by_covering_count()
        assert table  # at least one group
        for count, row in table.items():
            assert count >= 1
            for name in FIG7_ATTACKERS:
                assert 0.0 <= row[name] <= 1.0
            assert row["n_configs"] >= 1

    def test_summary(self, fig7_result):
        summary = fig7_result.summary()
        assert summary["n_configs"] == 4.0
        assert summary["constrained_minus_naive"] == pytest.approx(
            summary["constrained"] - summary["naive"]
        )

    def test_accuracy_by_sharing_partitions_configs(self, fig7_result):
        table = fig7_result.accuracy_by_sharing()
        total = sum(row["n_configs"] for row in table.values())
        assert total == 4.0
        for row in table.values():
            for name in FIG7_ATTACKERS:
                assert 0.0 <= row[name] <= 1.0
