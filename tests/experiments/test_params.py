"""Tests for experiment parameters."""

import pytest

from repro.experiments.params import (
    ABSENCE_BINS,
    VIABLE_FIG6_BINS,
    VIABLE_FIG7_BINS,
    ExperimentParams,
    bench_scale,
    split_configs,
)

from tests.experiments.conftest import tiny_experiment_params


class TestExperimentParams:
    def test_defaults_are_paper_scale(self):
        params = ExperimentParams()
        assert params.n_configs == 100
        assert params.n_trials == 100
        assert params.trial_mode == "network"
        assert params.config.n_rules == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentParams(n_configs=0)
        with pytest.raises(ValueError):
            ExperimentParams(trial_mode="magic")
        with pytest.raises(ValueError):
            ExperimentParams(n_probes=0)

    def test_with_absence_range(self):
        params = ExperimentParams().with_absence_range(0.3, 0.6)
        assert params.config.absence_range == (0.3, 0.6)
        # Other settings untouched.
        assert params.n_configs == 100

    def test_scaled(self):
        params = ExperimentParams(n_configs=100, n_trials=100).scaled(0.1)
        assert params.n_configs == 10
        assert params.n_trials == 10

    def test_scaled_floors_at_one(self):
        params = ExperimentParams(n_configs=2, n_trials=2).scaled(0.01)
        assert params.n_configs == 1
        assert params.n_trials == 1

    def test_scaled_validates(self):
        with pytest.raises(ValueError):
            ExperimentParams().scaled(0.0)


class TestBenchScale:
    def test_default_reduced(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert 0 < bench_scale() < 1

    def test_full_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert bench_scale() == 1.0

    def test_explicit_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert bench_scale() == 0.5


class TestAbsenceBins:
    def test_bins_increasing_and_disjoint(self):
        for low, high in ABSENCE_BINS:
            assert low < high
        for (_, high), (low, _) in zip(ABSENCE_BINS, ABSENCE_BINS[1:]):
            assert high == pytest.approx(low)

    def test_bins_cover_most_of_unit_interval(self):
        assert ABSENCE_BINS[0][0] <= 0.1
        assert ABSENCE_BINS[-1][1] >= 0.9

    def test_viable_bins_within_unit_interval(self):
        for bins in (VIABLE_FIG6_BINS, VIABLE_FIG7_BINS):
            for low, high in bins:
                assert 0.0 <= low < high <= 1.0

    def test_viable_bins_avoid_dead_low_absence_region(self):
        # The screens bind below ~0.2 absence; the defaults must not
        # send the pipelines there (see EXPERIMENTS.md).
        assert VIABLE_FIG6_BINS[0][0] >= 0.3
        assert VIABLE_FIG7_BINS[0][0] >= 0.3


class TestTinyParams:
    def test_tiny_params_valid(self):
        params = tiny_experiment_params()
        assert params.config.n_flows == 4
        assert params.config.window_steps == 100


class TestSplitConfigs:
    @pytest.mark.parametrize(
        "n_configs, n_bins, expected",
        [(2, 2, [1, 1]), (5, 2, [3, 2]), (4, 3, [2, 1, 1]), (12, 3, [4, 4, 4])],
    )
    def test_exactly_n_configs_first_bins_take_the_remainder(
        self, n_configs, n_bins, expected
    ):
        assert split_configs(n_configs, n_bins) == expected

    def test_fewer_configs_than_bins_names_both(self):
        with pytest.raises(ValueError, match=r"n_configs=1 .* 2 absence bins"):
            split_configs(1, 2)
