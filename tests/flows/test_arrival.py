"""Tests for Poisson arrival processes and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.arrival import (
    Arrival,
    PiecewiseRateProfile,
    PoissonArrivalProcess,
    occurred_in_window,
    sample_schedule,
    sample_schedule_with_profile,
)

from tests.conftest import make_universe


class TestPoissonArrivalProcess:
    def test_zero_rate_yields_nothing(self, rng):
        assert PoissonArrivalProcess(0.0, rng).sample(100.0) == []

    def test_zero_horizon_yields_nothing(self, rng):
        assert PoissonArrivalProcess(5.0, rng).sample(0.0) == []

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(-1.0, rng)

    def test_negative_horizon_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(1.0, rng).sample(-1.0)

    def test_samples_sorted_and_in_range(self, rng):
        times = PoissonArrivalProcess(2.0, rng).sample(50.0, start=10.0)
        assert times == sorted(times)
        assert all(10.0 <= t < 60.0 for t in times)

    def test_mean_count_matches_rate(self):
        rng = np.random.default_rng(0)
        process = PoissonArrivalProcess(3.0, rng)
        counts = [len(process.sample(10.0)) for _ in range(300)]
        mean = np.mean(counts)
        # Poisson(30): standard error ~ sqrt(30/300) ~ 0.32.
        assert 28.5 < mean < 31.5


class TestSchedules:
    def test_sample_schedule_ordered(self, rng):
        universe = make_universe([1.0, 2.0, 0.5])
        schedule = sample_schedule(universe, 20.0, rng)
        times = [a.time for a in schedule]
        assert times == sorted(times)

    def test_sample_schedule_covers_flows(self):
        rng = np.random.default_rng(1)
        universe = make_universe([2.0, 2.0])
        schedule = sample_schedule(universe, 30.0, rng)
        seen = {a.flow_index for a in schedule}
        assert seen == {0, 1}

    def test_occurred_in_window(self):
        schedule = [Arrival(5.0, 2), Arrival(9.0, 1)]
        assert occurred_in_window(schedule, 2, 0.0, 10.0)
        assert not occurred_in_window(schedule, 2, 6.0, 10.0)
        assert not occurred_in_window(schedule, 0, 0.0, 10.0)

    def test_occurred_window_boundaries_inclusive(self):
        schedule = [Arrival(5.0, 0)]
        assert occurred_in_window(schedule, 0, 5.0, 5.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_schedule_deterministic_given_seed(self, seed):
        universe = make_universe([1.5, 0.5])
        first = sample_schedule(universe, 5.0, np.random.default_rng(seed))
        second = sample_schedule(universe, 5.0, np.random.default_rng(seed))
        assert first == second


class TestPiecewiseRateProfile:
    def test_mean_factor(self):
        profile = PiecewiseRateProfile([0.0, 10.0], [1.0, 3.0])
        assert profile.mean_factor(20.0) == pytest.approx(2.0)
        assert profile.mean_factor(10.0) == pytest.approx(1.0)

    def test_segments_clipped(self):
        profile = PiecewiseRateProfile([0.0, 10.0, 20.0], [1.0, 2.0, 0.5])
        assert profile.segments(15.0) == [
            (0.0, 10.0, 1.0),
            (10.0, 15.0, 2.0),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseRateProfile([1.0], [2.0])  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseRateProfile([0.0, 5.0], [1.0])  # misaligned
        with pytest.raises(ValueError):
            PiecewiseRateProfile([0.0, 5.0, 3.0], [1, 1, 1])  # unsorted
        with pytest.raises(ValueError):
            PiecewiseRateProfile([0.0], [-1.0])  # negative factor

    def test_flat_profile_matches_homogeneous_statistics(self):
        universe = make_universe([2.0])
        profile = PiecewiseRateProfile([0.0], [1.0])
        rng = np.random.default_rng(0)
        counts = [
            len(sample_schedule_with_profile(universe, profile, 10.0, rng))
            for _ in range(300)
        ]
        assert 18.5 < np.mean(counts) < 21.5  # Poisson(20)

    def test_zero_factor_segment_is_quiet(self):
        universe = make_universe([5.0])
        profile = PiecewiseRateProfile([0.0, 5.0], [0.0, 1.0])
        rng = np.random.default_rng(1)
        schedule = sample_schedule_with_profile(universe, profile, 10.0, rng)
        assert all(a.time >= 5.0 for a in schedule)

    def test_busy_segment_concentrates_arrivals(self):
        universe = make_universe([1.0])
        profile = PiecewiseRateProfile([0.0, 5.0], [0.1, 4.0])
        rng = np.random.default_rng(2)
        schedule = sample_schedule_with_profile(universe, profile, 10.0, rng)
        late = sum(1 for a in schedule if a.time >= 5.0)
        assert late > len(schedule) * 0.8

    def test_ordering(self):
        universe = make_universe([1.0, 2.0])
        profile = PiecewiseRateProfile([0.0, 3.0], [1.0, 2.0])
        rng = np.random.default_rng(3)
        schedule = sample_schedule_with_profile(universe, profile, 9.0, rng)
        times = [a.time for a in schedule]
        assert times == sorted(times)
