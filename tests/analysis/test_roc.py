"""Tests for the timing-threshold ROC analysis."""

import numpy as np
import pytest

from repro.analysis.roc import roc_points


@pytest.fixture
def populations():
    # Synthetic stand-ins for the paper's two latency populations,
    # clipped below like the simulator's latency model (a raw abs/fold
    # would create spurious sub-millisecond "misses").
    rng = np.random.default_rng(0)
    hits = np.clip(
        rng.normal(0.087e-3, 0.021e-3, size=300), 0.02e-3, None
    )
    misses = np.clip(rng.normal(4.07e-3, 1.8e-3, size=300), 1.5e-3, None)
    return list(hits), list(misses)


class TestRocPoints:
    def test_monotone_rates(self, populations):
        hits, misses = populations
        thresholds = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        points = roc_points(hits, misses, thresholds)
        true_rates = [p.true_hit_rate for p in points]
        false_rates = [p.false_hit_rate for p in points]
        assert true_rates == sorted(true_rates)
        assert false_rates == sorted(false_rates)

    def test_extreme_thresholds(self, populations):
        hits, misses = populations
        points = roc_points(hits, misses, [0.0, 1.0])
        assert points[0].true_hit_rate == 0.0
        assert points[0].false_hit_rate == 0.0
        assert points[1].true_hit_rate == 1.0
        assert points[1].false_hit_rate == 1.0

    def test_paper_threshold_near_perfect(self, populations):
        hits, misses = populations
        (point,) = roc_points(hits, misses, [1e-3])
        assert point.accuracy > 0.99

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            roc_points([], [1.0], [0.5])


class TestPerfectBand:
    def test_paper_band_contains_1ms(self, populations):
        # Every hit is faster and every miss slower than 1 ms: the
        # paper's threshold sits inside the zero-error band.
        hits, misses = populations
        (point,) = roc_points(hits, misses, [1e-3])
        assert point.true_hit_rate == 1.0
        assert point.false_hit_rate == 0.0
