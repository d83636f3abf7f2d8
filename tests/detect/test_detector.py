"""Unit tests for the online recon detector package."""

import numpy as np
import pytest

from repro.detect import (
    DETECTOR_CHOICES,
    CounterWindow,
    FEATURE_NAMES,
    ReconDetector,
    WINDOW_COUNTERS,
    WindowRecorder,
    window_features,
)
from repro.obs import Instrumentation, use_instrumentation


def window(
    packet_ins=0, flow_mods=0, received=0, forwarded=0, duration=1.0
):
    return CounterWindow(
        duration=duration,
        packet_ins=packet_ins,
        flow_mods=flow_mods,
        received=received,
        forwarded=forwarded,
    )


def benign_windows(n=10):
    """Busy data plane, few misses."""
    return [
        window(packet_ins=1, flow_mods=1, received=40 + i, forwarded=40)
        for i in range(n)
    ]


def attack_windows(n=10):
    """Quiet data plane, heavy control-channel churn."""
    return [
        window(packet_ins=8 + i % 3, flow_mods=8, received=5, forwarded=5)
        for i in range(n)
    ]


class TestCounterWindow:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            window(duration=0.0)

    def test_features_in_declared_order(self):
        w = window(packet_ins=6, flow_mods=3, received=12, duration=2.0)
        features = window_features(w)
        assert len(features) == len(FEATURE_NAMES)
        assert features == (6 / 2.0, 6 / 12, 12 / 2.0, 3 / 2.0)

    def test_miss_fraction_guards_empty_window(self):
        w = window(packet_ins=4, received=0)
        assert window_features(w)[1] == 4.0  # divides by max(received, 1)


class TestWindowRecorder:
    def test_cuts_are_deltas_not_totals(self):
        obs = Instrumentation()
        recorder = WindowRecorder(obs)
        obs.metrics.counter("sim.switch.packet_ins").inc(3)
        obs.metrics.counter("sim.switch.received").inc(10)
        first = recorder.cut(1.0)
        assert (first.packet_ins, first.received) == (3, 10)
        obs.metrics.counter("sim.switch.packet_ins").inc(2)
        second = recorder.cut(1.0)
        assert (second.packet_ins, second.received) == (2, 0)

    def test_snapshot_at_construction_excludes_history(self):
        obs = Instrumentation()
        obs.metrics.counter("sim.controller.installs").inc(7)
        recorder = WindowRecorder(obs)
        assert recorder.cut(1.0).flow_mods == 0

    def test_window_counters_are_the_sim_counters(self):
        assert all(
            name.startswith(("sim.switch.", "sim.controller."))
            for name in WINDOW_COUNTERS
        )


class TestReconDetector:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown detector method"):
            ReconDetector(method="oracle")
        assert set(DETECTOR_CHOICES) == {"threshold", "logistic"}

    def test_score_requires_fit(self):
        detector = ReconDetector(method="threshold")
        with pytest.raises(RuntimeError, match="fit"):
            detector.score(window(received=1))

    def test_fit_requires_both_classes(self):
        detector = ReconDetector(method="logistic")
        with pytest.raises(ValueError, match="both classes"):
            detector.fit(benign_windows(), [])

    @pytest.mark.parametrize("method", DETECTOR_CHOICES)
    def test_separates_synthetic_streams(self, method):
        detector = ReconDetector(method=method, seed=3)
        benign, attack = benign_windows(), attack_windows()
        detector.fit(benign, attack)
        benign_scores = detector.scores(benign)
        attack_scores = detector.scores(attack)
        assert max(benign_scores) < min(attack_scores)
        assert all(0.0 <= s <= 1.0 for s in benign_scores + attack_scores)

    @pytest.mark.parametrize("method", DETECTOR_CHOICES)
    def test_deterministic_for_a_seed(self, method):
        benign, attack = benign_windows(), attack_windows()
        scores = []
        for _ in range(2):
            detector = ReconDetector(method=method, seed=11)
            detector.fit(benign, attack)
            scores.append(detector.scores(benign + attack))
        assert scores[0] == scores[1]

    def test_logistic_seed_changes_init_not_separation(self):
        benign, attack = benign_windows(), attack_windows()
        for seed in (0, 1, 99):
            detector = ReconDetector(method="logistic", seed=seed)
            detector.fit(benign, attack)
            assert max(detector.scores(benign)) < min(
                detector.scores(attack)
            )

    def test_scoring_emits_obs_counters(self):
        obs = Instrumentation()
        with use_instrumentation(obs):
            detector = ReconDetector(method="threshold", seed=0)
            detector.fit(benign_windows(), attack_windows())
            detector.scores(benign_windows() + attack_windows())
        scored = obs.metrics.counter("detector.windows.scored").value
        alerts = obs.metrics.counter("detector.alerts").value
        assert scored == 20
        assert 0 < alerts <= 20

    def test_constant_feature_does_not_divide_by_zero(self):
        # Proactive defenses zero out flow mods entirely; the std floor
        # must keep standardisation finite.
        benign = [window(packet_ins=1, received=30)] * 5
        attack = [window(packet_ins=9, received=30)] * 5
        detector = ReconDetector(method="logistic", seed=0)
        detector.fit(benign, attack)
        scores = detector.scores(benign + attack)
        assert all(np.isfinite(scores))
