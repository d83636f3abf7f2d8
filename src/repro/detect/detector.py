"""The seeded, deterministic recon detector.

Two scoring methods over :func:`~repro.detect.features.window_features`
vectors:

* ``threshold`` -- a z-score on the packet-in rate against the benign
  calibration windows (the classic control-channel rate alarm);
* ``logistic`` -- a logistic regression over all four features,
  standardised against the pooled calibration windows and fitted by
  plain-numpy full-batch gradient descent from a seeded initial weight
  vector.

Both are deterministic functions of ``(calibration windows, seed)``:
no OS entropy, no data-dependent iteration counts, so a grid cell's
detector score is bit-identical across runs and ``--trial-jobs``
settings.  Scoring emits ``detector.windows.scored`` and
``detector.alerts`` counters on the ambient obs backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.detect.features import FEATURE_NAMES, window_features
from repro.detect.windows import CounterWindow
from repro.obs import get_instrumentation

#: Valid ``--detector`` / ``JobSpec.detector`` method names.
DETECTOR_CHOICES: Tuple[str, ...] = ("threshold", "logistic")

#: Floor on feature standard deviations, so a constant feature (e.g.
#: flow mods under a proactive defense) standardises to zero instead of
#: dividing by zero.
_STD_FLOOR = 1e-12


class ReconDetector:
    """Score counter windows for reconnaissance probing.

    ``fit`` calibrates on labelled benign/attack windows; ``score``
    maps a window to ``[0, 1]`` (higher = more probe-like).  A window
    scoring above :attr:`ALERT_THRESHOLD` counts as an alert.
    """

    #: Score above which a window is an alert.
    ALERT_THRESHOLD = 0.5
    #: Full-batch gradient steps of the logistic fit.
    EPOCHS = 200
    #: Gradient step size of the logistic fit.
    LEARNING_RATE = 0.5

    def __init__(self, method: str = "threshold", seed: int = 0) -> None:
        if method not in DETECTOR_CHOICES:
            raise ValueError(
                f"unknown detector method {method!r}; choose from "
                f"{', '.join(DETECTOR_CHOICES)}"
            )
        self.method = method
        self.seed = int(seed)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._bias = 0.0
        metrics = get_instrumentation().metrics
        self._obs_scored = metrics.counter("detector.windows.scored")
        self._obs_alerts = metrics.counter("detector.alerts")

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def fit(
        self,
        benign: Sequence[CounterWindow],
        attack: Sequence[CounterWindow],
    ) -> None:
        """Calibrate on labelled windows (benign=0, attack=1)."""
        if not benign or not attack:
            raise ValueError("need calibration windows from both classes")
        benign_x = np.array([window_features(w) for w in benign])
        attack_x = np.array([window_features(w) for w in attack])
        if self.method == "threshold":
            # Calibrate the z-score on the benign packet-in rate only;
            # the attack windows just locate the alert cut midway
            # between the two class means.
            self._mean = benign_x.mean(axis=0)
            self._std = np.maximum(benign_x.std(axis=0), _STD_FLOOR)
            return
        pooled = np.concatenate([benign_x, attack_x])
        self._mean = pooled.mean(axis=0)
        self._std = np.maximum(pooled.std(axis=0), _STD_FLOOR)
        x = (pooled - self._mean) / self._std
        y = np.concatenate(
            [np.zeros(len(benign_x)), np.ones(len(attack_x))]
        )
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0.0, 0.01, size=len(FEATURE_NAMES))
        bias = 0.0
        for _ in range(self.EPOCHS):
            logits = np.clip(x @ weights + bias, -60.0, 60.0)
            probs = 1.0 / (1.0 + np.exp(-logits))
            error = probs - y
            weights -= self.LEARNING_RATE * (x.T @ error) / len(y)
            bias -= self.LEARNING_RATE * float(error.mean())
        self._weights = weights
        self._bias = bias

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, window: CounterWindow) -> float:
        """Probe-likelihood of one window in ``[0, 1]``."""
        if self._mean is None or self._std is None:
            raise RuntimeError("fit() must run before score()")
        features = np.array(window_features(window))
        z = (features - self._mean) / self._std
        if self.method == "threshold":
            # Squash the packet-in-rate z-score; z = 0 (benign-typical)
            # maps to 0.5, three benign sigmas to ~0.95.
            logit = float(np.clip(z[0], -60.0, 60.0))
        else:
            assert self._weights is not None
            logit = float(np.clip(z @ self._weights + self._bias, -60.0, 60.0))
        value = 1.0 / (1.0 + float(np.exp(-logit)))
        self._obs_scored.inc()
        if value > self.ALERT_THRESHOLD:
            self._obs_alerts.inc()
        return value

    def scores(self, windows: Sequence[CounterWindow]) -> List[float]:
        """Scores for a window sequence, in order."""
        return [self.score(window) for window in windows]
