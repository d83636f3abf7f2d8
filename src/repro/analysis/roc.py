"""ROC analysis of the timing classifier's threshold.

The attacker turns a measured response time into a hit/miss bit by
thresholding ("e.g., 1 ms", Section VI-A).  :func:`roc_points` sweeps
thresholds over samples of the two latency populations and computes the
hit/miss confusion rates -- the quantitative backing for the paper's
remark that the two cases are "easily distinguishable".
:func:`score_auc` ranks the defend grid's detector scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class ThresholdPoint:
    """Classifier performance at one threshold."""

    threshold: float
    true_hit_rate: float   # hits classified fast
    false_hit_rate: float  # misses classified fast
    accuracy: float


def roc_points(
    hit_rtts: Sequence[float],
    miss_rtts: Sequence[float],
    thresholds: Sequence[float],
) -> List[ThresholdPoint]:
    """Classifier metrics across candidate thresholds.

    ``hit_rtts`` are response times with a covering rule cached (should
    fall *below* a good threshold), ``miss_rtts`` the setup-path times.
    """
    if not hit_rtts or not miss_rtts:
        raise ValueError("need samples from both populations")
    points: List[ThresholdPoint] = []
    n_hits, n_misses = len(hit_rtts), len(miss_rtts)
    for threshold in thresholds:
        true_hits = sum(1 for rtt in hit_rtts if rtt < threshold)
        false_hits = sum(1 for rtt in miss_rtts if rtt < threshold)
        accuracy = (true_hits + (n_misses - false_hits)) / (
            n_hits + n_misses
        )
        points.append(
            ThresholdPoint(
                threshold=float(threshold),
                true_hit_rate=true_hits / n_hits,
                false_hit_rate=false_hits / n_misses,
                accuracy=accuracy,
            )
        )
    return points


def score_auc(
    positives: Sequence[float], negatives: Sequence[float]
) -> float:
    """Exact (rank/Mann-Whitney) AUC of a "higher score = positive" rule.

    The probability that a uniformly drawn positive outscores a
    uniformly drawn negative, counting ties as half.  Either population
    empty gives the uninformative 0.5 -- the grid uses this for cells
    where a defense starves one class entirely (e.g. proactive rules
    leave the detector no packet-ins to rank).
    """
    if not positives or not negatives:
        return 0.5
    wins = 0.0
    for pos in positives:
        for neg in negatives:
            if pos > neg:
                wins += 1.0
            elif pos == neg:
                wins += 0.5
    return wins / (len(positives) * len(negatives))
