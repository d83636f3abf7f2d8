"""Empirical CDF helpers (Figure 6b).

Figure 6b plots the cumulative distribution, across network
configurations, of the additive accuracy improvement the model attacker
achieves over the naive attacker.  :func:`empirical_cdf` produces the
step-function points; :func:`survival_at` evaluates the fraction of
configurations at or above a value.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def empirical_cdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Step points ``(x, F(x))`` of the empirical CDF.

    One point per distinct sample value, with ``F`` evaluated inclusively
    (``F(x) = P(X <= x)``).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / n)
        else:
            points.append((value, index / n))
    return points


def survival_at(samples: Sequence[float], x: float) -> float:
    """``P(X >= x)`` under the empirical distribution.

    The paper's Figure 6b readings are of this form ("a 15% or larger
    improvement for about 20% of network configurations").
    """
    if not samples:
        raise ValueError("no samples")
    return sum(1 for s in samples if s >= x) / len(samples)
