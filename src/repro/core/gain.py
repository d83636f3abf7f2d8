"""Entropy and information gain (Section V).

All entropies are in bits.  The conventions match the paper: ``X̂`` is
the indicator of the target flow having occurred within the detection
window, ``Q_f`` (or a tuple of them) the probe outcome(s), and the
attacker maximises ``IG(X̂ | Q) = H(X̂) - H(X̂ | Q)``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Outcome key type: tuple of 0/1 probe results.
Outcome = Tuple[int, ...]


def _plogp(p: float) -> float:
    """``-p log2 p`` with the ``0 log 0 = 0`` convention."""
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability out of range: {p}")
    p = min(max(p, 0.0), 1.0)
    return _plogp(p) + _plogp(1.0 - p)


def _xlogq(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``x * log2(p / x)`` elementwise with the ``0 log 0 = 0`` convention.

    Callers guarantee ``0 <= x <= p`` so the ratio is well defined
    wherever ``x > 0``.
    """
    out = np.zeros_like(x)
    mask = x > 0.0
    # log2(p) - log2(x) rather than log2(p / x): the ratio overflows for
    # subnormal x even though the product is finite.
    out[mask] = x[mask] * (np.log2(p[mask]) - np.log2(x[mask]))
    return out


def gains_from_tables(
    prior_absent: float,
    joint_absent: np.ndarray,
    outcome_probs: np.ndarray,
) -> np.ndarray:
    """Vectorised ``IG(X̂ | Q)`` over stacked outcome tables.

    ``outcome_probs`` and ``joint_absent`` are ``(n_outcomes, c)`` arrays
    (one column per candidate); the result is the length-``c`` gain
    vector.  Each joint is clamped into ``[0, P(Q=q)]``, outcomes of zero
    probability contribute nothing, and the gain is clipped at zero:
    mathematically it is non-negative, and tiny negative values from the
    model's approximations must not disturb probe ranking.
    """
    p_q = outcome_probs
    p_absent = np.clip(joint_absent, 0.0, p_q)
    p_present = p_q - p_absent
    conditional = (_xlogq(p_absent, p_q) + _xlogq(p_present, p_q)).sum(axis=0)
    return np.maximum(binary_entropy(prior_absent) - conditional, 0.0)
