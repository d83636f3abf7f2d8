"""Entropy and information gain (Section V).

All entropies are in bits.  The conventions match the paper: ``X̂`` is
the indicator of the target flow having occurred within the detection
window, ``Q_f`` (or a tuple of them) the probe outcome(s), and the
attacker maximises ``IG(X̂ | Q) = H(X̂) - H(X̂ | Q)``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

import numpy as np

#: Outcome key type: tuple of 0/1 probe results.
Outcome = Tuple[int, ...]


def _plogp(p: float) -> float:
    """``-p log2 p`` with the ``0 log 0 = 0`` convention."""
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy of a distribution, in bits.

    Tolerates tiny negative values from floating-point round-off and an
    overall normalisation drift below 1e-6.
    """
    total = 0.0
    mass = 0.0
    for p in probabilities:
        if p < -1e-12:
            raise ValueError(f"negative probability: {p}")
        p = max(p, 0.0)
        mass += p
        total += _plogp(p)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {mass}, expected 1")
    return total


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability out of range: {p}")
    p = min(max(p, 0.0), 1.0)
    return _plogp(p) + _plogp(1.0 - p)


def conditional_entropy_binary(
    joint_absent: Mapping[Outcome, float],
    outcome_probs: Mapping[Outcome, float],
) -> float:
    """``H(X̂ | Q)`` for binary ``X̂`` from joint outcome tables.

    ``outcome_probs[q] = P(Q = q)`` and ``joint_absent[q] =
    P(X̂ = 0 ∧ Q = q)``; the ``X̂ = 1`` joint follows by complement.
    Outcomes with zero probability contribute nothing.
    """
    total = 0.0
    for outcome, p_q in outcome_probs.items():
        if p_q <= 0.0:
            continue
        p_absent = min(max(joint_absent.get(outcome, 0.0), 0.0), p_q)
        p_present = p_q - p_absent
        # sum over x of P(x, q) * log(1 / P(x | q))
        for p_joint in (p_absent, p_present):
            if p_joint <= 0.0:
                continue
            total += p_joint * math.log2(p_q / p_joint)
    return total


def information_gain(
    prior_absent: float,
    joint_absent: Mapping[Outcome, float],
    outcome_probs: Mapping[Outcome, float],
) -> float:
    """``IG(X̂ | Q) = H(X̂) - H(X̂ | Q)``, clipped at zero.

    Mathematically the gain is non-negative; tiny negative values can
    appear through the model's approximations and are clipped so probe
    ranking stays sane.
    """
    gain = binary_entropy(prior_absent) - conditional_entropy_binary(
        joint_absent, outcome_probs
    )
    return max(gain, 0.0)


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
    vector.  Mirrors :func:`information_gain` including its clamping of
    the joint into ``[0, P(Q=q)]`` and the clip at zero.
    """
    p_q = outcome_probs
    p_absent = np.clip(joint_absent, 0.0, p_q)
    p_present = p_q - p_absent
    conditional = (_xlogq(p_absent, p_q) + _xlogq(p_present, p_q)).sum(axis=0)
    return np.maximum(binary_entropy(prior_absent) - conditional, 0.0)
