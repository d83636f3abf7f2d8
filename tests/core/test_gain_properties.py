"""Property-based tests for the entropy / information-gain kernels.

These pin the mathematical invariants the scoring engine relies on:
entropy is permutation-invariant, information gain is non-negative and
bounded by ``H(X̂)``, the ``0 log 0 = 0`` convention holds, and the
drift tolerances reject genuinely malformed inputs without tripping on
floating-point round-off.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gain import gains_from_tables
from repro.core.gain import (
    binary_entropy,
    conditional_entropy_binary,
    entropy,
    information_gain,
)


def distributions(min_size=2, max_size=8):
    """Strategy: a normalised probability vector."""
    return (
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
        )
        .filter(lambda ps: sum(ps) > 1e-6)
        .map(lambda ps: [p / sum(ps) for p in ps])
    )


def outcome_tables(n_outcomes=4):
    """Strategy: consistent (prior, joint_absent, outcome_probs) tables.

    ``outcome_probs`` is a distribution over ``n_outcomes`` outcomes and
    ``joint_absent[q] <= outcome_probs[q]`` pointwise; the prior is the
    total absent mass, so the tables are exactly consistent.
    """

    def build(raw):
        probs, fractions = raw
        total = sum(probs)
        outcome_probs = {}
        joint_absent = {}
        for i, (p, frac) in enumerate(zip(probs, fractions)):
            outcome = (i,)
            outcome_probs[outcome] = p / total
            joint_absent[outcome] = (p / total) * frac
        prior = sum(joint_absent.values())
        return prior, joint_absent, outcome_probs

    return st.tuples(
        st.lists(
            st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
            min_size=n_outcomes,
            max_size=n_outcomes,
        ),
        st.lists(
            # Exact zero plus well-normalised fractions: subnormal joints
            # make the scalar reference overflow (p_q / p_joint -> inf)
            # and cannot arise from pruned model mass anyway.
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
            ),
            min_size=n_outcomes,
            max_size=n_outcomes,
        ),
    ).map(build)


class TestEntropy:
    @given(distributions(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, probs, rand):
        shuffled = list(probs)
        rand.shuffle(shuffled)
        assert entropy(shuffled) == pytest.approx(entropy(probs), abs=1e-9)

    @given(distributions())
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, probs):
        h = entropy(probs)
        assert 0.0 <= h <= math.log2(len(probs)) + 1e-9

    def test_zero_log_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_drift_tolerance(self):
        # Drift below 1e-6 is absorbed; beyond it the input is rejected.
        assert entropy([0.5, 0.5 + 5e-7]) == pytest.approx(1.0, abs=1e-5)
        with pytest.raises(ValueError, match="sum to"):
            entropy([0.5, 0.6])
        # Tiny negatives are round-off; real negatives are errors.
        assert entropy([1.0, -1e-13]) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError, match="negative"):
            entropy([1.1, -0.1])

    def test_binary_entropy_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            binary_entropy(1.5)
        with pytest.raises(ValueError, match="out of range"):
            binary_entropy(-0.5)
        assert binary_entropy(0.5) == pytest.approx(1.0)


class TestInformationGain:
    @given(outcome_tables())
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_bounded(self, tables):
        prior, joint_absent, outcome_probs = tables
        gain = information_gain(prior, joint_absent, outcome_probs)
        assert gain >= 0.0
        assert gain <= binary_entropy(prior) + 1e-9

    @given(outcome_tables())
    @settings(max_examples=40, deadline=None)
    def test_conditional_entropy_bounded_by_prior_entropy(self, tables):
        prior, joint_absent, outcome_probs = tables
        cond = conditional_entropy_binary(joint_absent, outcome_probs)
        assert 0.0 <= cond <= binary_entropy(prior) + 1e-9

    def test_independent_outcome_gains_nothing(self):
        # Q independent of X̂: joint_absent factorises as prior * P(q).
        outcome_probs = {(0,): 0.25, (1,): 0.75}
        prior = 0.4
        joint = {q: prior * p for q, p in outcome_probs.items()}
        assert information_gain(prior, joint, outcome_probs) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_deterministic_outcome_reveals_everything(self):
        # Q = X̂ exactly: the gain is the full prior entropy.
        prior = 0.3
        outcome_probs = {(0,): 0.7, (1,): 0.3}
        joint = {(0,): 0.0, (1,): 0.3}
        assert information_gain(prior, joint, outcome_probs) == pytest.approx(
            binary_entropy(prior), abs=1e-12
        )

    @given(outcome_tables())
    @settings(max_examples=40, deadline=None)
    def test_vectorised_kernel_matches_scalar(self, tables):
        """The engine's array kernel ≡ the scalar reference, any tables."""
        prior, joint_absent, outcome_probs = tables
        outcomes = sorted(outcome_probs)
        probs_col = np.array(
            [[outcome_probs[q]] for q in outcomes]
        )
        joint_col = np.array([[joint_absent[q]] for q in outcomes])
        scalar = information_gain(prior, joint_absent, outcome_probs)
        vectorised = gains_from_tables(prior, joint_col, probs_col)
        assert vectorised.shape == (1,)
        assert vectorised[0] == pytest.approx(scalar, abs=1e-12)
