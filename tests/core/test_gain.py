"""Tests for entropy and information-gain computations."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gain import binary_entropy

from tests.oracles.probes import (
    conditional_entropy_binary,
    entropy,
    information_gain,
)


class TestEntropy:
    def test_uniform_two(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_n(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="sum"):
            entropy([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            entropy([1.1, -0.1])

    @given(
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8)
    )
    def test_bounds(self, weights):
        total = sum(weights)
        probs = [w / total for w in weights]
        h = entropy(probs)
        assert -1e-9 <= h <= math.log2(len(probs)) + 1e-9


class TestBinaryEntropy:
    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))

    def test_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    @given(st.floats(0.0, 1.0))
    def test_matches_entropy(self, p):
        assert binary_entropy(p) == pytest.approx(entropy([p, 1.0 - p]))


class TestConditionalEntropy:
    def test_independent_outcome_gives_prior_entropy(self):
        # Q independent of X: H(X | Q) = H(X).
        prior_absent = 0.3
        outcomes = {(0,): 0.6, (1,): 0.4}
        joint = {(0,): 0.6 * prior_absent, (1,): 0.4 * prior_absent}
        h = conditional_entropy_binary(joint, outcomes)
        assert h == pytest.approx(binary_entropy(prior_absent))

    def test_fully_informative_outcome(self):
        # Q determines X exactly: H(X | Q) = 0.
        outcomes = {(0,): 0.3, (1,): 0.7}
        joint = {(0,): 0.3, (1,): 0.0}
        assert conditional_entropy_binary(joint, outcomes) == pytest.approx(0.0)

    def test_zero_probability_outcomes_ignored(self):
        outcomes = {(0,): 1.0, (1,): 0.0}
        joint = {(0,): 0.5}
        h = conditional_entropy_binary(joint, outcomes)
        assert h == pytest.approx(1.0)

    def test_joint_clamped_to_outcome(self):
        # Floating point can make joint slightly exceed the outcome
        # probability; the computation must clamp, not crash.
        outcomes = {(1,): 0.5}
        joint = {(1,): 0.5 + 1e-12}
        h = conditional_entropy_binary(joint, outcomes)
        assert h == pytest.approx(0.0, abs=1e-9)


class TestInformationGain:
    def test_zero_for_independent(self):
        outcomes = {(0,): 0.6, (1,): 0.4}
        joint = {(0,): 0.6 * 0.3, (1,): 0.4 * 0.3}
        assert information_gain(0.3, joint, outcomes) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_full_gain_for_deterministic(self):
        outcomes = {(0,): 0.3, (1,): 0.7}
        joint = {(0,): 0.3, (1,): 0.0}
        assert information_gain(0.3, joint, outcomes) == pytest.approx(
            binary_entropy(0.3)
        )

    def test_clipped_at_zero(self):
        # Slightly inconsistent tables (model approximation) must not
        # produce a negative gain.
        outcomes = {(0,): 0.5, (1,): 0.5}
        joint = {(0,): 0.15, (1,): 0.15}
        gain = information_gain(0.3001, joint, outcomes)
        assert gain >= 0.0

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    def test_gain_bounded_by_prior_entropy(self, prior, p_q0, absent_in_q0):
        # Construct any consistent joint table and check 0 <= IG <= H(X).
        joint = {
            (0,): p_q0 * absent_in_q0,
            (1,): min(prior * (1 - absent_in_q0), (1 - p_q0)),
        }
        outcomes = {(0,): p_q0, (1,): 1 - p_q0}
        # Derive the actual prior from the joint for consistency.
        actual_prior = joint[(0,)] + joint[(1,)]
        gain = information_gain(actual_prior, joint, outcomes)
        assert 0.0 <= gain <= binary_entropy(actual_prior) + 1e-9
