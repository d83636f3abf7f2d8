"""Tests for Markov chain utilities."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.chain import (
    evolve,
    per_flow_step_probabilities,
    point_distribution,
    row_sums,
    stationary_distribution,
    validate_stochastic,
)


@pytest.fixture
def two_state_matrix():
    return np.array([[0.9, 0.1], [0.5, 0.5]])


class TestEvolve:
    def test_zero_steps_returns_copy(self, two_state_matrix):
        start = point_distribution(2, 0)
        out = evolve(start, two_state_matrix, 0)
        assert np.allclose(out, start)
        assert out is not start

    def test_single_step(self, two_state_matrix):
        start = point_distribution(2, 0)
        out = evolve(start, two_state_matrix, 1)
        assert np.allclose(out, [0.9, 0.1])

    def test_mass_conserved_stochastic(self, two_state_matrix):
        start = np.array([0.3, 0.7])
        out = evolve(start, two_state_matrix, 25)
        assert out.sum() == pytest.approx(1.0)

    def test_sparse_matrix_supported(self, two_state_matrix):
        start = point_distribution(2, 1)
        dense = evolve(start, two_state_matrix, 7)
        sparse_out = evolve(start, sparse.csr_matrix(two_state_matrix), 7)
        assert np.allclose(dense, sparse_out)

    def test_negative_steps_rejected(self, two_state_matrix):
        with pytest.raises(ValueError):
            evolve(point_distribution(2, 0), two_state_matrix, -1)


class TestPointDistribution:
    def test_concentrated(self):
        dist = point_distribution(4, 2)
        assert dist[2] == 1.0
        assert dist.sum() == 1.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            point_distribution(3, 3)


class TestValidation:
    def test_valid_stochastic(self, two_state_matrix):
        validate_stochastic(two_state_matrix)

    def test_invalid_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            validate_stochastic(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_substochastic_accepted(self):
        matrix = np.array([[0.5, 0.3], [0.1, 0.2]])
        validate_stochastic(matrix, substochastic=True)

    def test_substochastic_rejects_super(self):
        matrix = np.array([[0.9, 0.3], [0.1, 0.2]])
        with pytest.raises(ValueError):
            validate_stochastic(matrix, substochastic=True)

    def test_row_sums_sparse(self, two_state_matrix):
        sums = row_sums(sparse.csr_matrix(two_state_matrix))
        assert np.allclose(sums, [1.0, 1.0])


class TestStationary:
    def test_known_chain(self, two_state_matrix):
        pi = stationary_distribution(two_state_matrix)
        # Solve directly: pi0 * 0.1 = pi1 * 0.5 -> pi = (5/6, 1/6).
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-9)

    def test_fixed_point(self, two_state_matrix):
        pi = stationary_distribution(two_state_matrix)
        assert np.allclose(pi @ two_state_matrix, pi, atol=1e-9)


class TestPerFlowStepProbabilities:
    def test_normalisation(self):
        p_flows, p_none = per_flow_step_probabilities(np.array([0.1, 0.3]))
        assert p_flows.sum() + p_none == pytest.approx(1.0)

    def test_closed_form(self):
        rates = np.array([0.2, 0.3])
        p_flows, p_none = per_flow_step_probabilities(rates)
        denom = 1.0 + 0.5
        assert np.allclose(p_flows, rates / denom)
        assert p_none == pytest.approx(1.0 / denom)

    def test_zero_rates(self):
        p_flows, p_none = per_flow_step_probabilities(np.zeros(3))
        assert p_none == 1.0
        assert p_flows.sum() == 0.0

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            per_flow_step_probabilities(np.array([-0.1]))

    def test_proportionality_preserved(self):
        rates = np.array([0.1, 0.4])
        p_flows, _ = per_flow_step_probabilities(rates)
        assert p_flows[1] / p_flows[0] == pytest.approx(4.0)


class TestSparseInputs:
    """Sparse-matrix and read-only handling of the chain helpers."""

    def test_evolve_frozen_csr_buffers(self, two_state_matrix):
        matrix = sparse.csr_matrix(two_state_matrix)
        matrix.data.setflags(write=False)
        matrix.indices.setflags(write=False)
        matrix.indptr.setflags(write=False)
        out = evolve(point_distribution(2, 0), matrix, 9)
        assert np.allclose(out, evolve(point_distribution(2, 0), two_state_matrix, 9))

    def test_evolve_does_not_mutate_inputs(self, two_state_matrix):
        matrix = sparse.csr_matrix(two_state_matrix)
        data_before = matrix.data.copy()
        start = np.array([0.25, 0.75])
        start.setflags(write=False)
        out = evolve(start, matrix, 5)
        assert np.array_equal(matrix.data, data_before)
        assert np.array_equal(start, [0.25, 0.75])
        assert out.flags.writeable

    def test_evolve_sparse_distribution_row(self, two_state_matrix):
        row = sparse.csr_matrix(np.array([[0.3, 0.7]]))
        out = evolve(row, two_state_matrix, 3)
        assert out.ndim == 1
        assert np.allclose(out, evolve(np.array([0.3, 0.7]), two_state_matrix, 3))

    def test_validate_frozen_substochastic(self, two_state_matrix):
        matrix = sparse.csr_matrix(np.array([[0.5, 0.3], [0.1, 0.2]]))
        matrix.data.setflags(write=False)
        validate_stochastic(matrix, substochastic=True)

    def test_row_sums_frozen_csr(self, two_state_matrix):
        matrix = sparse.csr_matrix(two_state_matrix)
        matrix.data.setflags(write=False)
        assert np.allclose(row_sums(matrix), [1.0, 1.0])


class TestTransitionOperator:
    def test_dense_and_sparse_agree(self, two_state_matrix):
        from repro.core.chain import TransitionOperator

        start = np.array([0.6, 0.4])
        dense_op = TransitionOperator(two_state_matrix)
        sparse_op = TransitionOperator(sparse.csr_matrix(two_state_matrix))
        assert np.allclose(
            dense_op.power(start, 13), sparse_op.power(start, 13), atol=1e-14
        )

    def test_stacked_rows_match_single(self, two_state_matrix):
        from repro.core.chain import TransitionOperator

        operator = TransitionOperator(sparse.csr_matrix(two_state_matrix))
        stacked = np.array([[1.0, 0.0], [0.25, 0.75]])
        powered = operator.power(stacked, 6)
        for row in range(2):
            assert np.allclose(
                powered[row], operator.power(stacked[row], 6), atol=1e-14
            )

    def test_negative_steps_rejected(self, two_state_matrix):
        from repro.core.chain import TransitionOperator

        with pytest.raises(ValueError):
            TransitionOperator(two_state_matrix).power(
                point_distribution(2, 0), -1
            )


class TestPowerChain:
    def test_incremental_matches_full(self, two_state_matrix):
        from repro.core.chain import PowerChain, TransitionOperator

        operator = TransitionOperator(sparse.csr_matrix(two_state_matrix))
        start = point_distribution(2, 0)
        chain = PowerChain(operator, start)
        for steps in (3, 1, 7, 7, 20):
            incremental = chain.advance(steps)
            assert np.array_equal(incremental, operator.power(start, steps))

    def test_results_frozen(self, two_state_matrix):
        from repro.core.chain import PowerChain, TransitionOperator

        chain = PowerChain(
            TransitionOperator(two_state_matrix), point_distribution(2, 0)
        )
        out = chain.advance(4)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0
