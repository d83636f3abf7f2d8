"""Differential tests: production computes the oracle's probabilities.

Hypothesis generates arbitrary tiny policies (including hard-timeout
rules, timeout-1 rules whose hazards hit the degenerate branches, and
zero-ish rates) and checks, against the dense oracle
(:mod:`tests.oracles.dense`):

* the vectorised sparse builder emits a transition matrix *bit-equal*
  to the per-state builder (the design contract: the sparse kernel
  mirrors the reference arithmetic operation for operation);
* evolved distributions, marginals, priors, and probe selections agree
  across kernels;
* the incremental power chain is bit-equal to full re-powering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import TransitionOperator, evolve
from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse

from tests import oracles

N_FLOWS = 4

#: Cross-kernel distribution tolerance: dense BLAS matmul and the
#: sequential sparse matvec may differ in the last ulp per step.
DIST_ATOL = 1e-12


@st.composite
def model_specs(draw):
    """A random tiny scenario as plain data (so both kernels get it)."""
    n_rules = draw(st.integers(2, 4))
    rules = []
    for rank in range(n_rules):
        covered = draw(
            st.sets(st.integers(0, N_FLOWS - 1), min_size=1, max_size=N_FLOWS)
        )
        timeout = draw(st.integers(1, 6))
        hard = draw(st.booleans())
        rules.append((frozenset(covered), timeout, hard))
    rates = tuple(
        draw(st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False))
        for _ in range(N_FLOWS)
    )
    cache_size = draw(st.integers(1, 3))
    return rules, rates, cache_size


KERNELS = {"sparse": CompactModel, "dense": oracles.dense.DenseCompactModel}


def _build(spec, kernel: str) -> CompactModel:
    rule_specs, rates, cache_size = spec
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=covered,
            timeout_steps=timeout,
            priority=100 - rank,
            hard=hard,
        )
        for rank, (covered, timeout, hard) in enumerate(rule_specs)
    ]
    universe = FlowUniverse(
        tuple(FlowId(src=i, dst=99) for i in range(N_FLOWS)), rates
    )
    return KERNELS[kernel](Policy(rules), universe, 0.25, cache_size)


@settings(max_examples=40, deadline=None)
@given(model_specs())
def test_sparse_matrix_bit_equal_to_dense(spec):
    dense = _build(spec, "dense")
    sparse_model = _build(spec, "sparse")
    reference = np.asarray(dense.transition_matrix())
    vectorised = sparse_model.transition_matrix().toarray()
    np.testing.assert_array_equal(vectorised, reference)


@settings(max_examples=25, deadline=None)
@given(model_specs(), st.integers(0, N_FLOWS - 1))
def test_excluded_matrices_bit_equal(spec, flow):
    dense = _build(spec, "dense")
    sparse_model = _build(spec, "sparse")
    reference = np.asarray(dense.transition_matrix(exclude_flows=(flow,)))
    vectorised = sparse_model.transition_matrix(
        exclude_flows=(flow,)
    ).toarray()
    np.testing.assert_array_equal(vectorised, reference)


@settings(max_examples=25, deadline=None)
@given(model_specs(), st.integers(0, 30))
def test_distributions_agree_across_kernels(spec, steps):
    dense = _build(spec, "dense")
    sparse_model = _build(spec, "sparse")
    np.testing.assert_allclose(
        sparse_model.distribution_after(steps),
        dense.distribution_after(steps),
        atol=DIST_ATOL, rtol=0,
    )


@settings(max_examples=25, deadline=None)
@given(model_specs(), st.lists(st.integers(1, 40), min_size=1, max_size=5))
def test_power_chain_bit_equal_to_full_repower(spec, schedule):
    """Resuming from a checkpoint is the same matvec suffix, bit for bit."""
    model = _build(spec, "sparse")
    chain = model.power_chain()
    operator = model.transition_operator()
    start = model.initial_distribution()
    for steps in schedule:
        incremental = chain.advance(steps)
        full = operator.power(start, steps)
        np.testing.assert_array_equal(incremental, full)


@settings(max_examples=15, deadline=None)
@given(model_specs(), st.integers(0, N_FLOWS - 1))
def test_inference_quantities_agree(spec, target):
    dense_inf = ReconInference(_build(spec, "dense"), target, 12)
    sparse_inf = ReconInference(_build(spec, "sparse"), target, 12)
    assert sparse_inf.prior_absent() == pytest.approx(
        dense_inf.prior_absent(), abs=DIST_ATOL
    )
    for flow in range(N_FLOWS):
        assert sparse_inf.information_gain((flow,)) == pytest.approx(
            dense_inf.information_gain((flow,)), abs=1e-9
        )


@settings(max_examples=10, deadline=None)
@given(model_specs(), st.integers(0, N_FLOWS - 1))
def test_engine_selection_agrees(spec, target):
    """`engine.best_single` picks the same probe under either kernel."""
    dense_engine = ProbeScoringEngine(
        inference=ReconInference(_build(spec, "dense"), target, 12)
    )
    sparse_engine = ProbeScoringEngine(
        inference=ReconInference(_build(spec, "sparse"), target, 12)
    )
    dense_probes, dense_gain = dense_engine.best_single()
    sparse_probes, sparse_gain = sparse_engine.best_single()
    assert sparse_gain == pytest.approx(dense_gain, abs=1e-9)
    # Identical winner unless two candidates tie to within the margin
    # the selection scan itself uses.
    if dense_probes != sparse_probes:
        alt_gain = sparse_engine.score_tails((), list(dense_probes))[0]
        assert sparse_gain == pytest.approx(alt_gain, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(model_specs(), st.integers(1, 25))
def test_operator_matches_generic_evolve(spec, steps):
    """TransitionOperator.power == chain.evolve on the same csr matrix."""
    model = _build(spec, "sparse")
    matrix = model.transition_matrix()
    start = model.initial_distribution()
    np.testing.assert_array_equal(
        TransitionOperator(matrix).power(start, steps),
        evolve(start, matrix, steps),
    )
