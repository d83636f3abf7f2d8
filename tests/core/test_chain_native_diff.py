"""Differential tests: the native float64 chain is the scipy loop, bit for bit.

:func:`repro.core.cnative.chain_f64` sums every row of ``A^T`` in CSR
index order as ``s = s + a*x``, exactly as scipy's ``csr_matvec`` does,
so the two agree to the last bit by construction.  These tests pin
that with ``np.array_equal`` against :func:`repro.core.chain.scipy_chain`
(the fallback production runs without the kernel), on both SIMD builds
of the kernel:

* over the hypothesis models of ``test_sparse_dense_diff`` and
  ``test_live_states_diff``, full and target-excluded chains, from the
  model's start and from random dense starts;
* on layout edge cases: ``n`` not a multiple of 8, ``n = 1``, empty
  rows, a row longer than every other row in its slice, read-only CSR
  buffers, odd/even/zero ``steps``, and NaN/Inf inputs.

``TransitionOperator.power`` is checked the same way, with the kernel
loaded, disabled (``REPRO_NO_CKERNEL=1``) and without gcc, and
``kernel.sparse.matvecs`` keeps counting the native steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import cnative
from repro.core.chain import TransitionOperator, scipy_chain
from repro.core.compact_model import CompactModel
from repro.obs import Instrumentation, use_instrumentation

from tests.core import test_live_states_diff as live
from tests.core import test_sparse_dense_diff as dense


@pytest.fixture(scope="module")
def levels():
    """The SIMD builds this host runs, or a skip without the kernel."""
    cnative._reset_for_tests()
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")
    if cnative.simd_level() == "avx512":
        return cnative.LEVELS
    return ("scalar",)


def _assert_chains_equal(levels, transposed, x0, steps) -> None:
    """Native builds == the scipy loop, NaN-aware, bit for bit."""
    layout = cnative.sell8_layout(
        transposed.indptr, transposed.indices, transposed.data
    )
    expected = scipy_chain(transposed, np.array(x0, dtype=np.float64), steps)
    for level in levels:
        native = cnative._chain_f64(level, layout, x0, steps)
        assert np.array_equal(native, expected, equal_nan=True), level


def _transposed(matrix) -> sparse.csr_matrix:
    """``A^T`` in CSR, built the way ``TransitionOperator`` builds it."""
    return sparse.csr_matrix(matrix.T)


def _check_model(levels, model: CompactModel, target: int, steps: int,
                 seed: int) -> None:
    dense_start = np.random.default_rng(seed).random(model.n_states)
    for exclude in ((), (target,)):
        transposed = _transposed(model.transition_matrix(exclude))
        _assert_chains_equal(
            levels, transposed, model.initial_distribution(), steps
        )
        _assert_chains_equal(levels, transposed, dense_start, steps)


# ----------------------------------------------------------------------
# Random models
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(spec=dense.model_specs(), target=st.integers(0, dense.N_FLOWS - 1),
       steps=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_sparse_dense_models(levels, spec, target, steps, seed):
    _check_model(levels, dense._build(spec, "sparse"), target, steps, seed)


@pytest.mark.parametrize("variant", live.VARIANTS)
@settings(max_examples=15, deadline=None)
@given(spec=live.model_specs(), target=st.integers(0, live.N_FLOWS - 1),
       steps=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_live_state_models(levels, variant, spec, target, steps, seed):
    model, _ = live._pair(spec, variant)
    _check_model(levels, model, target, steps, seed)


# ----------------------------------------------------------------------
# Layout edge cases
# ----------------------------------------------------------------------
def _random_sparse(rng, n: int, density: float) -> np.ndarray:
    matrix = rng.random((n, n))
    matrix[rng.random((n, n)) >= density] = 0.0
    return matrix


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 17, 64, 101])
@pytest.mark.parametrize("steps", [0, 1, 2, 5])
def test_sizes_and_step_parity(levels, n, steps):
    rng = np.random.default_rng(n * 31 + steps)
    transposed = sparse.csr_matrix(_random_sparse(rng, n, 0.4))
    _assert_chains_equal(levels, transposed, rng.random(n), steps)


def test_empty_rows(levels):
    rng = np.random.default_rng(1)
    matrix = _random_sparse(rng, 13, 0.5)
    matrix[[0, 5, 12]] = 0.0  # rows of A^T with no entries at all
    transposed = sparse.csr_matrix(matrix)
    assert (np.diff(transposed.indptr) == 0).sum() >= 3
    _assert_chains_equal(levels, transposed, rng.random(13), 3)


def test_all_rows_empty(levels):
    transposed = sparse.csr_matrix((11, 11))
    _assert_chains_equal(levels, transposed, np.ones(11), 2)


@pytest.mark.parametrize("long_row", [0, 3, 8, 20])
def test_row_longer_than_its_slice(levels, long_row):
    # One dense row among rows of one or two entries: its slice is
    # almost all padding, which must never enter a sum.
    rng = np.random.default_rng(long_row)
    n = 21
    matrix = np.eye(n) * rng.random(n)
    matrix[np.arange(n), (np.arange(n) + 5) % n] = rng.random(n)
    matrix[long_row] = rng.random(n) + 0.1
    transposed = sparse.csr_matrix(matrix)
    layout = cnative.sell8_layout(
        transposed.indptr, transposed.indices, transposed.data
    )
    assert layout.perm[0] == long_row and layout.lens[0] == n
    assert layout.lens[1] < n
    _assert_chains_equal(levels, transposed, rng.random(n), 4)


def test_unsorted_and_duplicate_indices(levels):
    # scipy sums a row in stored order, duplicates included; so must the
    # kernel.
    indptr = np.array([0, 3, 5, 5, 6])
    indices = np.array([2, 0, 2, 3, 1, 0])
    data = np.array([0.1, 0.7, 1e-17, 0.3, 0.6, 1.0])
    transposed = sparse.csr_matrix((data, indices, indptr), shape=(4, 4))
    assert not transposed.has_sorted_indices
    x0 = np.array([0.25, 0.5, 1.0 / 3.0, 0.1])
    _assert_chains_equal(levels, transposed, x0, 3)


def test_read_only_csr_buffers(levels):
    rng = np.random.default_rng(4)
    transposed = sparse.csr_matrix(_random_sparse(rng, 30, 0.3))
    for array in (transposed.indptr, transposed.indices, transposed.data):
        array.setflags(write=False)
    x0 = rng.random(30)
    x0.setflags(write=False)
    _assert_chains_equal(levels, transposed, x0, 6)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_nan_and_inf_inputs(levels, poison, steps):
    rng = np.random.default_rng(8)
    n = 19
    matrix = _random_sparse(rng, n, 0.2)
    matrix[2] = 0.0
    matrix[2, 2] = 1.0  # a short row sharing slices with longer ones
    transposed = sparse.csr_matrix(matrix)
    x0 = rng.random(n)
    x0[[0, 7]] = poison
    _assert_chains_equal(levels, transposed, x0, steps)


# ----------------------------------------------------------------------
# Through TransitionOperator
# ----------------------------------------------------------------------
def _operator_case():
    rng = np.random.default_rng(12)
    matrix = sparse.csr_matrix(_random_sparse(rng, 45, 0.15))
    return matrix, rng.random(45)


def test_operator_power_is_the_scipy_loop(levels):
    matrix, x0 = _operator_case()
    operator = TransitionOperator(matrix)
    expected = scipy_chain(_transposed(matrix), x0.copy(), 9)
    np.testing.assert_array_equal(operator.power(x0, 9), expected)
    assert operator._sell8 is not None


def _no_gcc(compiler: str) -> str:
    raise FileNotFoundError(f"No such file or directory: {compiler!r}")


@pytest.mark.parametrize("why", ["kill switch", "no gcc"])
def test_operator_falls_back_to_scipy(monkeypatch, why):
    matrix, x0 = _operator_case()
    with monkeypatch.context() as patch:
        if why == "kill switch":
            patch.setenv(cnative.DISABLE_ENV_VAR, "1")
        else:
            patch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
            patch.setattr(cnative, "_compiler_version", _no_gcc)
        cnative._reset_for_tests()
        try:
            assert not cnative.available()
            operator = TransitionOperator(matrix)
            fallback = operator.power(x0, 9)
            assert operator._sell8 is None
        finally:
            cnative._reset_for_tests()
    np.testing.assert_array_equal(
        fallback, scipy_chain(_transposed(matrix), x0.copy(), 9)
    )


def test_row_stacks_never_build_the_layout(levels):
    matrix, x0 = _operator_case()
    operator = TransitionOperator(matrix)
    operator.power(np.stack([x0, x0 / 2.0]), 3)
    assert operator._sell8 is None


def test_native_steps_are_counted(levels):
    matrix, x0 = _operator_case()
    backend = Instrumentation()
    with use_instrumentation(backend):
        operator = TransitionOperator(matrix)
        operator.power(x0, 7)
        operator.power(x0, 0)
        operator.power(x0, 4)
    assert backend.metrics.counter("kernel.sparse.matvecs").value == 11
