"""Tests for the native kernels: the float32 pair chain and the float64 chain.

Both SIMD builds of each kernel run here: the scalar loop on every host,
the AVX-512 loop where the CPU has it.  Bit-equality of the float64
chain with scipy over random models lives in ``test_chain_native_diff``.
The pair chain is checked against float64 powering within the bound the
certified screen derives for it (:func:`fastscreen.error_bounds`).
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from repro.core import cnative
from repro.core.chain import scipy_chain
from repro.experiments.fastscreen import error_bounds

from tests.oracles.pairlayout import pair_sell8_layout


@pytest.fixture
def reset_kernel():
    """Reload the kernel around a test so env overrides take effect."""
    cnative._reset_for_tests()
    yield
    cnative._reset_for_tests()


def _pair_layout(first: np.ndarray, second: np.ndarray) -> cnative.PairSell8:
    """Layout of ``first.T`` and ``second.T`` on their union pattern.

    Where one matrix lacks an entry of the other, it stores 0.
    """
    pattern = sparse.csr_matrix(((first != 0) | (second != 0)).T.astype(float))
    pattern.sort_indices()
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    cols = pattern.indices
    return pair_sell8_layout(
        pattern.indptr, cols, first.T[rows, cols], second.T[rows, cols]
    )


def _random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    matrix = rng.random((n, n))
    matrix[rng.random((n, n)) < 0.6] = 0.0
    matrix += np.eye(n)  # no all-zero rows
    return matrix / matrix.sum(axis=1, keepdims=True)


def _run(level: str, layout: cnative.PairSell8, x0: np.ndarray, steps: int):
    """``steps`` pair-chain steps of the ``level`` build from ``x0``, as
    ``(full, excluded)`` vectors in the original row order."""
    chain = cnative.PairChain(layout, x0)
    cnative._pair_chain_f32(level, chain, steps)
    return chain.unsorted(chain.chains)


@pytest.fixture(params=cnative.LEVELS)
def level(request, monkeypatch, reset_kernel):
    """Each SIMD build the host can run (skips AVX-512 elsewhere)."""
    monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")
    if request.param == "avx512" and cnative.simd_level() != "avx512":
        pytest.skip("this CPU has no AVX-512")
    return request.param


class TestCacheKey:
    @pytest.fixture(autouse=True)
    def _pinned_compiler(self, monkeypatch):
        monkeypatch.setattr(cnative, "_compiler_version", lambda _: "12.2.0")

    def test_flags_change_the_target(self):
        base = cnative.kernel_path()
        assert cnative.kernel_path(cnative.COMPILE_ARGV) == base
        assert cnative.kernel_path(
            cnative.COMPILE_ARGV + ("-march=native",)
        ) != base
        without_contract_off = tuple(
            arg for arg in cnative.COMPILE_ARGV if arg != "-ffp-contract=off"
        )
        assert cnative.kernel_path(without_contract_off) != base

    def test_compiler_version_changes_the_target(self, monkeypatch):
        base = cnative.kernel_path()
        monkeypatch.setattr(cnative, "_compiler_version", lambda _: "13.1.0")
        assert cnative.kernel_path() != base

    def test_source_changes_the_target(self, monkeypatch):
        base = cnative.kernel_path()
        monkeypatch.setattr(cnative, "_SOURCE", cnative._SOURCE + "\n")
        assert cnative.kernel_path() != base

    def test_target_lives_in_the_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cnative.CACHE_ENV_VAR, str(tmp_path))
        assert cnative.kernel_path().startswith(str(tmp_path))


class TestDisabled:
    def test_kill_switch_forces_the_fallback(self, monkeypatch, reset_kernel):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        assert not cnative.available()
        assert cnative.DISABLE_ENV_VAR in (cnative.load_error() or "")
        assert cnative.simd_level() == "none"

    def test_pair_chain_raises_when_unavailable(
        self, monkeypatch, reset_kernel
    ):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        n = 4
        layout = _pair_layout(np.eye(n), np.eye(n))
        x0 = np.full(n, 1.0 / n)
        chain = cnative.PairChain(layout, x0)
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            cnative.pair_chain_f32(chain, 3)

    def test_chain_raises_when_unavailable(self, monkeypatch, reset_kernel):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        csr = sparse.csr_matrix(np.eye(3))
        layout = cnative.sell8_layout(csr.indptr, csr.indices, csr.data)
        with pytest.raises(RuntimeError, match="native kernel unavailable"):
            cnative.chain_f64(layout, np.ones(3), 2)


class TestKernel:
    @pytest.fixture(autouse=True)
    def _require_kernel(self, monkeypatch, reset_kernel):
        monkeypatch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
        if not cnative.available():
            pytest.skip(f"native kernel unavailable: {cnative.load_error()}")

    def test_simd_level_reported(self):
        assert cnative.simd_level() in ("avx512", "scalar")

    def test_chain_uses_the_host_build(self):
        rng = np.random.default_rng(3)
        _, layout = _chain_pieces(_random_stochastic(rng, 21))
        x0 = rng.random(21)
        np.testing.assert_array_equal(
            cnative.chain_f64(layout, x0, 7),
            cnative._chain_f64(cnative.simd_level(), layout, x0, 7),
        )

    def test_avx512_refused_without_the_cpu_flag(self, monkeypatch):
        monkeypatch.setattr(cnative, "_simd_level", "scalar")
        with pytest.raises(RuntimeError, match="no AVX-512"):
            cnative._entry("chain_f64", "avx512")
        with pytest.raises(ValueError, match="unknown SIMD level"):
            cnative._entry("chain_f64", "sse9")

    @pytest.mark.parametrize("steps", [1, 2, 3, 8])
    def test_matches_float64_powering(self, steps):
        # Odd and even step counts exercise the kernel's buffer-swap
        # copy-back branch; n = 37 leaves a partial last slice; the
        # excluded matrix holds entries the full one lacks (the shared
        # pattern is their union).  Every build the host runs is checked
        # against the derived bound.
        rng = np.random.default_rng(7)
        n = 37
        a = _random_stochastic(rng, n)
        b = _random_stochastic(rng, n) * (rng.random((n, n)) < 0.7)
        assert ((b != 0) & (a == 0)).any()
        layout = _pair_layout(a, b)
        x0 = rng.random(n)
        x0 /= x0.sum()

        want1, want2 = x0.copy(), x0.copy()
        for _ in range(steps):
            want1 = want1 @ a
            want2 = want2 @ b
        bound = error_bounds(
            steps, n, layout.max_row_length, 1, a.sum(axis=1).max()
        ).chain
        levels = ("scalar", "avx512") if cnative.simd_level() == "avx512" else ("scalar",)
        for level in levels:
            y1, y2 = _run(level, layout, x0, steps)
            assert y1.dtype == y2.dtype == np.float32
            assert np.abs(y1 - want1).sum() <= bound
            assert np.abs(y2 - want2).sum() <= bound

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 37, 100])
    @pytest.mark.parametrize("steps", [0, 1, 4, 7])
    def test_scalar_and_avx512_bit_identical(self, n, steps):
        if cnative.simd_level() != "avx512":
            pytest.skip("this CPU has no AVX-512")
        rng = np.random.default_rng(n * 10 + steps)
        a = _random_stochastic(rng, n)
        b = a * (rng.random((n, n)) < 0.5)
        layout = _pair_layout(a, b)
        x0 = rng.random(n)
        scalar = _run("scalar", layout, x0, steps)
        avx512 = _run("avx512", layout, x0, steps)
        for got, want in zip(avx512, scalar):
            np.testing.assert_array_equal(got, want)

    def test_pair_chain_uses_the_host_build(self):
        rng = np.random.default_rng(4)
        a = _random_stochastic(rng, 21)
        layout = _pair_layout(a, a)
        x0 = rng.random(21)
        chain = cnative.PairChain(layout, x0)
        cnative.pair_chain_f32(chain, 5)
        assert chain.steps == 5
        for got, want in zip(
            chain.unsorted(chain.chains), _run(cnative.simd_level(), layout, x0, 5)
        ):
            np.testing.assert_array_equal(got, want)

    def test_input_distribution_not_mutated(self):
        rng = np.random.default_rng(11)
        n = 9
        a = _random_stochastic(rng, n)
        layout = _pair_layout(a, a)
        x0 = np.full(n, 1.0 / n)
        x0.setflags(write=False)
        before = x0.copy()
        chain = cnative.PairChain(layout, x0)
        cnative.pair_chain_f32(chain, 2)
        cnative.pair_chain_f32(chain, 3)
        np.testing.assert_array_equal(x0, before)

    def test_pair_chain_shape_and_steps_checked(self):
        layout = _pair_layout(np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="expected a vector of 3"):
            cnative.PairChain(layout, np.ones(4))
        chain = cnative.PairChain(layout, np.ones(3))
        with pytest.raises(ValueError, match="non-negative"):
            cnative.pair_chain_f32(chain, -1)
        assert chain.steps == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39])
    @pytest.mark.parametrize("state", [0, 2])
    def test_non_finite_initial_vector_refused(self, bad, state):
        # 1e39 is finite in float64 but overflows float32.  State 0 is
        # the one every padding entry reads.
        layout = _pair_layout(np.eye(3), np.eye(3))
        x0 = np.ones(3)
        x0[state] = bad
        with pytest.raises(ValueError, match="must be finite"):
            cnative.PairChain(layout, x0)

    @pytest.mark.parametrize(
        "chunks", [[1] * 9, [3, 5, 1, 7], [2, 4, 6, 8], [0, 11, 0, 2]]
    )
    def test_chunks_bit_identical_to_one_run(self, level, chunks):
        # Odd chunks end in the kernel's scratch and are copied back;
        # even ones end in place.  n = 37 leaves a partial last slice.
        rng = np.random.default_rng(sum(chunks))
        n = 37
        a = _random_stochastic(rng, n)
        layout = _pair_layout(a, a * (rng.random((n, n)) < 0.6))
        x0 = rng.random(n)
        chain = cnative.PairChain(layout, x0)
        for steps in chunks:
            cnative._pair_chain_f32(level, chain, steps)
        assert chain.steps == sum(chunks)
        for got, want in zip(
            chain.unsorted(chain.chains), _run(level, layout, x0, sum(chunks))
        ):
            np.testing.assert_array_equal(got, want)


def _chain_pieces(matrix: np.ndarray):
    """The scipy ``A^T`` CSR and its sliced-ELL layout."""
    csr = sparse.csr_matrix(matrix.T)
    return csr, cnative.sell8_layout(csr.indptr, csr.indices, csr.data)


class TestChainF64:
    """The exact chain equals the scipy loop bit for bit, on both builds."""

    def test_fma_tripwire(self, level):
        # Row 0 of A^T is [1, 1 + 2^-30] against x = [-(1 + 2^-29),
        # 1 + 2^-30].  Rounded separately, the product (1 + 2^-30)^2
        # loses its 2^-60 term and the row sums to exactly 0.  A fused
        # multiply-add keeps the term and returns 2^-60, so a build
        # that contracts to FMA fails here.
        eps = 2.0 ** -30
        transposed = np.array([[1.0, 1.0 + eps], [0.0, 1.0]])
        x0 = np.array([-(1.0 + 2 * eps), 1.0 + eps])
        acc = x0[0]
        product = transposed[0, 1] * x0[1]
        assert acc + product == 0.0
        exact = Fraction(acc) + Fraction(transposed[0, 1]) * Fraction(x0[1])
        assert exact == Fraction(1, 2 ** 60)  # what an FMA would return

        csr, layout = _chain_pieces(transposed.T)
        assert list(csr.indices[: csr.indptr[1]]) == [0, 1]
        native = cnative._chain_f64(level, layout, x0, 1)
        np.testing.assert_array_equal(native, scipy_chain(csr, x0.copy(), 1))
        assert native[0] == 0.0

    def test_input_not_mutated_and_shape_checked(self, level):
        rng = np.random.default_rng(5)
        _, layout = _chain_pieces(_random_stochastic(rng, 10))
        x0 = rng.random(10)
        x0.setflags(write=False)
        before = x0.copy()
        cnative._chain_f64(level, layout, x0, 3)
        np.testing.assert_array_equal(x0, before)
        with pytest.raises(ValueError, match="expected a vector of 10"):
            cnative._chain_f64(level, layout, np.ones(11), 1)
        with pytest.raises(ValueError, match="non-negative"):
            cnative._chain_f64(level, layout, x0, -1)


class TestSell8Layout:
    def test_rows_sorted_by_length_and_padded_per_slice(self):
        rng = np.random.default_rng(9)
        n = 19
        matrix = _random_stochastic(rng, n)
        matrix[:, 4] = 0.0
        matrix[4, 4] = 1.0  # A^T row 4 holds one entry
        csr = sparse.csr_matrix(matrix.T)
        layout = cnative.sell8_layout(csr.indptr, csr.indices, csr.data)
        lengths = np.diff(csr.indptr)
        assert layout.n_slices == 3
        assert sorted(layout.perm[:n]) == list(range(n))
        np.testing.assert_array_equal(layout.lens[:n], lengths[layout.perm[:n]])
        assert np.all(np.diff(layout.lens[:n]) <= 0)
        assert not layout.lens[n:].any()
        widths = np.diff(layout.ptr) // cnative.SLICE
        np.testing.assert_array_equal(widths, layout.lens[:: cnative.SLICE])
        # Every stored entry is a CSR entry of its lane's row, in order.
        for lane, row in enumerate(layout.perm[:n]):
            s, l = divmod(lane, cnative.SLICE)
            slots = layout.ptr[s] + np.arange(lengths[row]) * cnative.SLICE + l
            lo, hi = csr.indptr[row], csr.indptr[row + 1]
            np.testing.assert_array_equal(layout.cols[slots], csr.indices[lo:hi])
            np.testing.assert_array_equal(layout.vals[slots], csr.data[lo:hi])
        assert layout.vals.sum() == pytest.approx(csr.data.sum())

    def test_rejects_columns_outside_a_square_matrix(self):
        csr = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="outside a square 2x2"):
            cnative.sell8_layout(csr.indptr, csr.indices, csr.data)

    def test_empty_matrix(self):
        layout = cnative.sell8_layout(np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0))
        assert layout.n == 0 and layout.n_slices == 0


class TestPairSell8Layout:
    def test_rows_renumbered_by_sorted_position(self):
        rng = np.random.default_rng(12)
        n = 19
        a = _random_stochastic(rng, n)
        b = a * (rng.random((n, n)) < 0.5)
        layout = _pair_layout(a, b)
        pattern = (a != 0) | (b != 0)  # column r is row r of the transposes
        lengths = pattern.sum(axis=0)
        assert layout.n_slices == 3
        assert sorted(layout.perm) == list(range(n))
        assert np.all(np.diff(lengths[layout.perm]) <= 0)
        assert layout.max_row_length == lengths.max()
        # Lane p holds row perm[p] of both transposes, in column order,
        # with columns renumbered by sorted position; the rest is padding.
        padding = np.ones(layout.ptr[-1], dtype=bool)
        for lane, row in enumerate(layout.perm):
            s, l = divmod(lane, cnative.SLICE)
            slots = layout.ptr[s] + np.arange(lengths[row]) * cnative.SLICE + l
            padding[slots] = False
            cols = layout.perm[layout.cols[slots]]
            np.testing.assert_array_equal(cols, np.flatnonzero(pattern[:, row]))
            np.testing.assert_array_equal(layout.vals[slots, 0], a[cols, row].astype(np.float32))
            np.testing.assert_array_equal(layout.vals[slots, 1], b[cols, row].astype(np.float32))
        assert not layout.cols[padding].any()
        assert not layout.vals[padding].any()

    def test_empty_matrix(self):
        layout = pair_sell8_layout(
            np.zeros(1, np.int64), np.zeros(0, np.int32), np.zeros(0), np.zeros(0)
        )
        assert layout.n == 0 and layout.n_slices == 0 and layout.max_row_length == 0
