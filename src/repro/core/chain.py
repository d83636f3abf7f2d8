"""Markov chain utilities shared by the basic and compact models.

Conventions: distributions are 1-D numpy row vectors; transition matrices
``A`` satisfy ``A[i, j] = P(state_i -> state_j)``, so one step of
evolution is ``d @ A``.  The paper writes the same computation as
``I_T = A^T I_0`` with column vectors (Eqn. 8).

Matrices may be *substochastic* (rows summing to less than one) when the
target flow's transitions have been removed to compute joint events with
``X̂ = 0`` (Section V-A); the missing mass is exactly the probability of
the target flow having occurred.

Two pieces of machinery keep repeated powering cheap:

* :class:`TransitionOperator` precomputes ``A^T`` in CSR layout once, so
  every subsequent step is a single CSR matvec instead of the per-step
  transpose hidden in ``d @ A`` for sparse ``A``.  The accumulation
  order matches scipy's ``d @ A`` path element-for-element, so results
  are bit-identical to the naive loop.  A 1-D chain runs in one call
  to the native float64 kernel (:func:`repro.core.cnative.chain_f64`)
  when it loads, and on scipy's ``csr_matvec`` otherwise; both sum
  every row in CSR index order as ``s = s + a*x`` (a rounded multiply,
  then a rounded add), so the two are bit-identical too.
* :class:`PowerChain` memoises ``A^T^k I_0`` at every requested ``k``,
  so adjacent window lengths ``T' > T`` pay ``T' - T`` matvecs instead
  of a full re-powering (the fig6/fig7 window sweeps and the window
  ablation benchmark).  Because powering is a fixed sequence of
  matvecs, resuming from a checkpoint is bit-identical to starting
  over.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.core import cnative
from repro.obs import counter_inc

MatrixLike = Union[np.ndarray, sparse.spmatrix]

try:  # scipy's raw CSR matvec: skips per-call wrapper/validation overhead
    from scipy.sparse import _sparsetools

    _csr_matvec = _sparsetools.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - older scipy
    _csr_matvec = None


def _as_dense(distribution: Union[np.ndarray, sparse.spmatrix]) -> np.ndarray:
    """Distribution input -> float64 ndarray (1-D, or 2-D row stack).

    Sparse inputs are densified explicitly; a single sparse row comes
    back as a 1-D vector (the row-vector convention), a multi-row
    sparse input as a 2-D stack.  ``np.matrix`` is demoted to a plain
    ndarray so downstream arithmetic keeps ndarray semantics.
    """
    if sparse.issparse(distribution):
        dense = np.asarray(distribution.todense(), dtype=np.float64)
        return dense.ravel() if dense.shape[0] == 1 else dense
    return np.asarray(distribution, dtype=np.float64)


class TransitionOperator:
    """Repeated application of ``d -> d @ A`` with the transpose hoisted.

    For sparse ``A`` the operator stores ``A^T`` in CSR layout once;
    each step is then one CSR matvec.  Dense matrices keep the plain
    ``@`` loop.

    A 1-D sparse chain runs natively when :mod:`~repro.core.cnative`
    loads: the first such call lays ``A^T`` out as sliced ELL
    (:func:`~repro.core.cnative.sell8_layout`) and caches it, and each
    chain is then one :func:`~repro.core.cnative.chain_f64` call.  That
    kernel is bit-identical to the scipy loop by construction: each lane
    sums one row of ``A^T`` in CSR index order as ``s = s + a*x`` --
    scipy's ``csr_matvec`` order, with no fused multiply-add -- padding
    is masked out of the sums, and rows are independent, so the order
    they run in does not matter.  Without the kernel (no ``gcc``, or
    ``REPRO_NO_CKERNEL=1``) chains run the scipy loop.  Row stacks
    always use scipy and never build the layout.
    """

    # The operator re-lays-out a matrix its caller already routed
    # through validate_stochastic; re-validating the transpose here
    # would reject legitimately substochastic inputs.
    def __init__(self, matrix: MatrixLike) -> None:  # repro: noqa[STO001]
        if sparse.issparse(matrix):
            self._dense: Optional[np.ndarray] = None
            transposed = sparse.csr_matrix(matrix.T)
            transposed.data.setflags(write=False)
            transposed.indices.setflags(write=False)
            transposed.indptr.setflags(write=False)
            self._csr_t: Optional[sparse.csr_matrix] = transposed
        else:
            self._dense = np.asarray(matrix, dtype=np.float64)
            self._csr_t = None
        self._sell8: Optional[cnative.Sell8] = None
        self.shape: Tuple[int, int] = tuple(matrix.shape)  # type: ignore[assignment]

    def power(self, distribution: np.ndarray, steps: int) -> np.ndarray:
        """``distribution @ A^steps`` for a 1-D vector or 2-D row stack."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        current = _as_dense(distribution).copy()
        if steps == 0:
            return current
        if self._csr_t is None:
            matrix = self._dense
            stacked = current.ndim > 1
            for _ in range(steps):
                current = np.asarray(current @ matrix)
                if not stacked:
                    current = current.ravel()
            return current
        transposed = self._csr_t
        if current.ndim == 1:
            counter_inc("kernel.sparse.matvecs", steps)
            if cnative.available():
                if self._sell8 is None:
                    self._sell8 = cnative.sell8_layout(
                        transposed.indptr, transposed.indices, transposed.data
                    )
                return cnative.chain_f64(self._sell8, current, steps)
            return scipy_chain(transposed, current, steps)
        # Row stack: (k, n) @ A == (A^T @ (k, n)^T)^T, all rows per step.
        counter_inc("kernel.sparse.matvecs", steps * current.shape[0])
        for _ in range(steps):
            current = np.ascontiguousarray((transposed @ current.T).T)
        return current


def scipy_chain(
    transposed: sparse.csr_matrix, current: np.ndarray, steps: int
) -> np.ndarray:
    """``steps`` scipy matvecs ``x <- A^T x``; overwrites ``current``.

    The fallback (and the reference) for the native float64 chain.
    """
    if _csr_matvec is None:
        for _ in range(steps):
            current = transposed @ current
        return current
    n_rows, n_cols = transposed.shape
    indptr = transposed.indptr
    indices = transposed.indices
    data = transposed.data
    scratch = np.zeros(n_rows, dtype=np.float64)
    fill = scratch.fill
    current_fill = current.fill
    for _ in range(steps):
        fill(0.0)
        _csr_matvec(n_rows, n_cols, indptr, indices, data, current, scratch)
        current, scratch = scratch, current
        fill, current_fill = current_fill, fill
    return current


class PowerChain:
    """Incremental powering ``I_k = A^T^k I_0`` with checkpoint reuse.

    ``advance(T)`` returns the frozen distribution after ``T`` steps,
    resuming from the largest previously computed checkpoint ``<= T``.
    Since the matvec sequence from a checkpoint is exactly the suffix of
    the full sequence, incremental results are bit-identical to a full
    re-powering from the start distribution.
    """

    def __init__(
        self, operator: TransitionOperator, start: np.ndarray
    ) -> None:
        self._operator = operator
        frozen = np.array(start, dtype=np.float64)
        frozen.setflags(write=False)
        self._checkpoints: Dict[int, np.ndarray] = {0: frozen}

    @property
    def operator(self) -> TransitionOperator:
        """The underlying one-step operator."""
        return self._operator

    def advance(self, steps: int) -> np.ndarray:
        """Frozen distribution after ``steps`` chain steps (memoised)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        cached = self._checkpoints.get(steps)
        if cached is not None:
            if steps > 0:
                counter_inc("kernel.power_chain.reuses")
            return cached
        base = max(k for k in self._checkpoints if k <= steps)
        if base > 0:
            counter_inc("kernel.power_chain.reuses")
        result = self._operator.power(self._checkpoints[base], steps - base)
        result.setflags(write=False)
        self._checkpoints[steps] = result
        return result


def evolve(
    distribution: Union[np.ndarray, sparse.spmatrix],
    matrix: MatrixLike,
    steps: int,
) -> np.ndarray:
    """Apply ``steps`` chain steps: ``d <- d @ A`` repeated.

    Works for dense and scipy-sparse matrices *and* distributions: a
    sparse distribution is densified explicitly (a single sparse row
    becomes a 1-D vector), so the result is always a plain writable
    ``np.ndarray`` -- never ``np.matrix`` or a sparse product.
    ``steps == 0`` returns a copy of the input distribution.  A 2-D
    input is treated as a stack of row distributions, all evolved in
    one matrix product per step (the batched path of the probe-scoring
    engine).
    """
    return TransitionOperator(matrix).power(_as_dense(distribution), steps)


def point_distribution(size: int, index: int) -> np.ndarray:
    """Distribution concentrated on one state."""
    if not 0 <= index < size:
        raise IndexError(f"state index {index} out of range for size {size}")
    dist = np.zeros(size, dtype=np.float64)
    dist[index] = 1.0
    return dist


def row_sums(matrix: MatrixLike) -> np.ndarray:
    """Per-row transition mass (1.0 for a proper stochastic matrix)."""
    if sparse.issparse(matrix):
        return np.asarray(matrix.sum(axis=1)).ravel()
    return np.asarray(np.asarray(matrix).sum(axis=1)).ravel()


#: Row-sum tolerance of :func:`validate_stochastic`.
STOCHASTIC_ATOL = 1e-9


def validate_stochastic(
    matrix: MatrixLike, substochastic: bool = False
) -> None:
    """Raise ``ValueError`` unless rows sum to one (or at most one).

    With ``substochastic=True``, rows may sum to anything in ``[0, 1]``
    (the target-excluded matrices of Section V-A).  Accepts dense
    arrays, ``np.matrix``, and every scipy-sparse format.  Sums are
    checked to :data:`STOCHASTIC_ATOL`.
    """
    atol = STOCHASTIC_ATOL
    sums = row_sums(matrix)
    if substochastic:
        if (sums > 1.0 + atol).any() or (sums < -atol).any():
            raise ValueError("matrix is not substochastic")
        return
    if not np.allclose(sums, 1.0, atol=atol):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(
            f"matrix is not row-stochastic: row {worst} sums to {sums[worst]!r}"
        )


def stationary_distribution(
    matrix: MatrixLike,
    tol: float = 1e-12,
    max_iterations: int = 100000,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stationary distribution by power iteration.

    Suitable for the irreducible, aperiodic chains produced by the models
    (every state reaches the empty cache through timeouts, and the empty
    cache has a self-loop through the no-arrival event).  Sparse
    matrices iterate through the cached-transpose operator, so the
    per-iteration cost is one CSR matvec.
    """
    size = matrix.shape[0]
    current = (
        np.full(size, 1.0 / size)
        if initial is None
        else _as_dense(initial).copy()
    )
    operator = TransitionOperator(matrix)
    for _ in range(max_iterations):
        nxt = operator.power(current, 1)
        if np.abs(nxt - current).max() < tol:
            return nxt
        current = nxt
    raise RuntimeError("power iteration did not converge")


def per_flow_step_probabilities(
    step_rates: Union[np.ndarray, sparse.spmatrix],
) -> Tuple[np.ndarray, float]:
    """Normalised per-step event probabilities for Poisson arrivals.

    The paper assigns each rule the unnormalised probability
    ``(gamma e^{-gamma}) e^{-Gamma}`` of being the step's (single) arrival
    and then normalises over all transitions (Section IV-A1).  Decomposed
    per flow, the unnormalised weights are ``lambda_f Delta e^{-Lambda
    Delta}`` for each flow and ``e^{-Lambda Delta}`` for "no arrival";
    after normalisation:

    ``p_f = lambda_f Delta / (1 + Lambda Delta)``,
    ``p_none = 1 / (1 + Lambda Delta)``.

    Returns ``(p_flows, p_none)``; the decomposition is what allows the
    target flow's transitions to be zeroed exactly (Section V-A).
    Sparse inputs (a sparse row of rates) are densified explicitly.
    """
    rates = _as_dense(step_rates)
    if (rates < 0).any():
        raise ValueError("negative step rates")
    denominator = 1.0 + float(rates.sum())
    return rates / denominator, 1.0 / denominator
