"""Oracle: the fast screen's pair layout, built by numpy.

:func:`repro.experiments.fastscreen.pair_layout` builds the float32
pair chain's layout with the native kernel
(:func:`repro.core.cnative.entry_pair_layout`), and the screen runs
only where that kernel loads.  This is the numpy build it replaced,
kept as the byte-identical reference the kernel is pinned to
(``tests/experiments/test_pair_layout_diff.py``):

* :func:`numpy_pair_layout` -- one ``np.add.reduceat`` per value array
  collapses the ``(row, col)`` runs; a stable argsort by column gives
  the transposed order;
* :func:`pair_sell8_layout` -- the :class:`~repro.core.cnative.PairSell8`
  of one CSR pattern with two value arrays, on the slots
  :func:`repro.core.cnative.sell8_layout` uses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import cnative
from repro.core.compact_model import run_starts


def pair_sell8_layout(
    indptr: np.ndarray,
    indices: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> cnative.PairSell8:
    """:class:`~repro.core.cnative.PairSell8` of one CSR pattern.

    ``first`` and ``second`` are rounded to ``float32`` here.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    nnz = int(indptr[-1])
    indices = np.asarray(indices)
    order, _, ptr, slot = cnative._sell8_slots(indptr, indices)
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n, dtype=np.int32)
    cols = np.zeros(ptr[-1], dtype=np.int32)
    vals = np.zeros((ptr[-1], 2), dtype=np.float32)
    cols[slot] = position[indices[:nnz]]
    vals[slot, 0] = np.asarray(first)[:nnz]
    vals[slot, 1] = np.asarray(second)[:nnz]
    return cnative.PairSell8(n, ptr, cols, vals, order.astype(np.int32))


def numpy_pair_layout(
    entries: Tuple[np.ndarray, ...], target: int, n: int
) -> Tuple[cnative.PairSell8, int, float]:
    """:func:`~repro.core.cnative.entry_pair_layout`, built by numpy.

    ``entries`` are an ``n``-state chain's ``(rows, cols, probs, tags)``
    in ``(row, col)`` order.  Returns the layout, the longest run and
    the largest row sum of the full matrix.
    """
    rows, cols, probs, tags = entries
    starts = run_starts(rows, cols)
    full = np.add.reduceat(probs, starts)
    excluded = np.add.reduceat(np.where(tags != target, probs, 0.0), starts)
    run_rows = rows[starts]
    run_cols = cols[starts]
    # A stable argsort of 16-bit keys is a radix sort: about 5x faster
    # than on int64 keys at this size.
    keys = run_cols.astype(np.uint16) if n <= 1 << 16 else run_cols
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(run_cols, minlength=n), out=indptr[1:])
    layout = pair_sell8_layout(
        indptr, run_rows[order], full[order], excluded[order]
    )
    max_run = int(np.diff(starts, append=len(rows)).max())
    row_sum = float(np.bincount(run_rows, weights=full, minlength=n).max())
    return layout, max_run, row_sum
