"""Oracle: the dense probability kernel.

The compact model's first implementation: transition entries from the
per-state loop :meth:`CompactModel._build_entries` (never the vectorised
:mod:`repro.core.transition_build`), densified into read-only
``np.ndarray`` matrices, and powered with a plain ``d @ A`` loop.
Production ships only the sparse path; this oracle is what
tests/core/test_golden_kernels.py and tests/core/test_sparse_dense_diff.py
hold it against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

import numpy as np

from repro.core.compact_model import CompactModel


class DenseCompactModel(CompactModel):
    """:class:`CompactModel` on the per-state builder and dense matrices."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._dense_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    def _ensure_entries(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._entries is None:
            self._entries = self._build_entries()
        return self._entries

    def transition_matrix(  # type: ignore[override]
        self, exclude_flows: Iterable[int] = ()
    ) -> np.ndarray:
        # Densify the assembled CSR, so duplicate entries are summed in
        # the same order as in production.
        key = self._exclusion_key(exclude_flows)
        matrix = self._dense_cache.get(key)
        if matrix is None:
            matrix = super().transition_matrix(key).toarray()
            matrix.setflags(write=False)
            self._dense_cache[key] = matrix
        return matrix
