"""Bitmask utilities for flow sets and cached-rule sets.

The analytic models spend almost all of their time on set algebra over
small universes (<= 16 flows, <= 12 rules in the paper's experiments).
Representing flow sets and rule sets as Python integers turns unions,
intersections, and complements into single machine operations, and lets
rate sums over arbitrary flow sets come from a precomputed table.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

#: Largest universe for which :class:`RateTable` precomputes all subsets.
_MAX_TABLE_BITS = 20


def mask_from_indices(indices: Iterable[int]) -> int:
    """Pack an iterable of non-negative indices into a bitmask."""
    mask = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"negative index: {index}")
        mask |= 1 << index
    return mask


def indices_from_mask(mask: int) -> List[int]:
    """Unpack a bitmask into a sorted list of set-bit indices."""
    indices = []
    index = 0
    while mask:
        if mask & 1:
            indices.append(index)
        mask >>= 1
        index += 1
    return indices


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit indices of ``mask`` in ascending order."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


try:  # int.bit_count: Python >= 3.10
    (0).bit_count

    def popcount(mask: int) -> int:
        """Number of set bits."""
        return mask.bit_count()

except AttributeError:  # pragma: no cover - Python 3.9 fallback

    def popcount(mask: int) -> int:
        """Number of set bits."""
        return bin(mask).count("1")


class RateTable:
    """Fast ``sum(rates[i] for i in subset)`` over bitmask subsets.

    For universes up to ``2**20`` subsets the sums are tabulated with the
    standard subset-DP (``table[m] = table[m without lowest bit] +
    rate[lowest bit]``); beyond that, sums fall back to a per-call loop.
    """

    def __init__(self, rates: Sequence[float]) -> None:
        self._rates = tuple(float(rate) for rate in rates)
        self._n = len(self._rates)
        if self._n <= _MAX_TABLE_BITS:
            size = 1 << self._n
            table = np.zeros(size, dtype=np.float64)
            # Subset-DP ``table[m] = table[m ^ low] + rate[low]`` done one
            # bit at a time, highest lowest-bit first: every mask whose
            # lowest set bit is ``b`` is its parent (bits above ``b``
            # only) plus ``rate[b]`` -- the exact addition the per-mask
            # loop performs, so the table is bit-identical to it.
            for b in range(self._n - 1, -1, -1):
                view = table[: size].reshape(-1, 1 << (b + 1))
                view[:, 1 << b] = view[:, 0] + self._rates[b]
            self._table = table
        else:  # pragma: no cover - exercised only for huge universes
            self._table = None

    def __len__(self) -> int:
        return self._n

    @property
    def full_mask(self) -> int:
        """Mask with every universe element present."""
        return (1 << self._n) - 1

    @property
    def total(self) -> float:
        """Sum of all rates."""
        return self.sum(self.full_mask)

    def sum(self, mask: int) -> float:
        """Sum of rates over the subset encoded by ``mask``."""
        if self._table is not None:
            return float(self._table[mask])
        total = 0.0  # pragma: no cover - huge-universe fallback
        for index in iter_bits(mask):
            total += self._rates[index]
        return total

    def sums(self, masks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sum` over an integer array of masks.

        The batched gather the vectorised transition builder uses;
        identical values to calling :meth:`sum` per element.
        """
        if self._table is not None:
            return self._table[masks]
        return np.fromiter(  # pragma: no cover - huge-universe fallback
            (self.sum(int(mask)) for mask in np.ravel(masks)),
            dtype=np.float64,
            count=np.size(masks),
        ).reshape(np.shape(masks))


def enumerate_subsets(n_items: int, max_size: int) -> List[int]:
    """All bitmask subsets of ``{0..n_items-1}`` of size ``<= max_size``.

    Ordered by size, then lexicographically by ascending element
    indices (``itertools.combinations`` order): the empty set first,
    then singletons, etc.  Section IV-B counts the ``sum_{k<=n}
    C(|Rules|, k)`` non-empty subsets as compact states; the model
    itself enumerates only the subsets of its installable rules
    (:func:`subsets_within`).
    """
    return subsets_within((1 << n_items) - 1, max_size)


def subsets_within(mask: int, max_size: int) -> List[int]:
    """All subsets of ``mask`` of size ``<= max_size``, as bitmasks.

    The order is :func:`enumerate_subsets`'s order restricted to these
    subsets: combinations of an ascending sub-list keep their relative
    lexicographic order, so this equals filtering the full enumeration
    without paying for it.
    """
    from itertools import combinations

    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    bits = [1 << index for index in iter_bits(mask)]
    subsets: List[int] = []
    append = subsets.append
    for size in range(0, min(max_size, len(bits)) + 1):
        for combo in combinations(bits, size):
            append(sum(combo))
    return subsets
