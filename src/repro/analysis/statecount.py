"""State-space sizes of the two models (Sections IV-A2 and IV-B).

The basic model's state count is the paper's closed form

    sum over Rules' subset of Rules, |Rules'| <= n of
        |Rules'|! * prod_{rule_j in Rules'} (t_j + 1)

(each cached subset can appear in any recency order, and each cached
rule carries a remaining-time counter in ``0..t_j``).  The compact
model's count is ``sum_{k=1..n} C(|Rules|, k)`` non-empty states (the
implementation also keeps the empty cache as the start state, and drops
the subsets holding a rule that no flow installs).

Note on the paper's worked example: for ``|Rules| = 10``, ``t_j = 100``,
``n = 8`` the paper quotes "about 5.9 x 10^7" states, but the printed
formula evaluates to about ``2.0 x 10^22`` (the ``k = 8`` term alone is
``C(10,8) * 8! * 101^8``).  We implement the formula as printed and
record the discrepancy in EXPERIMENTS.md; either way the qualitative
point -- the basic model is astronomically larger than the compact
model's 2510 states at the experiment's parameters -- stands.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, Sequence, Union


def basic_state_count(
    timeouts: Sequence[int], cache_size: int
) -> int:
    """Exact basic-model state count for per-rule timeouts.

    ``timeouts[j]`` is ``t_j`` in steps; subsets of size up to
    ``cache_size`` are enumerated, each contributing
    ``k! * prod (t_j + 1)``.
    """
    if cache_size < 0:
        raise ValueError("cache_size must be non-negative")
    n_rules = len(timeouts)
    total = 0
    for size in range(0, min(cache_size, n_rules) + 1):
        factorial = math.factorial(size)
        for subset in combinations(range(n_rules), size):
            product = 1
            for rule in subset:
                product *= timeouts[rule] + 1
            total += factorial * product
    return total


def basic_state_count_uniform(
    n_rules: int, timeout: int, cache_size: int
) -> int:
    """Closed form for identical timeouts (no subset enumeration)."""
    if cache_size < 0 or n_rules < 0 or timeout < 0:
        raise ValueError("arguments must be non-negative")
    total = 0
    for size in range(0, min(cache_size, n_rules) + 1):
        total += (
            math.comb(n_rules, size)
            * math.factorial(size)
            * (timeout + 1) ** size
        )
    return total


def compact_state_count(n_rules: int, cache_size: int) -> int:
    """Compact-model state count ``sum_{k=1..n} C(|Rules|, k)``.

    This is the paper's formula, over every subset of the rules; it
    starts at ``k = 1``, so it leaves out the empty-cache start state
    that the implementation carries.  The implementation enumerates
    only subsets of the rules some flow installs
    (:attr:`CompactModel.live_rules`), so its ``n_states`` is this count
    for the number of installable rules, plus the empty state:
    ``compact_state_count(popcount(live_rules), n) + 1``.
    """
    if cache_size < 0 or n_rules < 0:
        raise ValueError("arguments must be non-negative")
    total = sum(
        math.comb(n_rules, size)
        for size in range(1, min(cache_size, n_rules) + 1)
    )
    return total


def state_count_table(
    n_rules: int, timeout: int, cache_sizes: Sequence[int]
) -> List[Dict[str, Union[int, float]]]:
    """Rows comparing basic vs compact counts across cache sizes."""
    rows: List[Dict[str, Union[int, float]]] = []
    for cache_size in cache_sizes:
        basic = basic_state_count_uniform(n_rules, timeout, cache_size)
        compact = compact_state_count(n_rules, cache_size)
        rows.append(
            {
                "cache_size": cache_size,
                "basic": basic,
                "compact": compact,
                "ratio": basic / compact if compact else float("inf"),
            }
        )
    return rows
