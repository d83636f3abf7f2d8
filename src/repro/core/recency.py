"""The recency (``u``-function) estimator of the compact model.

The compact model (Section IV-B) throws away per-rule timers; to decide
*which* cached rule is evicted on a full-cache install, and *when* cached
rules time out, the paper reconstructs a distribution over the
most-recent-match sequence ``u`` -- ``u(j)`` being the number of steps
since cached rule ``j`` was last matched -- and sums ``P(u)`` over the
events of interest (Eqns. 1-7):

* rule ``j`` is cached            iff ``u(j) <= t_j``              (Eqn. 2)
* rule ``j`` has the shortest remaining time
                                  iff ``t_j - u(j) <= t_j' - u(j')`` (Eqn. 4)
* rule ``j`` times out now        iff ``u(j) = t_j``               (Eqn. 6)

The exact sums range over *injective* ``u`` (at most one flow arrives per
step) and are exponential in the cached-set size; the paper computed them
offline in MATLAB/C++ on a large server.  The model uses
:class:`IndependentRecencyEstimator`, which drops the cross-rule coupling
``u(j') > k`` in Eqn. 1: each ``u(j)`` becomes an independent truncated
geometric with success probability ``1 - e^{-gamma_j}``, and eviction and
timeout probabilities come in closed form.  O(n * t) per state -- this is
what makes the full |Rules| = 12 experiments run on a laptop.
The exact enumeration and a Monte-Carlo sampler of the same sums are
test oracles (tests/oracles/recency.py) that the approximation is
checked against.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.context import ModelContext


@dataclass(frozen=True)
class RecencyStats:
    """Per-state outputs of a recency estimator.

    ``timeout_hazards[j]``: probability that cached rule ``j`` expires in
    the current step, given it is cached (Eqn. 7 / Eqn. 3).
    ``eviction[j]``: probability that rule ``j`` is the one evicted when
    a full-cache install forces an eviction (Eqn. 5 / Eqn. 3, normalised
    across the cached rules so the transition split is a distribution).
    """

    timeout_hazards: Dict[int, float]
    eviction: Dict[int, float]


class RecencyEstimator(ABC):
    """Interface: state bitmask -> :class:`RecencyStats`."""

    def __init__(self, context: ModelContext) -> None:
        self.context = context
        self._cache: Dict[int, RecencyStats] = {}
        #: ``state -> position`` into the bulk tables (see seed_bulk).
        self._bulk_index: Dict[int, int] = {}
        self._bulk_tables: Optional[
            Sequence[np.ndarray]
        ] = None

    def stats(self, state: int) -> RecencyStats:
        """Memoised per-state statistics."""
        found = self._cache.get(state)
        if found is None:
            position = self._bulk_index.pop(state, None)
            if position is not None:
                found = self._materialize_bulk(position)
            else:
                found = self._compute(state)
            self._cache[state] = found
        return found

    def seed_bulk(
        self,
        states: Sequence[int],
        rules: np.ndarray,
        hazards: np.ndarray,
        eviction: np.ndarray,
    ) -> None:
        """Register bulk-computed rows, materialised lazily on lookup.

        Row ``p`` of ``rules`` / ``hazards`` / ``eviction`` holds the
        cached rules of ``states[p]`` (ascending) with their timeout
        hazards and eviction split.  The values must be bitwise-equal to
        :meth:`_compute`'s, so seeding never changes observable results.
        Nothing is allocated per state until the state is actually
        looked up -- most states of a screened-out model never are.
        """
        self._bulk_tables = (rules, hazards, eviction)
        cache = self._cache
        index = self._bulk_index
        for position, state in enumerate(states):
            if state not in cache:
                index[state] = position

    def _materialize_bulk(self, position: int) -> RecencyStats:
        assert self._bulk_tables is not None
        rules, hazards, eviction = self._bulk_tables
        rule_row = rules[position].tolist()
        return RecencyStats(
            timeout_hazards=dict(zip(rule_row, hazards[position].tolist())),
            eviction=dict(zip(rule_row, eviction[position].tolist())),
        )

    @abstractmethod
    def _compute(self, state: int) -> RecencyStats:
        """Compute statistics for one cached-set bitmask."""


class IndependentRecencyEstimator(RecencyEstimator):
    """Closed-form estimator under per-rule independence.

    With the coupling dropped, ``u(j)`` for cached rule ``j`` follows a
    geometric distribution with per-step match probability
    ``a_j = 1 - e^{-gamma_j}`` truncated to ``{1..t_j}`` (conditioning on
    the rule being cached).  As ``a_j -> 0`` the truncated geometric
    degenerates to the uniform distribution on ``{1..t_j}`` -- exactly
    the right limit for a rule that is never re-matched after install.

    Ties in remaining time are resolved by the midpoint smoothing
    ``P(r' > r) + P(r' = r)/2`` (equivalent to adding an independent
    uniform jitter and evaluating at its mean), then normalising.
    """

    def _u_pmf(self, gamma: float, timeout: int) -> np.ndarray:
        """Truncated-geometric pmf of ``u`` over ``1..timeout``.

        Index 0 of the returned array corresponds to ``u = 1``.
        """
        a = -math.expm1(-gamma)  # 1 - e^{-gamma}, numerically stable
        if a <= 0.0:
            return np.full(timeout, 1.0 / timeout)
        k = np.arange(timeout, dtype=np.float64)
        pmf = a * np.power(1.0 - a, k)
        total = pmf.sum()
        if total <= 0.0:  # gamma enormous: all mass at u = 1
            pmf = np.zeros(timeout)
            pmf[0] = 1.0
            return pmf
        return pmf / total

    def _compute(self, state: int) -> RecencyStats:
        ctx = self.context
        cached = ctx.cached_rules(state)
        if not cached:
            return RecencyStats(timeout_hazards={}, eviction={})

        pmfs: Dict[int, np.ndarray] = {}
        hazards: Dict[int, float] = {}
        for rule in cached:
            timeout = ctx.timeouts[rule]
            if ctx.policy[rule].hard:
                # Hard timeouts ignore matches: the timer runs from the
                # install.  Conditioned on being cached, the age is
                # uniform on {1..t_j} under steady arrivals, which is
                # exactly the gamma -> 0 limit of the truncated
                # geometric.
                pmf = np.full(timeout, 1.0 / timeout)
            else:
                gamma = ctx.gamma_cached(rule, state)
                pmf = self._u_pmf(gamma, timeout)
            pmfs[rule] = pmf
            hazards[rule] = float(pmf[timeout - 1])  # P(u = t_j)

        eviction = self._eviction_distribution(cached, pmfs)
        return RecencyStats(timeout_hazards=hazards, eviction=eviction)

    def _eviction_distribution(
        self, cached: Sequence[int], pmfs: Dict[int, np.ndarray]
    ) -> Dict[int, float]:
        """P(rule j has the minimal remaining time), midpoint tie-break.

        Vectorised: per rule the remaining-time pmf (support
        ``0..t_j - 1``, zero-padded to the longest timeout), the
        exclusive survival ``P(r' > r)``, and leave-one-out products via
        prefix/suffix cumulative products along the rule axis.
        """
        ctx = self.context
        n_cached = len(cached)
        if n_cached == 1:
            return {cached[0]: 1.0}
        max_support = max(ctx.timeouts[rule] for rule in cached)
        # Remaining time r = t - u, support 0..t-1; pmf_r[r] = pmf_u[t-r].
        pmf = np.zeros((n_cached, max_support))
        for row, rule in enumerate(cached):
            reversed_pmf = pmfs[rule][::-1]
            pmf[row, : reversed_pmf.shape[0]] = reversed_pmf
        # survival[k, r] = P(r_k > r); term = P(>r) + P(=r)/2.
        survival = pmf[:, ::-1].cumsum(axis=1)[:, ::-1] - pmf
        term = survival + 0.5 * pmf
        # Leave-one-out product over rules at each r.
        prefix = np.ones((n_cached + 1, max_support))
        suffix = np.ones((n_cached + 1, max_support))
        for row in range(n_cached):
            prefix[row + 1] = prefix[row] * term[row]
        for row in range(n_cached - 1, -1, -1):
            suffix[row] = suffix[row + 1] * term[row]
        loo = prefix[:n_cached] * suffix[1:]
        raw = (pmf * loo).sum(axis=1)
        total = float(raw.sum())
        if total <= 0.0:
            uniform = 1.0 / n_cached
            return {rule: uniform for rule in cached}
        return {
            rule: float(raw[row]) / total for row, rule in enumerate(cached)
        }
