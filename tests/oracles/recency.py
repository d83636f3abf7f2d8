"""Oracle: per-state recency estimators (Eqns. 1-7).

The compact model needs, for each cached-rule set, the timeout hazards
and eviction split that the paper derives from the recency distribution
``u`` (Eqns. 1-7; see :mod:`repro.core.transition_build`).  Production
evaluates the closed-form independence approximation for every state at
once (:func:`repro.core.transition_build.recency_tables`).  These
estimators compute the statistics of one state at a time:

:class:`IndependentRecencyEstimator`
    The same independence approximation, state by state; production's
    tables equal it bit for bit (tests/core/test_sparse_dense_diff.py).

:class:`ExactRecencyEstimator`
    Literal enumeration of injective ``u``, the paper's sum, which is
    exponential in the cached-set size.  Usable for small timeouts and
    small cached sets.

:class:`MonteCarloRecencyEstimator`
    Sequential importance sampling.  ``P(u)`` factorises over cached
    rules in descending priority order (``gamma`` at rule ``j`` depends
    only on higher-priority rules' ``u``), so sampling in that order with
    per-rule normalisation constants as importance weights is unbiased.

Each plugs into :class:`tests.oracles.perstate.PerStateCompactModel`,
the only model that builds its chain and probe perturbations from an
estimator's per-state statistics (tests/core/test_recency.py,
benchmarks/test_bench_ablation_estimators.py).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.compact_model import CompactModel
from repro.core.context import ModelContext


def cached_rules(ctx: ModelContext, state: int) -> List[int]:
    """Cached rule indices, highest priority first."""
    return [j for j in range(ctx.n_rules) if state & (1 << j)]


def uncached_rules(ctx: ModelContext, state: int) -> List[int]:
    """Uncached rule indices, highest priority first."""
    return [j for j in range(ctx.n_rules) if not state & (1 << j)]


def gamma_cached(ctx: ModelContext, rule: int, state: int) -> float:
    """Effective per-step rate ``gamma`` for a *cached* rule.

    Relevant flows are those covered by ``rule`` but by no cached rule
    of higher priority (the paper's ``flowIds_l(j)`` for cached rules).
    """
    mask = ctx.flow_masks[rule]
    for higher in range(rule):
        if state & (1 << higher):
            mask &= ~ctx.flow_masks[higher]
    return ctx.rate_table.sum(mask)


def gamma_uncached(ctx: ModelContext, rule: int, state: int) -> float:
    """Effective rate for an *uncached* rule.

    Relevant flows are those covered by ``rule`` but not by any cached
    rule (they would hit the cache) nor by a higher-priority uncached
    rule (the controller would install that rule instead).
    """
    mask = ctx.flow_masks[rule]
    for other in range(ctx.n_rules):
        if other == rule:
            continue
        if state & (1 << other) or other < rule:
            mask &= ~ctx.flow_masks[other]
    return ctx.rate_table.sum(mask)


def total_step_rate(ctx: ModelContext) -> float:
    """Aggregate per-step rate ``Lambda * Delta``."""
    return ctx.rate_table.total


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

    def stats(self, state: int) -> RecencyStats:
        """Memoised per-state statistics."""
        found = self._cache.get(state)
        if found is None:
            found = self._compute(state)
            self._cache[state] = found
        return found

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
        cached = cached_rules(ctx, state)
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
                gamma = gamma_cached(ctx, rule, state)
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


def _gamma_at_step(
    ctx: ModelContext,
    rule: int,
    step: int,
    state: int,
    assigned: Dict[int, int],
) -> float:
    """Eqn. 1: effective rate for ``rule`` at ``step`` steps in the past.

    Excludes flows covered by higher-priority *cached* rules whose most
    recent match is older than ``step`` (``u(j') > step``) -- had such a
    flow arrived at that step it would have matched the higher-priority
    rule instead, contradicting ``u(j')``.
    """
    mask = ctx.flow_masks[rule]
    for higher in range(rule):
        if not state & (1 << higher):
            continue
        u_higher = assigned.get(higher)
        if u_higher is not None and u_higher > step:
            mask &= ~ctx.flow_masks[higher]
    return ctx.rate_table.sum(mask)


def _cached_rule_log_term(
    ctx: ModelContext,
    rule: int,
    u_value: int,
    state: int,
    assigned: Dict[int, int],
) -> float:
    """log of one cached rule's factor in ``P(u)``.

    ``gamma(j, u(j)) e^{-gamma(j, u(j))} * prod_{k<u(j)} e^{-gamma(j, k)}``
    Returns ``-inf`` when the factor is zero.
    """
    gamma_at_u = _gamma_at_step(ctx, rule, u_value, state, assigned)
    if gamma_at_u <= 0.0:
        return float("-inf")
    log_term = math.log(gamma_at_u) - gamma_at_u
    for k in range(1, u_value):
        log_term -= _gamma_at_step(ctx, rule, k, state, assigned)
    return log_term


def _uncached_log_factor(
    ctx: ModelContext, state: int, assigned: Dict[int, int], at_capacity: bool
) -> float:
    """log of the no-arrival factor over uncached rules.

    When the cache is full, an uncached rule only needs to have seen no
    relevant arrival for ``u_max(j) = t_j - min_{j'}(t_{j'} - u(j'))``
    steps (an older arrival's rule would have been evicted since).
    """
    cached = cached_rules(ctx, state)
    if at_capacity and cached:
        min_remaining = min(ctx.timeouts[j] - assigned[j] for j in cached)
    else:
        min_remaining = None
    log_factor = 0.0
    for rule in uncached_rules(ctx, state):
        horizon = ctx.timeouts[rule]
        if min_remaining is not None:
            horizon = ctx.timeouts[rule] - min_remaining
        for k in range(1, horizon + 1):
            log_factor -= _gamma_at_step(ctx, rule, k, state, assigned)
    return log_factor


class ExactRecencyEstimator(RecencyEstimator):
    """Literal enumeration of injective ``u`` (reference implementation).

    Complexity is ``O(prod_j t_j)`` per state; construction raises when a
    state's enumeration would exceed ``max_assignments``.
    """

    def __init__(self, context: ModelContext, max_assignments: int = 2_000_000) -> None:
        super().__init__(context)
        self.max_assignments = max_assignments

    def _compute(self, state: int) -> RecencyStats:
        ctx = self.context
        cached = cached_rules(ctx, state)  # priority-descending
        if not cached:
            return RecencyStats(timeout_hazards={}, eviction={})
        total_assignments = 1
        for rule in cached:
            total_assignments *= ctx.timeouts[rule]
        if total_assignments > self.max_assignments:
            raise ValueError(
                f"exact enumeration too large ({total_assignments} assignments); "
                "use MonteCarloRecencyEstimator or IndependentRecencyEstimator"
            )
        at_capacity = len(cached) >= ctx.cache_size

        denom = 0.0
        timeout_num = {rule: 0.0 for rule in cached}
        evict_num = {rule: 0.0 for rule in cached}

        assigned: Dict[int, int] = {}

        def recurse(position: int, log_prob: float) -> None:
            nonlocal denom
            if position == len(cached):
                log_total = log_prob + _uncached_log_factor(
                    ctx, state, assigned, at_capacity
                )
                prob = math.exp(log_total)
                denom_local = prob
                denom += denom_local
                remaining = {
                    rule: ctx.timeouts[rule] - assigned[rule] for rule in cached
                }
                min_rem = min(remaining.values())
                for rule in cached:
                    if assigned[rule] == ctx.timeouts[rule]:
                        timeout_num[rule] += prob
                    if remaining[rule] == min_rem:
                        evict_num[rule] += prob
                return
            rule = cached[position]
            used = set(assigned.values())
            for u_value in range(1, ctx.timeouts[rule] + 1):
                if u_value in used:
                    continue  # injectivity: one arrival per step
                log_term = _cached_rule_log_term(
                    ctx, rule, u_value, state, assigned
                )
                if log_term == float("-inf"):
                    continue
                assigned[rule] = u_value
                recurse(position + 1, log_prob + log_term)
                del assigned[rule]

        recurse(0, 0.0)

        if denom <= 0.0:
            # No feasible recency sequence (e.g. all relevant rates zero
            # and injectivity unsatisfiable); fall back to uniform.
            uniform = 1.0 / len(cached)
            return RecencyStats(
                timeout_hazards={rule: 1.0 / ctx.timeouts[rule] for rule in cached},
                eviction={rule: uniform for rule in cached},
            )

        hazards = {rule: timeout_num[rule] / denom for rule in cached}
        evict_total = sum(evict_num.values())
        if evict_total <= 0.0:
            uniform = 1.0 / len(cached)
            eviction = {rule: uniform for rule in cached}
        else:
            eviction = {
                rule: evict_num[rule] / evict_total for rule in cached
            }
        return RecencyStats(timeout_hazards=hazards, eviction=eviction)


class MonteCarloRecencyEstimator(RecencyEstimator):
    """Sequential importance sampling over injective ``u``.

    Samples ``u(j)`` rule by rule in descending priority order from the
    normalised per-rule factor (which depends only on already-sampled
    higher-priority values), then weights each complete sample by the
    product of the per-rule normalisation constants times the uncached
    no-arrival factor.  Unbiased for the paper's sums; variance shrinks
    as ``n_samples`` grows.
    """

    def __init__(
        self,
        context: ModelContext,
        n_samples: int = 400,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(context)
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.n_samples = n_samples
        self._rng = np.random.default_rng(seed)

    def _compute(self, state: int) -> RecencyStats:
        ctx = self.context
        cached = cached_rules(ctx, state)
        if not cached:
            return RecencyStats(timeout_hazards={}, eviction={})
        at_capacity = len(cached) >= ctx.cache_size

        denom = 0.0
        timeout_num = {rule: 0.0 for rule in cached}
        evict_num = {rule: 0.0 for rule in cached}

        for _ in range(self.n_samples):
            assigned: Dict[int, int] = {}
            log_weight = 0.0
            feasible = True
            for rule in cached:
                used = set(assigned.values())
                values: List[int] = []
                probs: List[float] = []
                for u_value in range(1, ctx.timeouts[rule] + 1):
                    if u_value in used:
                        continue
                    log_term = _cached_rule_log_term(
                        ctx, rule, u_value, state, assigned
                    )
                    if log_term == float("-inf"):
                        continue
                    values.append(u_value)
                    probs.append(math.exp(log_term))
                normaliser = sum(probs)
                if normaliser <= 0.0 or not values:
                    feasible = False
                    break
                choice = self._rng.choice(
                    len(values), p=np.asarray(probs) / normaliser
                )
                assigned[rule] = values[int(choice)]
                log_weight += math.log(normaliser)
            if not feasible:
                continue
            log_weight += _uncached_log_factor(ctx, state, assigned, at_capacity)
            weight = math.exp(log_weight)
            denom += weight
            remaining = {
                rule: ctx.timeouts[rule] - assigned[rule] for rule in cached
            }
            min_rem = min(remaining.values())
            for rule in cached:
                if assigned[rule] == ctx.timeouts[rule]:
                    timeout_num[rule] += weight
                if remaining[rule] == min_rem:
                    evict_num[rule] += weight

        if denom <= 0.0:
            uniform = 1.0 / len(cached)
            return RecencyStats(
                timeout_hazards={rule: 1.0 / ctx.timeouts[rule] for rule in cached},
                eviction={rule: uniform for rule in cached},
            )
        hazards = {rule: timeout_num[rule] / denom for rule in cached}
        evict_total = sum(evict_num.values())
        eviction = (
            {rule: evict_num[rule] / evict_total for rule in cached}
            if evict_total > 0.0
            else {rule: 1.0 / len(cached) for rule in cached}
        )
        return RecencyStats(timeout_hazards=hazards, eviction=eviction)


def production_stats(model: CompactModel, state: int) -> RecencyStats:
    """Production's recency-table rows for ``state``, as estimator stats.

    The hazards of every cached rule, and the eviction split when the
    state is at capacity (empty below it, where production keeps none).
    """
    tables = model.recency_tables()
    row = model.state_index[state]
    cached = cached_rules(model.context, state)
    hazards = {rule: float(tables.hazard[row, rule]) for rule in cached}
    position = int(tables.full_position[row])
    eviction: Dict[int, float] = {}
    if position >= 0:
        eviction = dict(zip(
            tables.evict_rules[position].tolist(),
            tables.evict_probs[position].tolist(),
        ))
    return RecencyStats(timeout_hazards=hazards, eviction=eviction)
