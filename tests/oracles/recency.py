"""Oracle: the exact and Monte-Carlo recency estimators.

The paper evaluates the ``u``-function sums of Eqns. 1-7 exactly, as a
sum over *injective* ``u`` (at most one flow arrives per step) that is
exponential in the cached-set size.  Production keeps only the
closed-form independence approximation
(:class:`repro.core.recency.IndependentRecencyEstimator`); these two are
what it is checked against:

:class:`ExactRecencyEstimator`
    Literal enumeration of injective ``u``.  Exact per the paper's
    definition, usable for small timeouts and small cached sets.

:class:`MonteCarloRecencyEstimator`
    Sequential importance sampling.  ``P(u)`` factorises over cached
    rules in descending priority order (``gamma`` at rule ``j`` depends
    only on higher-priority rules' ``u``), so sampling in that order with
    per-rule normalisation constants as importance weights is unbiased.

Both plug into :class:`tests.oracles.perstate.PerStateCompactModel`,
the only model that builds its chain from a recency estimator's
per-state statistics (tests/core/test_recency.py,
benchmarks/test_bench_ablation_estimators.py).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.context import ModelContext
from repro.core.recency import RecencyEstimator, RecencyStats


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
    cached = ctx.cached_rules(state)
    if at_capacity and cached:
        min_remaining = min(ctx.timeouts[j] - assigned[j] for j in cached)
    else:
        min_remaining = None
    log_factor = 0.0
    for rule in ctx.uncached_rules(state):
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
        cached = ctx.cached_rules(state)  # priority-descending
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
        cached = ctx.cached_rules(state)
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
