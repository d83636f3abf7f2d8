"""Shared precomputed context for the analytic models.

:class:`ModelContext` binds a :class:`~repro.flows.policy.Policy` to a
:class:`~repro.flows.universe.FlowUniverse` and step duration ``Delta``,
precomputing what the Markov models query: per-rule flow bitmasks,
per-flow covering rule lists, the subset rate table for ``gamma`` sums,
and switch-semantics lookups.  The scalar per-state helpers
(:meth:`ModelContext.match_in_cache`, :meth:`ModelContext.gamma_cached`,
...) serve the per-state test oracles (tests/oracles/); production
evaluates the same quantities for every state at once
(:mod:`repro.core.transition_build`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.masks import RateTable, mask_from_indices
from repro.flows.policy import Policy
from repro.flows.universe import FlowUniverse


class ModelContext:
    """Precomputed views of a policy + universe + step duration.

    Rule indices are policy ranks (0 = highest priority); flow indices are
    universe positions.  ``state`` arguments are bitmasks over rule
    indices describing the cached set.
    """

    def __init__(
        self,
        policy: Policy,
        universe: FlowUniverse,
        delta: float,
        cache_size: int,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.policy = policy
        self.universe = universe
        self.delta = float(delta)
        self.cache_size = int(cache_size)
        self.n_rules = len(policy)
        self.n_flows = len(universe)

        #: Per-step expected arrivals ``lambda_f * Delta`` per flow.
        self.step_rates: Tuple[float, ...] = tuple(universe.step_rates(delta))
        #: Subset-sum table over step rates (``gamma`` computations).
        self.rate_table = RateTable(self.step_rates)
        #: Per-rule covered-flow bitmask.
        self.flow_masks: Tuple[int, ...] = tuple(
            mask_from_indices(rule.flows) for rule in policy
        )
        #: Per-rule timeout in steps (``t_j``).
        self.timeouts: Tuple[int, ...] = tuple(
            rule.timeout_steps for rule in policy
        )
        #: Per-flow covering rules, highest priority (lowest index) first.
        self.covering: Tuple[Tuple[int, ...], ...] = tuple(
            policy.covering(f) for f in range(self.n_flows)
        )
        #: Per-flow rule installed on a miss (or ``None`` if uncovered).
        self.install_rule: Tuple[Optional[int], ...] = tuple(
            covering[0] if covering else None for covering in self.covering
        )

    # ------------------------------------------------------------------
    # Switch semantics over bitmask states
    # ------------------------------------------------------------------
    def match_in_cache(self, flow: int, state: int) -> Optional[int]:
        """Highest-priority cached rule covering ``flow`` (switch lookup)."""
        for rule in self.covering[flow]:
            if state & (1 << rule):
                return rule
        return None

    def state_covers(self, flow: int, state: int) -> bool:
        """Whether any cached rule covers ``flow`` (the probe hit bit)."""
        return self.match_in_cache(flow, state) is not None

    # ------------------------------------------------------------------
    # Effective rates (Section IV-A1)
    # ------------------------------------------------------------------
    def gamma_cached(self, rule: int, state: int) -> float:
        """Effective per-step rate ``gamma`` for a *cached* rule.

        Relevant flows are those covered by ``rule`` but by no cached rule
        of higher priority (the paper's ``flowIds_l(j)`` for cached
        rules).
        """
        mask = self.flow_masks[rule]
        for higher in range(rule):
            if state & (1 << higher):
                mask &= ~self.flow_masks[higher]
        return self.rate_table.sum(mask)

    def gamma_uncached(self, rule: int, state: int) -> float:
        """Effective rate for an *uncached* rule.

        Relevant flows are those covered by ``rule`` but not by any cached
        rule (they would hit the cache) nor by a higher-priority uncached
        rule (the controller would install that rule instead).
        """
        mask = self.flow_masks[rule]
        for other in range(self.n_rules):
            if other == rule:
                continue
            cached = bool(state & (1 << other))
            if cached or other < rule:
                mask &= ~self.flow_masks[other]
        return self.rate_table.sum(mask)

    def cached_rules(self, state: int) -> List[int]:
        """Cached rule indices, highest priority first."""
        return [j for j in range(self.n_rules) if state & (1 << j)]

    def uncached_rules(self, state: int) -> List[int]:
        """Uncached rule indices, highest priority first."""
        return [j for j in range(self.n_rules) if not state & (1 << j)]

    def total_step_rate(self) -> float:
        """Aggregate per-step rate ``Lambda * Delta``."""
        return self.rate_table.total
