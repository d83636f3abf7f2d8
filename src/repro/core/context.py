"""Shared precomputed context for the analytic models.

:class:`ModelContext` binds a :class:`~repro.flows.policy.Policy` to a
:class:`~repro.flows.universe.FlowUniverse` and step duration ``Delta``,
precomputing what the Markov models query: per-rule flow bitmasks,
per-flow covering rule lists and the subset rate table for ``gamma``
sums.  Production evaluates the per-state quantities (switch lookups,
effective rates) for every state at once
(:mod:`repro.core.transition_build`); their scalar per-state forms live
with the test oracles (tests/oracles/).
"""

from __future__ import annotations

from typing import Optional, Tuple

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
