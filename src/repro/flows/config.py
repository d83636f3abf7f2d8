"""Random "network configurations" (Section VI-A).

The paper evaluates over randomly drawn *network configurations*: the
Poisson parameters, the flow-rule relation, the rule TTLs, and the target
flow.  Its concrete setup:

* 16 flows, one per source host ``10.0.1.0`` .. ``10.0.1.15``, all sending
  ICMP echo to the server ``10.0.1.16``;
* the 81 possible wildcard rules over those 16 contiguous addresses
  ("involving up to 4-bit masks"): every value/mask combination on the low
  4 address bits -- each bit is pinned-0, pinned-1, or wildcarded, giving
  exactly ``3^4 = 81`` rules;
* 12 rules drawn uniformly from the 81, with distinct priorities
  (more-specific rules higher, matching common controller practice);
* ``lambda_f ~ U[0, 1]`` per flow, rule TTL ``t_j`` uniform over
  ``{ceil(1/(10*Delta)), ceil(2/(10*Delta)), ..., ceil(1/Delta)}`` steps
  (i.e. roughly 0.1 s .. 1.0 s);
* a cache of size ``n = 6``;
* a target flow drawn uniformly among flows whose probability of absence
  over the detection window falls inside an experiment-defined range.

:class:`ConfigGenerator` reproduces this sampling procedure;
:class:`NetworkConfiguration` is the resulting bundle consumed by both
the analytic models and the simulator-driven trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.flows.flowid import PROTO_ICMP, FlowId, str_to_ip
from repro.flows.policy import ModelRule, Policy
from repro.flows.rules import ACTION_FORWARD, Match, Rule
from repro.flows.universe import FlowUniverse
from repro.obs import get_instrumentation

#: Default base address of the 16 source hosts (``10.0.1.0``).
DEFAULT_BASE_ADDRESS = str_to_ip("10.0.1.0")
#: Default server address (``10.0.1.16``).
DEFAULT_SERVER_ADDRESS = str_to_ip("10.0.1.16")


def enumerate_mask_rules(
    base_address: int = DEFAULT_BASE_ADDRESS,
    mask_bits: int = 4,
    server_address: int = DEFAULT_SERVER_ADDRESS,
) -> List[Rule]:
    """Enumerate all value/mask source rules over ``2**mask_bits`` hosts.

    Each of the low ``mask_bits`` address bits is independently pinned to
    0, pinned to 1, or wildcarded, giving ``3**mask_bits`` rules (81 for
    the paper's 4 bits).  The high address bits are always pinned to the
    base address.  Rules are returned without priorities (priority 0);
    callers assign distinct priorities.
    """
    if mask_bits < 0 or mask_bits > 16:
        raise ValueError(f"unreasonable mask_bits: {mask_bits}")
    high_mask = 0xFFFFFFFF ^ ((1 << mask_bits) - 1)
    rules: List[Rule] = []
    # Iterate over ternary digit strings: for each low bit, 0 = pinned-0,
    # 1 = pinned-1, 2 = wildcard.
    for code in range(3**mask_bits):
        value_bits = 0
        mask_low = 0
        remaining = code
        for bit in range(mask_bits):
            digit = remaining % 3
            remaining //= 3
            if digit == 0:
                mask_low |= 1 << bit
            elif digit == 1:
                mask_low |= 1 << bit
                value_bits |= 1 << bit
            # digit == 2: wildcard, bit left out of the mask
        src = Match(
            value=(base_address & high_mask) | value_bits,
            mask=high_mask | mask_low,
        )
        pinned = bin(mask_low).count("1")
        wildcards = mask_bits - pinned
        rules.append(
            Rule(
                name=f"r_m{wildcards}_{code:03d}",
                src=src,
                dst=Match.exact(server_address),
                proto=PROTO_ICMP,
                priority=0,
                action=ACTION_FORWARD,
            )
        )
    return rules


@dataclass(frozen=True)
class ConfigParams:
    """Sampling parameters for :class:`ConfigGenerator`.

    Defaults reproduce Section VI-A.  ``absence_range`` bounds the target
    flow's prior probability of absence over the detection window,
    ``P(X̂=0) = exp(-lambda * window)``; the paper selects targets
    "uniformly from all flows for which the probability of absence is
    within a specific range (defined by the experiment parameters)".
    """

    n_flows: int = 16
    n_rules: int = 12
    cache_size: int = 6
    #: Step duration in seconds.  Must be small enough that multiple
    #: arrivals per step are negligible (the paper's assumption): with
    #: 16 flows at lambda ~ U[0,1], Lambda * Delta = 0.08 at the default.
    delta: float = 0.01
    window_seconds: float = 15.0
    lambda_low: float = 0.0
    lambda_high: float = 1.0
    timeout_choices: int = 10
    absence_range: Tuple[float, float] = (0.0, 1.0)
    mask_bits: int = 4
    base_address: int = DEFAULT_BASE_ADDRESS
    server_address: int = DEFAULT_SERVER_ADDRESS
    require_target_covered: bool = True

    def __post_init__(self) -> None:
        if self.n_flows != 1 << self.mask_bits:
            raise ValueError(
                "n_flows must equal 2**mask_bits "
                f"({self.n_flows} != 2**{self.mask_bits})"
            )
        if self.delta <= 0 or self.window_seconds <= 0:
            raise ValueError("delta and window_seconds must be positive")
        if not 0 <= self.absence_range[0] <= self.absence_range[1] <= 1:
            raise ValueError(f"bad absence_range: {self.absence_range}")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        # Imported here: repro.core imports this package.
        from repro.core.transition_build import MAX_LOOKUP_RULES

        if self.n_rules > MAX_LOOKUP_RULES:
            raise ValueError(
                f"n_rules must be at most {MAX_LOOKUP_RULES}, the compact "
                f"model's limit (got {self.n_rules})"
            )

    @property
    def window_steps(self) -> int:
        """Detection window ``T = ceil(window_seconds / delta)`` in steps."""
        return int(math.ceil(self.window_seconds / self.delta))

    def timeout_steps_menu(self) -> List[int]:
        """The paper's TTL menu ``{ceil(k/(10*Delta))}`` for k = 1..10."""
        return [
            int(math.ceil(k / (self.timeout_choices * self.delta)))
            for k in range(1, self.timeout_choices + 1)
        ]


@dataclass(frozen=True)
class NetworkConfiguration:
    """One sampled network configuration.

    Bundles everything a trial needs: the flow universe with rates, the
    concrete prioritised rules (for the simulator), the abstract policy
    (for the models), the cache size, step duration, detection window and
    the target flow.
    """

    universe: FlowUniverse
    concrete_rules: Tuple[Rule, ...]
    policy: Policy
    cache_size: int
    delta: float
    window_steps: int
    target_flow: int
    params: ConfigParams = field(default=None)  # type: ignore[assignment]

    @property
    def window_seconds(self) -> float:
        """Detection window length in seconds."""
        return self.window_steps * self.delta

    def absence_probability(self) -> float:
        """Prior ``P(X̂=0) = exp(-lambda_f * T * Delta)`` for the target.

        This is the paper's closed-form prior (Section V-A).
        """
        rate = self.universe.rates[self.target_flow]
        return math.exp(-rate * self.window_steps * self.delta)

    def rules_covering_target(self) -> Tuple[int, ...]:
        """Policy rule indices covering the target flow (Figure 7a x-axis)."""
        return self.policy.covering(self.target_flow)

    def describe(self) -> str:
        """Multi-line summary for logs and reports."""
        lines = [
            f"flows={len(self.universe)} rules={len(self.policy)} "
            f"cache={self.cache_size} delta={self.delta:g}s "
            f"T={self.window_steps} steps",
            f"target flow #{self.target_flow} "
            f"({self.universe.flows[self.target_flow].describe()}) "
            f"lambda={self.universe.rates[self.target_flow]:.3f}/s "
            f"P(absent)={self.absence_probability():.3f}",
            self.policy.describe(self.universe),
        ]
        return "\n".join(lines)


class ConfigGenerator:
    """Samples :class:`NetworkConfiguration` objects per Section VI-A."""

    def __init__(self, params: ConfigParams = ConfigParams(), seed: Optional[int] = None) -> None:
        self.params = params
        self._rng = np.random.default_rng(seed)
        self._all_rules = enumerate_mask_rules(
            base_address=params.base_address,
            mask_bits=params.mask_bits,
            server_address=params.server_address,
        )

    @property
    def rng(self) -> np.random.Generator:
        """The generator's random source (shared with callers for trials)."""
        return self._rng

    def _sample_universe(self) -> FlowUniverse:
        params = self.params
        flows = tuple(
            FlowId(
                src=params.base_address + i,
                dst=params.server_address,
                proto=PROTO_ICMP,
            )
            for i in range(params.n_flows)
        )
        rates = tuple(
            float(self._rng.uniform(params.lambda_low, params.lambda_high))
            for _ in range(params.n_flows)
        )
        return FlowUniverse(flows, rates)

    def _sample_rules(self, universe: FlowUniverse) -> Tuple[Tuple[Rule, ...], Policy]:
        """Draw ``n_rules`` of the 81, prioritise, attach TTLs, abstract."""
        from dataclasses import replace

        params = self.params
        menu = params.timeout_steps_menu()
        chosen_positions = self._rng.choice(
            len(self._all_rules), size=params.n_rules, replace=False
        )
        chosen = [self._all_rules[int(pos)] for pos in chosen_positions]
        # Specificity-ranked distinct priorities (most specific highest).
        chosen.sort(
            key=lambda r: (r.src.specificity(), r.name), reverse=True
        )
        concrete: List[Rule] = []
        model_rules: List[ModelRule] = []
        for rank, rule in enumerate(chosen):
            timeout_steps = int(menu[int(self._rng.integers(len(menu)))])
            timeout_seconds = timeout_steps * params.delta
            priority = 1000 - rank  # rank 0 = most specific = highest
            concrete_rule = replace(
                rule,
                priority=priority,
                idle_timeout=timeout_seconds,
            )
            flow_set = frozenset(
                i
                for i, flow in enumerate(universe.flows)
                if concrete_rule.covers(flow)
            )
            if not flow_set:
                # Cannot happen for mask rules over the full host range,
                # but guard anyway: resample by widening to wildcard-free.
                raise RuntimeError(f"rule {rule.name} covers no flows")
            concrete.append(concrete_rule)
            model_rules.append(
                ModelRule(
                    index=rank,
                    name=concrete_rule.name,
                    flows=flow_set,
                    timeout_steps=timeout_steps,
                    priority=priority,
                )
            )
        return tuple(concrete), Policy(model_rules)

    def _pick_target(
        self, universe: FlowUniverse, policy: Policy
    ) -> Optional[int]:
        params = self.params
        low, high = params.absence_range
        window = params.window_steps * params.delta
        candidates = []
        for index, rate in enumerate(universe.rates):
            absence = math.exp(-rate * window)
            if not low <= absence <= high:
                continue
            if params.require_target_covered and not policy.covering(index):
                continue
            candidates.append(index)
        if not candidates:
            return None
        return int(candidates[int(self._rng.integers(len(candidates)))])

    def sample(self, max_attempts: int = 200) -> NetworkConfiguration:
        """Draw one configuration; retries until a valid target exists.

        Runs under a ``config.sample`` span.
        """
        with get_instrumentation().span("config.sample"):
            for _ in range(max_attempts):
                universe = self._sample_universe()
                concrete, policy = self._sample_rules(universe)
                target = self._pick_target(universe, policy)
                if target is None:
                    continue
                return NetworkConfiguration(
                    universe=universe,
                    concrete_rules=concrete,
                    policy=policy,
                    cache_size=self.params.cache_size,
                    delta=self.params.delta,
                    window_steps=self.params.window_steps,
                    target_flow=target,
                    params=self.params,
                )
        raise RuntimeError(
            "could not sample a configuration with a valid target flow in "
            f"{max_attempts} attempts (absence_range={self.params.absence_range})"
        )

