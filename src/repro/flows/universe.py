"""The finite flow universe and the attacker's rate knowledge.

The paper's threat model (Section III-C) grants the attacker estimates of
the Poisson parameter ``lambda_f`` for every flow ``f`` in the network (or
flow *class* -- see footnote 3 of the paper).  :class:`FlowUniverse`
bundles the finite list of flow identifiers with those rates and provides
the per-step arrival probabilities the Markov models consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.flows.flowid import FlowId


@dataclass(frozen=True)
class FlowUniverse:
    """A finite set of flows with Poisson arrival rates.

    ``rates[i]`` is ``lambda_f`` (arrivals per second) for ``flows[i]``.
    The models reference flows by index throughout.
    """

    flows: Tuple[FlowId, ...]
    rates: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.flows) != len(self.rates):
            raise ValueError("flows and rates must have equal length")
        if len(set(self.flows)) != len(self.flows):
            raise ValueError("duplicate flow identifiers in universe")
        for rate in self.rates:
            if not math.isfinite(rate) or rate < 0:
                raise ValueError(
                    f"Poisson rate must be finite and non-negative: {rate}"
                )

    def __deepcopy__(self, memo: Dict[int, object]) -> "FlowUniverse":
        return self  # immutable: network forks share it

    def __len__(self) -> int:
        return len(self.flows)

    def index_of(self, flow: FlowId) -> int:
        """Index of ``flow`` in the universe (raises ``ValueError`` if absent)."""
        return self.flows.index(flow)

    def step_rates(self, delta: float) -> List[float]:
        """Per-step expected arrivals ``lambda_f * Delta`` for each flow."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        return [rate * delta for rate in self.rates]

    def with_rates(self, rates: Sequence[float]) -> "FlowUniverse":
        """A copy of this universe with replaced rates (same flows)."""
        return FlowUniverse(self.flows, tuple(rates))
