"""Oracle: ground-truth cache tracing for the simulated network.

A :class:`NetworkMonitor` samples the reactive switch's cached rules on
the network's own event queue, producing a time-ordered trace.  No
program module reads the cache this way; the tests use it to:

* assert *why* a probe saw what it saw;
* extract the exact cached-rule set over time, which the
  model-validation tests compare the Markov chain's marginals against
  without re-deriving cache state from packet logs.

Sampling is pull-based over the flow table, so an unarmed monitor adds
no work to the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.simulator.network import Network


@dataclass(frozen=True)
class CacheSnapshot:
    """The reactive switch's evictable (reactive) rules at an instant."""

    time: float
    rules: Tuple[str, ...]


@dataclass
class RuleLifetimes:
    """Install/remove intervals per rule name, reconstructed from snapshots."""

    intervals: Dict[str, List[Tuple[float, Optional[float]]]] = field(
        default_factory=dict
    )

    def observe(self, previous: CacheSnapshot, current: CacheSnapshot) -> None:
        """Update intervals from two consecutive snapshots."""
        appeared = set(current.rules) - set(previous.rules)
        vanished = set(previous.rules) - set(current.rules)
        for name in sorted(appeared):
            self.intervals.setdefault(name, []).append((current.time, None))
        for name in sorted(vanished):
            spans = self.intervals.setdefault(
                name, [(previous.time, None)]
            )
            start, end = spans[-1]
            if end is None:
                spans[-1] = (start, current.time)

    def total_residency(self, rule_name: str, horizon: float) -> float:
        """Seconds the rule spent cached within ``[0, horizon]``."""
        total = 0.0
        for start, end in self.intervals.get(rule_name, []):
            total += min(end if end is not None else horizon, horizon) - start
        return max(total, 0.0)


class NetworkMonitor:
    """Samples the reactive switch's cache along the simulation.

    ``sample_interval`` controls the snapshot cadence; sampling is
    driven through the network's own event queue so snapshots interleave
    correctly with traffic.
    """

    def __init__(self, network: Network, sample_interval: float = 0.05) -> None:
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.network = network
        self.sample_interval = sample_interval
        self.snapshots: List[CacheSnapshot] = []
        self.lifetimes = RuleLifetimes()
        self._armed_until: float = 0.0

    def snapshot(self) -> CacheSnapshot:
        """Record the cache contents right now."""
        current = CacheSnapshot(
            time=self.network.sim.now,
            rules=self.network.cached_reactive_rules(),
        )
        if self.snapshots:
            self.lifetimes.observe(self.snapshots[-1], current)
        else:
            for name in current.rules:
                self.lifetimes.intervals.setdefault(name, []).append(
                    (current.time, None)
                )
        self.snapshots.append(current)
        return current

    def arm(self, until: float) -> None:
        """Schedule periodic snapshots up to simulated time ``until``."""
        if until <= self._armed_until:
            return
        start = max(self.network.sim.now, self._armed_until)
        time = start
        while time <= until:
            self.network.sim.schedule_at(time, self.snapshot)
            time += self.sample_interval
        self._armed_until = until

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rule_was_cached(
        self, rule_name: str, start: float, end: float
    ) -> bool:
        """Whether any snapshot in ``[start, end]`` contained the rule."""
        return any(
            start <= snap.time <= end and rule_name in snap.rules
            for snap in self.snapshots
        )

    def presence_fraction(self, rule_name: str) -> float:
        """Fraction of snapshots containing the rule."""
        if not self.snapshots:
            raise ValueError("no snapshots recorded")
        present = sum(
            1 for snap in self.snapshots if rule_name in snap.rules
        )
        return present / len(self.snapshots)

    def occupancy_series(self) -> List[Tuple[float, int]]:
        """(time, number of cached reactive rules) per snapshot."""
        return [(snap.time, len(snap.rules)) for snap in self.snapshots]

    def max_occupancy(self) -> int:
        """Peak number of reactive rules ever observed cached."""
        if not self.snapshots:
            return 0
        return max(len(snap.rules) for snap in self.snapshots)
