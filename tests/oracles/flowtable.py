"""Oracle: the linear-scan flow table.

The first implementation of :class:`repro.simulator.flowtable.FlowTable`
semantics: every operation walks all entries, with no index, winner
cache or expiry heap.  Production ships only the indexed table; this
one stays in the tests as the ground truth it is pinned against
(tests/simulator/test_flowtable_indexed.py and the whole-pipeline
differential suite tests/experiments/test_oracle_diff.py).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.flows.flowid import FlowId
from repro.flows.rules import ACTION_CONTROLLER, ACTION_FLOOD, Rule
from repro.obs import get_instrumentation
from repro.simulator.flowtable import TableEntry


class ReferenceFlowTable:
    """Linear-scan flow table with the semantics ``FlowTable`` pins."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[str, TableEntry] = {}
        #: Counters exposed for tests and diagnostics.
        self.stats = {
            "hits": 0,
            "misses": 0,
            "installs": 0,
            "evictions": 0,
            "expirations": 0,
        }
        # Observability mirror of ``stats`` (see docs/OBSERVABILITY.md).
        # Instruments are resolved once here; under the default null
        # backend they are shared no-op singletons.
        obs = get_instrumentation().metrics
        self._obs_hits = obs.counter("sim.table.hits")
        self._obs_misses = obs.counter("sim.table.misses")
        self._obs_installs = obs.counter("sim.table.installs")
        self._obs_evictions = obs.counter("sim.table.evictions")
        self._obs_expirations = obs.counter("sim.table.expirations")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rule_name: str) -> bool:
        return rule_name in self._entries

    @property
    def entries(self) -> Tuple[TableEntry, ...]:
        """All live entries (order unspecified)."""
        return tuple(self._entries.values())

    def rule_names(self) -> Tuple[str, ...]:
        """Names of cached rules (sorted, for stable comparisons)."""
        return tuple(sorted(self._entries.keys()))

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def sweep(self, now: float) -> List[TableEntry]:
        """Remove and return entries that have expired by ``now``."""
        expired = [
            entry for entry in self._entries.values() if entry.expired(now)
        ]
        for entry in expired:
            del self._entries[entry.rule.name]
            self.stats["expirations"] += 1
            self._obs_expirations.inc()
        return expired

    # ------------------------------------------------------------------
    # Lookup / install
    # ------------------------------------------------------------------
    def lookup(
        self, flow: FlowId, now: float, refresh: bool = True
    ) -> Optional[TableEntry]:
        """Match ``flow`` against the table.

        Returns the highest-priority covering entry, refreshing its idle
        timer (unless ``refresh=False``, used for non-mutating peeks).
        Records hit/miss statistics; a to-controller or flood winner is a
        miss.
        """
        self.sweep(now)
        best: Optional[TableEntry] = None
        for entry in self._entries.values():
            if not entry.rule.covers(flow):
                continue
            if best is None or entry.rule.priority > best.rule.priority:
                best = entry
        if best is None or best.rule.action in (ACTION_CONTROLLER, ACTION_FLOOD):
            self.stats["misses"] += 1
            self._obs_misses.inc()
            if best is None:
                return None
        else:
            self.stats["hits"] += 1
            self._obs_hits.inc()
        if refresh:
            best.last_match = now
        return best

    def peek(self, flow: FlowId, now: float) -> Optional[TableEntry]:
        """Non-mutating lookup: no timer refresh, no statistics."""
        best: Optional[TableEntry] = None
        for entry in self._entries.values():
            if entry.expired(now) or not entry.rule.covers(flow):
                continue
            if best is None or entry.rule.priority > best.rule.priority:
                best = entry
        return best

    def install(
        self, rule: Rule, out_port: int, now: float
    ) -> Optional[TableEntry]:
        """Install ``rule``; returns the evicted entry, if any.

        Re-installing a cached rule refreshes its timers in place (OVS
        ``flow-mod`` modify semantics).  When the table is full, the
        evictable entry with the smallest remaining lifetime is removed;
        if every entry is permanent, the install is dropped (OVS returns
        a table-full error) and ``None`` is returned with the rule *not*
        cached.
        """
        self.sweep(now)
        existing = self._entries.get(rule.name)
        if existing is not None:
            existing.install_time = now
            existing.last_match = now
            existing.out_port = out_port
            return None
        evicted: Optional[TableEntry] = None
        if len(self._entries) >= self.capacity:
            evicted = self._pick_victim(now)
            if evicted is None:
                return None  # table full of permanent rules
            del self._entries[evicted.rule.name]
            self.stats["evictions"] += 1
            self._obs_evictions.inc()
        self._entries[rule.name] = TableEntry(
            rule=rule, out_port=out_port, install_time=now, last_match=now
        )
        self.stats["installs"] += 1
        self._obs_installs.inc()
        return evicted

    def preinstall(self, rule: Rule, out_port: int) -> None:
        """Install a permanent entry at time zero; counted nowhere."""
        if not rule.is_permanent():
            raise ValueError(
                f"preinstalled rule {rule.name} must be permanent"
            )
        assert rule.name not in self._entries and len(self) < self.capacity
        self._entries[rule.name] = TableEntry(
            rule=rule, out_port=out_port, install_time=0.0, last_match=0.0
        )

    def _pick_victim(self, now: float) -> Optional[TableEntry]:
        """Shortest-remaining-time evictable entry (ties: oldest install)."""
        candidates = [e for e in self._entries.values() if e.evictable]
        if not candidates:
            return None
        return min(candidates, key=lambda e: (e.remaining(now), e.install_time))

    def remove(self, rule_name: str) -> bool:
        """Explicitly delete an entry (controller-driven removal)."""
        return self._entries.pop(rule_name, None) is not None

    def next_expiry(self, now: float) -> float:
        """Earliest future expiry time, or ``inf`` when none."""
        times = [
            now + entry.remaining(now)
            for entry in self._entries.values()
            if entry.evictable
        ]
        return min(times) if times else math.inf
