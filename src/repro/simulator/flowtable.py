"""An Open vSwitch-like flow table.

Implements the cache semantics the paper's models abstract (and which
the cited OVS documentation prescribes):

* **priority matching** -- a lookup returns the highest-priority entry
  covering the packet's flow;
* **idle timeouts** -- an entry expires when unmatched for its idle
  timeout; a successful lookup refreshes it;
* **hard timeouts** -- an entry expires a fixed time after install
  regardless of matches;
* **capacity + eviction** -- when an install would exceed capacity, the
  evictable (timeout-bearing) entry with the smallest remaining lifetime
  is removed, the paper's "shortest-time-remaining" policy.  Entries
  with no timeout (the pre-installed helper rules) are never evicted,
  matching the paper's note that OVS "will not evict the rules without
  timeouts".

Expiry is processed lazily at each operation; :meth:`FlowTable.sweep`
forces it, which trial runners call when they need exact ground truth at
a point in time.

Entries are indexed: priority buckets with a per-flow winner cache for
lookups, and a lazy-deletion expiry heap so ``sweep`` / ``next_expiry``
/ ``_pick_victim`` touch only the entries whose timers actually fire
instead of scanning the table.  The pinned tie-breaks:

* lookup winner: highest priority, then earliest-installed;
* eviction victim: smallest remaining lifetime, then earliest
  ``install_time``, then earliest-installed;
* ``sweep`` returns expired entries in install order.

The linear-scan table these semantics were first written as lives on
as a test oracle (``tests/oracles/flowtable.py``); the differential
suites pin this table to it operation for operation.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.flows.flowid import FlowId
from repro.flows.rules import ACTION_CONTROLLER, ACTION_FLOOD, Rule
from repro.obs import get_instrumentation

#: Actions of the entries that catch a table miss (network mode's
#: permanent to-controller and flood entries): a lookup one of them wins
#: counts as a miss, as the side channel sees it.
MISS_ACTIONS = frozenset((ACTION_CONTROLLER, ACTION_FLOOD))


@dataclass
class TableEntry:
    """One cached rule plus its runtime timer state."""

    rule: Rule
    out_port: int
    install_time: float
    last_match: float

    def __deepcopy__(self, memo: Dict[int, object]) -> "TableEntry":
        # The rule is immutable and shared; only the timers are state.
        return TableEntry(
            self.rule, self.out_port, self.install_time, self.last_match
        )

    def remaining(self, now: float) -> float:
        """Seconds until expiry; ``inf`` for permanent entries."""
        remaining = math.inf
        if self.rule.idle_timeout > 0:
            remaining = min(
                remaining, self.last_match + self.rule.idle_timeout - now
            )
        if self.rule.hard_timeout > 0:
            remaining = min(
                remaining, self.install_time + self.rule.hard_timeout - now
            )
        return remaining

    def expired(self, now: float) -> bool:
        """Whether the entry should have been removed by ``now``."""
        return self.remaining(now) <= 0.0

    @property
    def evictable(self) -> bool:
        """Permanent (timeout-free) entries are never evicted."""
        return not self.rule.is_permanent()


def _entry_expiry(entry: TableEntry) -> float:
    """Absolute expiry time under the entry's current timers.

    ``entry.remaining(now)`` equals ``expiry - now`` after rounding (the
    per-term subtractions commute with ``min`` because rounding is
    monotone), so ordering entries by this absolute time reproduces the
    remaining-lifetime ordering at every ``now``.
    """
    expiry = math.inf
    rule = entry.rule
    if rule.idle_timeout > 0:
        expiry = min(expiry, entry.last_match + rule.idle_timeout)
    if rule.hard_timeout > 0:
        expiry = min(expiry, entry.install_time + rule.hard_timeout)
    return expiry


class FlowTable:
    """Capacity-limited flow table with OVS eviction semantics.

    Three structures ride alongside the entry dict:

    * ``_buckets`` -- entries grouped by priority, priorities kept in a
      descending sorted list: a lookup scans buckets top-down and stops
      at the first cover, instead of scanning the whole table;
    * ``_winners`` -- a per-flow winner cache (the exact-match index:
      keyed by the flow 5-tuple), invalidated whenever the entry set
      changes; repeated lookups of the same flow are O(1);
    * ``_heap`` -- a lazy-deletion min-heap of
      ``(expiry, install_time, seq, name)`` tuples; timer refreshes push
      a fresh tuple and leave the stale one to be discarded on pop, so
      ``sweep`` / ``next_expiry`` / ``_pick_victim`` cost O(log n) per
      fired timer rather than a table scan.

    The heap tuple encodes the eviction tie-breaks: remaining lifetime
    (== expiry at fixed ``now``), then ``install_time``, then install
    sequence (the entry dict's order).  ``sweep`` re-sorts the expired
    batch by sequence to return entries in install order.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[str, TableEntry] = {}
        # Instruments are resolved once here (see docs/OBSERVABILITY.md);
        # under the default null backend they are shared no-op singletons.
        obs = get_instrumentation().metrics
        self._obs_hits = obs.counter("sim.table.hits")
        self._obs_misses = obs.counter("sim.table.misses")
        self._obs_installs = obs.counter("sim.table.installs")
        self._obs_evictions = obs.counter("sim.table.evictions")
        self._obs_expirations = obs.counter("sim.table.expirations")
        self._buckets: Dict[int, Dict[str, TableEntry]] = {}
        #: Priorities with a live bucket, sorted descending.
        self._priorities: List[int] = []
        self._winners: Dict[
            Tuple[int, int, int, int, int], Optional[TableEntry]
        ] = {}
        #: (expiry, install_time, seq, name) with stale tuples left in.
        self._heap: List[Tuple[float, float, int, str]] = []
        self._seq = 0
        #: seq/expiry per live entry, to recognise stale heap tuples.
        self._index: Dict[str, Tuple[int, float]] = {}
        self._entries_cache: Optional[Tuple[TableEntry, ...]] = None
        self._names_cache: Optional[Tuple[str, ...]] = None

    def __deepcopy__(self, memo: Dict[int, object]) -> "FlowTable":
        """Copy the entries; rebuild the indexes over the copies.

        Keys, heap tuples and index values are immutable, so only the
        entries themselves need copying -- the generic deepcopy would
        walk every tuple of every index.
        """
        clone = copy.copy(self)
        entries = {
            name: copy.deepcopy(entry, memo)
            for name, entry in self._entries.items()
        }
        clone._entries = entries
        clone._buckets = {
            priority: {name: entries[name] for name in bucket}
            for priority, bucket in self._buckets.items()
        }
        clone._priorities = list(self._priorities)
        clone._winners = {
            key: None if entry is None else entries[entry.rule.name]
            for key, entry in self._winners.items()
        }
        clone._heap = list(self._heap)
        clone._index = dict(self._index)
        clone._entries_cache = None
        return clone

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _index_add(self, entry: TableEntry) -> None:
        name = entry.rule.name
        priority = entry.rule.priority
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = {}
            self._insert_priority(priority)
        bucket[name] = entry
        seq = self._seq
        self._seq += 1
        expiry = _entry_expiry(entry)
        self._index[name] = (seq, expiry)
        if entry.evictable:
            heapq.heappush(
                self._heap, (expiry, entry.install_time, seq, name)
            )
        self._winners.clear()
        self._entries_cache = None
        self._names_cache = None

    def _index_discard(self, entry: TableEntry) -> None:
        name = entry.rule.name
        priority = entry.rule.priority
        bucket = self._buckets[priority]
        del bucket[name]
        if not bucket:
            del self._buckets[priority]
            self._priorities.remove(priority)
        del self._index[name]
        self._winners.clear()
        self._entries_cache = None
        self._names_cache = None

    def _insert_priority(self, priority: int) -> None:
        # bisect on a descending list (bisect's key/reverse support is
        # too new for the 3.9 floor): find the first smaller priority.
        priorities = self._priorities
        lo, hi = 0, len(priorities)
        while lo < hi:
            mid = (lo + hi) // 2
            if priorities[mid] > priority:
                lo = mid + 1
            else:
                hi = mid
        priorities.insert(lo, priority)

    def _reschedule(self, entry: TableEntry) -> None:
        """Re-key the entry's heap tuple after a timer refresh."""
        name = entry.rule.name
        seq, _ = self._index[name]
        expiry = _entry_expiry(entry)
        self._index[name] = (seq, expiry)
        if entry.evictable:
            heapq.heappush(
                self._heap, (expiry, entry.install_time, seq, name)
            )
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        # Bound the stale-tuple backlog: rebuild once the heap is mostly
        # garbage (idle refreshes push one tuple per cache hit).
        if len(self._heap) > 64 and len(self._heap) > 8 * len(self._entries):
            live = []
            for name, (seq, expiry) in self._index.items():
                entry = self._entries[name]
                if entry.evictable:
                    live.append((expiry, entry.install_time, seq, name))
            heapq.heapify(live)
            self._heap = live

    def _heap_top(self) -> Optional[Tuple[float, float, int, str]]:
        """The smallest live heap tuple, discarding stale ones."""
        heap = self._heap
        while heap:
            expiry, _, seq, name = heap[0]
            current = self._index.get(name)
            if current is not None and current == (seq, expiry):
                return heap[0]
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rule_name: str) -> bool:
        return rule_name in self._entries

    @property
    def entries(self) -> Tuple[TableEntry, ...]:
        """All live entries (order unspecified)."""
        if self._entries_cache is None:
            self._entries_cache = tuple(self._entries.values())
        return self._entries_cache

    def rule_names(self) -> Tuple[str, ...]:
        """Names of cached rules (sorted, for stable comparisons)."""
        if self._names_cache is None:
            self._names_cache = tuple(sorted(self._entries.keys()))
        return self._names_cache

    def sweep(self, now: float) -> List[TableEntry]:
        """Remove and return entries that have expired by ``now``."""
        expired: List[Tuple[int, TableEntry]] = []
        while True:
            top = self._heap_top()
            if top is None or top[0] > now:
                break
            heapq.heappop(self._heap)
            _, _, seq, name = top
            entry = self._entries.pop(name)
            self._index_discard(entry)
            expired.append((seq, entry))
            self._obs_expirations.inc()
        # Expired entries come back in install order.
        expired.sort(key=lambda item: item[0])
        return [entry for _, entry in expired]

    def lookup(
        self, flow: FlowId, now: float, refresh: bool = True
    ) -> Optional[TableEntry]:
        """Match ``flow`` against the table.

        Returns the highest-priority covering entry, refreshing its idle
        timer (unless ``refresh=False``, used for non-mutating peeks).
        Counts a hit, or a miss when no entry covers the flow or the
        winner's action is in :data:`MISS_ACTIONS`.
        """
        self.sweep(now)
        key = (flow.src, flow.dst, flow.proto, flow.sport, flow.dport)
        try:
            best = self._winners[key]
        except KeyError:
            best = self._scan(flow)
            self._winners[key] = best
        if best is None:
            self._obs_misses.inc()
            return None
        if best.rule.action in MISS_ACTIONS:
            self._obs_misses.inc()
        else:
            self._obs_hits.inc()
        if refresh:
            best.last_match = now
            # Only an idle timeout makes the refresh move the expiry.
            if best.rule.idle_timeout > 0:
                self._reschedule(best)
        return best

    def _scan(self, flow: FlowId) -> Optional[TableEntry]:
        """Priority-bucketed winner scan.

        Buckets are visited in descending priority; within a bucket the
        first-installed cover wins, which is exactly a "strictly greater
        replaces" linear scan over the install-ordered entry dict.
        """
        for priority in self._priorities:
            for entry in self._buckets[priority].values():
                if entry.rule.covers(flow):
                    return entry
        return None

    def peek(self, flow: FlowId, now: float) -> Optional[TableEntry]:
        """Non-mutating lookup: no timer refresh, no statistics."""
        for priority in self._priorities:
            for entry in self._buckets[priority].values():
                if not entry.expired(now) and entry.rule.covers(flow):
                    return entry
        return None

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
            self._reschedule(existing)
            return None
        evicted: Optional[TableEntry] = None
        if len(self._entries) >= self.capacity:
            evicted = self._pick_victim(now)
            if evicted is None:
                return None  # table full of permanent rules
            del self._entries[evicted.rule.name]
            self._index_discard(evicted)
            self._obs_evictions.inc()
        entry = TableEntry(
            rule=rule, out_port=out_port, install_time=now, last_match=now
        )
        self._entries[rule.name] = entry
        self._index_add(entry)
        self._obs_installs.inc()
        return evicted

    def preinstall(self, rule: Rule, out_port: int) -> None:
        """Install a permanent entry at time zero, uncounted.

        Permanent entries are set-up plumbing, not cache traffic: a
        trial network forked from a template carries them without
        installing them again, so ``sim.table.installs`` counts only
        the timed :meth:`install` calls and never depends on how many
        networks a process built.
        """
        if not rule.is_permanent():
            raise ValueError(
                f"preinstalled rule {rule.name} must be permanent"
            )
        if rule.name in self._entries or len(self._entries) >= self.capacity:
            raise RuntimeError(  # pragma: no cover - setup invariant
                f"cannot preinstall {rule.name}: name taken or table full"
            )
        entry = TableEntry(
            rule=rule, out_port=out_port, install_time=0.0, last_match=0.0
        )
        self._entries[rule.name] = entry
        self._index_add(entry)

    def _pick_victim(self, now: float) -> Optional[TableEntry]:
        """Shortest-remaining-time evictable entry (ties: oldest install)."""
        top = self._heap_top()
        if top is None:
            return None
        return self._entries[top[3]]

    def remove(self, rule_name: str) -> bool:
        """Explicitly delete an entry (controller-driven removal)."""
        entry = self._entries.pop(rule_name, None)
        if entry is None:
            return False
        self._index_discard(entry)
        return True

    def next_expiry(self, now: float) -> float:
        """Earliest future expiry time, or ``inf`` when none."""
        top = self._heap_top()
        if top is None:
            return math.inf
        # ``now + (expiry - now)``, not ``expiry``: the rounding matches
        # ``now + entry.remaining(now)`` bit for bit.
        return now + (top[0] - now)

