"""Indexed flow table: tie-breaks, caches, and oracle equivalence.

The production table's correctness contract is behavioural identity
with the linear-scan oracle :class:`tests.oracles.ReferenceFlowTable`
-- same winners, same victims, same expiry order, same counts -- so most
tests here run both implementations side by side.  The oracle keeps its
own ``stats`` dict; the production table counts only in the metrics
registry, so its counts are read from a private backend.  The pinned
tie-breaks get dedicated cases; a seeded fuzz run pins everything else.
"""

import math
import random

import pytest

from repro.flows.flowid import FlowId
from repro.flows.rules import ACTION_FORWARD, Match, Rule
from repro import simulator
from repro.simulator import flowtable
from repro.obs import Instrumentation, use_instrumentation
from repro.simulator.flowtable import FlowTable

from tests import oracles

#: The table events both implementations count.
TABLE_EVENTS = ("hits", "misses", "installs", "evictions", "expirations")


def rule(name, src=None, priority=10, idle=0.0, hard=0.0):
    return Rule(
        name=name,
        src=Match.exact(src) if src is not None else Match.ANY,
        priority=priority,
        idle_timeout=idle,
        hard_timeout=hard,
        action=ACTION_FORWARD,
    )


FLOW = FlowId(src=1, dst=2)

BOTH = pytest.mark.parametrize(
    "table_cls",
    [oracles.ReferenceFlowTable, FlowTable],
    ids=["ReferenceFlowTable", "IndexedFlowTable"],
)


def registry_counts(backend):
    """The ``sim.table.*`` counts recorded in ``backend``."""
    return {
        event: backend.metrics.counter(f"sim.table.{event}").value
        for event in TABLE_EVENTS
    }


def table_counts(table, backend):
    """Event counts of ``table``: the oracle keeps its own ``stats``,
    the production table's live in ``backend``'s registry."""
    if isinstance(table, oracles.ReferenceFlowTable):
        return dict(table.stats)
    return registry_counts(backend)


class TestAlias:
    def test_indexed_is_a_flow_table(self):
        # The indexed table is the one production table: it stands
        # alone, and no selector or second implementation is exported.
        assert not issubclass(FlowTable, oracles.ReferenceFlowTable)
        for name in ("IndexedFlowTable", "ReferenceFlowTable",
                     "make_flow_table"):
            assert not hasattr(simulator, name)
            assert not hasattr(flowtable, name)
        table = FlowTable(2)
        assert table._heap == [] and table._buckets == {}


class TestTieBreaks:
    """The pinned orderings, asserted identically on table and oracle."""

    @BOTH
    def test_equal_priority_overlap_first_installed_wins(self, table_cls):
        table = table_cls(4)
        table.install(rule("first", priority=5), 1, 0.0)
        table.install(rule("second", src=1, priority=5), 2, 0.0)
        entry = table.lookup(FLOW, 1.0)
        assert entry is not None and entry.rule.name == "first"

    @BOTH
    def test_higher_priority_beats_install_order(self, table_cls):
        table = table_cls(4)
        table.install(rule("low", priority=1), 1, 0.0)
        table.install(rule("high", src=1, priority=9), 2, 0.0)
        entry = table.lookup(FLOW, 1.0)
        assert entry is not None and entry.rule.name == "high"

    @BOTH
    def test_equal_remaining_victim_is_earliest_install(self, table_cls):
        table = table_cls(2)
        table.install(rule("old", idle=10.0), 1, 0.0)
        table.install(rule("new", idle=8.0), 2, 2.0)  # same expiry t=10
        evicted = table.install(rule("r3", idle=5.0), 3, 3.0)
        assert evicted is not None and evicted.rule.name == "old"

    @BOTH
    def test_equal_remaining_and_install_time_victim_is_first_installed(
        self, table_cls
    ):
        table = table_cls(2)
        table.install(rule("a", idle=10.0), 1, 0.0)
        table.install(rule("b", idle=10.0), 2, 0.0)
        evicted = table.install(rule("c", idle=5.0), 3, 1.0)
        assert evicted is not None and evicted.rule.name == "a"

    @BOTH
    def test_permanent_entries_survive_eviction_pressure(self, table_cls):
        table = table_cls(2)
        table.install(rule("perm"), 1, 0.0)
        table.install(rule("soft", idle=100.0), 2, 0.0)
        evicted = table.install(rule("soft2", idle=5.0), 3, 1.0)
        assert evicted is not None and evicted.rule.name == "soft"
        assert "perm" in table

    @BOTH
    def test_table_full_of_permanent_rules_drops_the_install(
        self, table_cls, obs
    ):
        table = table_cls(2)
        table.install(rule("p1"), 1, 0.0)
        table.install(rule("p2"), 2, 0.0)
        assert table.install(rule("soft", idle=5.0), 3, 1.0) is None
        assert "soft" not in table
        assert table_counts(table, obs)["evictions"] == 0

    @BOTH
    def test_sweep_returns_expired_in_install_order(self, table_cls):
        table = table_cls(4)
        table.install(rule("late", idle=3.0), 1, 0.0)  # expires t=3
        table.install(rule("early", idle=1.0), 2, 0.0)  # expires t=1
        expired = table.sweep(5.0)
        assert [e.rule.name for e in expired] == ["late", "early"]


class TestResultCaching:
    """rule_names()/entries are memoised until the entry set changes."""

    def test_repeat_reads_alias_one_tuple(self):
        table = FlowTable(4)
        table.install(rule("r", src=1, idle=5.0), 1, 0.0)
        assert table.rule_names() is table.rule_names()
        assert table.entries is table.entries

    def test_install_invalidates(self):
        table = FlowTable(4)
        table.install(rule("a"), 1, 0.0)
        names = table.rule_names()
        entries = table.entries
        table.install(rule("b", src=9), 2, 0.0)
        assert table.rule_names() == ("a", "b")
        assert table.rule_names() is not names
        assert table.entries is not entries

    def test_remove_invalidates(self):
        table = FlowTable(4)
        table.install(rule("a"), 1, 0.0)
        names = table.rule_names()
        assert table.remove("a")
        assert table.rule_names() == ()
        assert table.rule_names() is not names

    def test_expiry_sweep_invalidates(self):
        table = FlowTable(4)
        table.install(rule("a", idle=1.0), 1, 0.0)
        names = table.rule_names()
        table.sweep(5.0)
        assert table.rule_names() == ()
        assert table.rule_names() is not names

    def test_refreshing_lookup_keeps_the_cache(self):
        # A hit rewrites a timer but not the entry set: no invalidation.
        table = FlowTable(4)
        table.install(rule("r", src=1, idle=5.0), 1, 0.0)
        names = table.rule_names()
        entries = table.entries
        assert table.lookup(FLOW, 1.0) is not None
        assert table.rule_names() is names
        assert table.entries is entries


class TestHeapHygiene:
    def test_idle_refresh_backlog_is_compacted(self):
        table = FlowTable(4)
        table.install(rule("r", src=1, idle=50.0), 1, 0.0)
        for step in range(1000):
            table.lookup(FLOW, float(step) * 0.01)
        # Each hit pushes one reschedule tuple; compaction must keep the
        # heap bounded instead of retaining all 1000 stale tuples.
        assert len(table._heap) <= 64 + 8 * len(table)

    def test_next_expiry_tracks_refreshes(self):
        table = FlowTable(4)
        table.install(rule("r", src=1, idle=5.0), 1, 0.0)
        assert table.next_expiry(0.0) == pytest.approx(5.0)
        table.lookup(FLOW, 3.0)
        assert table.next_expiry(3.0) == pytest.approx(8.0)
        table.sweep(20.0)
        assert table.next_expiry(20.0) == math.inf


def _entry_key(entry):
    return (
        entry.rule.name,
        entry.out_port,
        entry.install_time,
        entry.last_match,
    )


def _snapshot(table, now, counts):
    return {
        "names": table.rule_names(),
        "entries": sorted(_entry_key(e) for e in table.entries),
        "counts": counts,
        "len": len(table),
        "next_expiry": table.next_expiry(now),
    }


class TestReferenceEquivalence:
    """Seeded fuzz: drive both tables through one op stream in lockstep."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_op_streams_agree(self, seed):
        rng = random.Random(seed)
        reference = oracles.ReferenceFlowTable(4)
        # Only the production table counts into this backend: its
        # instruments are resolved at construction.
        backend = Instrumentation()
        with use_instrumentation(backend):
            indexed = FlowTable(4)
        now = 0.0
        names = [f"r{i}" for i in range(8)]
        for _ in range(300):
            now += rng.random() * 1.5
            op = rng.randrange(6)
            if op <= 1:  # install, weighted up to keep the table busy
                new = rule(
                    rng.choice(names),
                    src=rng.choice([None, 1, 2, 3]),
                    priority=rng.randrange(1, 4),
                    idle=rng.choice([0.0, 0.5, 2.0]),
                    hard=rng.choice([0.0, 3.0]),
                )
                port = rng.randrange(4)
                got_ref = reference.install(new, port, now)
                got_idx = indexed.install(new, port, now)
                assert (got_ref is None) == (got_idx is None)
                if got_ref is not None:
                    assert _entry_key(got_ref) == _entry_key(got_idx)
            elif op == 2:
                flow = FlowId(src=rng.randrange(1, 5), dst=9)
                got_ref = reference.lookup(flow, now)
                got_idx = indexed.lookup(flow, now)
                assert (got_ref is None) == (got_idx is None)
                if got_ref is not None:
                    assert _entry_key(got_ref) == _entry_key(got_idx)
            elif op == 3:
                flow = FlowId(src=rng.randrange(1, 5), dst=9)
                got_ref = reference.peek(flow, now)
                got_idx = indexed.peek(flow, now)
                assert (got_ref is None) == (got_idx is None)
                if got_ref is not None:
                    assert _entry_key(got_ref) == _entry_key(got_idx)
            elif op == 4:
                victim = rng.choice(names)
                assert reference.remove(victim) == indexed.remove(victim)
            else:
                expired_ref = reference.sweep(now)
                expired_idx = indexed.sweep(now)
                assert [_entry_key(e) for e in expired_ref] == [
                    _entry_key(e) for e in expired_idx
                ]
            assert _snapshot(reference, now, dict(reference.stats)) == (
                _snapshot(indexed, now, registry_counts(backend))
            )
