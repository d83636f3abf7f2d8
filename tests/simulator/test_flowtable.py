"""Tests for the OVS-like flow table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.flowid import FlowId
from repro.flows.rules import ACTION_FORWARD, Match, Rule
from repro.simulator.flowtable import FlowTable, TableEntry


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


class TestEntryTimers:
    def test_permanent_never_expires(self):
        entry = TableEntry(rule("p"), 0, 0.0, 0.0)
        assert entry.remaining(1e9) == math.inf
        assert not entry.expired(1e9)
        assert not entry.evictable

    def test_idle_timeout_from_last_match(self):
        entry = TableEntry(rule("i", idle=5.0), 0, 0.0, 3.0)
        assert entry.remaining(4.0) == pytest.approx(4.0)
        assert entry.expired(8.0)

    def test_hard_timeout_from_install(self):
        entry = TableEntry(rule("h", hard=5.0), 0, 0.0, 4.9)
        assert entry.remaining(4.0) == pytest.approx(1.0)
        assert entry.expired(5.0)

    def test_both_timeouts_take_minimum(self):
        entry = TableEntry(rule("b", idle=10.0, hard=5.0), 0, 0.0, 0.0)
        assert entry.remaining(1.0) == pytest.approx(4.0)


class TestLookup:
    def test_miss_on_empty(self, obs):
        table = FlowTable(4)
        assert table.lookup(FLOW, 0.0) is None
        assert obs.metrics.counter("sim.table.misses").value == 1

    def test_hit_and_stats(self, obs):
        table = FlowTable(4)
        table.install(rule("r", src=1, idle=5.0), 7, 0.0)
        entry = table.lookup(FLOW, 1.0)
        assert entry is not None
        assert entry.out_port == 7
        assert obs.metrics.counter("sim.table.hits").value == 1

    def test_highest_priority_wins(self):
        table = FlowTable(4)
        table.install(rule("low", priority=1, idle=5.0), 1, 0.0)
        table.install(rule("high", src=1, priority=9, idle=5.0), 2, 0.0)
        assert table.lookup(FLOW, 0.1).rule.name == "high"

    def test_lookup_refreshes_idle_timer(self):
        table = FlowTable(4)
        table.install(rule("r", idle=5.0), 0, 0.0)
        table.lookup(FLOW, 4.0)  # refresh
        assert table.lookup(FLOW, 8.0) is not None  # alive thanks to refresh

    def test_lookup_without_refresh(self):
        table = FlowTable(4)
        table.install(rule("r", idle=5.0), 0, 0.0)
        table.peek(FLOW, 4.0)  # the lookup that leaves the timer alone
        assert table.lookup(FLOW, 8.0) is None  # expired at 5.0

    def test_peek_is_pure(self, obs):
        table = FlowTable(4)
        table.install(rule("r", idle=5.0), 0, 0.0)
        hits_before = obs.metrics.counter("sim.table.hits").value
        assert table.peek(FLOW, 1.0) is not None
        assert table.peek(FLOW, 6.0) is None  # expired view
        assert obs.metrics.counter("sim.table.hits").value == hits_before

    def test_expired_entries_removed_on_lookup(self, obs):
        table = FlowTable(4)
        table.install(rule("r", idle=2.0), 0, 0.0)
        assert table.lookup(FLOW, 3.0) is None
        assert len(table) == 0
        assert obs.metrics.counter("sim.table.expirations").value == 1


class TestInstall:
    def test_reinstall_refreshes_in_place(self):
        table = FlowTable(4)
        table.install(rule("r", idle=2.0), 1, 0.0)
        evicted = table.install(rule("r", idle=2.0), 2, 1.5)
        assert evicted is None
        assert len(table) == 1
        assert table.lookup(FLOW, 3.0) is not None  # timer restarted

    def test_eviction_shortest_remaining(self):
        table = FlowTable(2)
        table.install(rule("short", src=5, idle=2.0), 0, 0.0)
        table.install(rule("long", src=6, idle=9.0), 0, 0.0)
        evicted = table.install(rule("new", src=7, idle=5.0), 0, 1.0)
        assert evicted.rule.name == "short"
        assert "new" in table and "long" in table

    def test_permanent_rules_never_evicted(self):
        table = FlowTable(2)
        table.install(rule("perm", src=5), 0, 0.0)
        table.install(rule("temp", src=6, idle=9.0), 0, 0.0)
        evicted = table.install(rule("new", src=7, idle=5.0), 0, 1.0)
        assert evicted.rule.name == "temp"
        assert "perm" in table

    def test_all_permanent_table_full_drops_install(self):
        table = FlowTable(1)
        table.install(rule("perm", src=5), 0, 0.0)
        result = table.install(rule("new", src=7, idle=5.0), 0, 1.0)
        assert result is None
        assert "new" not in table

    def test_eviction_counted(self, obs):
        table = FlowTable(1)
        table.install(rule("a", src=5, idle=5.0), 0, 0.0)
        table.install(rule("b", src=6, idle=5.0), 0, 1.0)
        assert obs.metrics.counter("sim.table.evictions").value == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlowTable(0)


class TestMaintenance:
    def test_sweep_removes_expired(self):
        table = FlowTable(4)
        table.install(rule("a", src=5, idle=1.0), 0, 0.0)
        table.install(rule("b", src=6, idle=9.0), 0, 0.0)
        expired = table.sweep(2.0)
        assert [e.rule.name for e in expired] == ["a"]
        assert table.rule_names() == ("b",)

    def test_remove(self):
        table = FlowTable(4)
        table.install(rule("a", idle=5.0), 0, 0.0)
        assert table.remove("a")
        assert not table.remove("a")

    def test_next_expiry(self):
        table = FlowTable(4)
        assert table.next_expiry(0.0) == math.inf
        table.install(rule("a", src=5, idle=3.0), 0, 0.0)
        table.install(rule("b", src=6, idle=7.0), 0, 0.0)
        assert table.next_expiry(1.0) == pytest.approx(3.0)

    def test_rule_names_sorted(self):
        table = FlowTable(4)
        table.install(rule("zeta", src=5, idle=5.0), 0, 0.0)
        table.install(rule("alpha", src=6, idle=5.0), 0, 0.0)
        assert table.rule_names() == ("alpha", "zeta")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 9),        # rule id
            st.floats(0.1, 10.0),     # idle timeout
            st.floats(0.0, 30.0),     # install time offset
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 4),
)
def test_capacity_never_exceeded(operations, capacity):
    """Property: the table never holds more than ``capacity`` entries."""
    table = FlowTable(capacity)
    now = 0.0
    for rule_id, idle, offset in operations:
        now += offset
        table.install(rule(f"r{rule_id}", src=rule_id, idle=idle), 0, now)
        assert len(table) <= capacity
