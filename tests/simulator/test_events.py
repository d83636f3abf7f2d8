"""Tests for the discrete-event core."""

import pytest

from repro.simulator.events import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run_all()
        assert log == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        sim.run_all()
        assert log == []
        assert handle.cancelled

    def test_cancel_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run_until(3.0)
        assert log == [1]
        assert sim.now == 3.0

    def test_clock_lands_on_horizon_without_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_later_events_still_pending(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append(5))
        sim.run_until(3.0)
        sim.run_until(6.0)
        assert log == [5]

    def test_past_horizon_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_event_storm_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(RuntimeError, match="events"):
            sim.run_until(1.0, max_events=100)


class TestIntrospection:
    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time is None
        sim.schedule(2.5, lambda: None)
        assert sim.next_event_time == 2.5

    def test_next_event_time_skips_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.next_event_time == 2.0

    def test_events_run_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run_all()
        assert sim.events_run == 3

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()
