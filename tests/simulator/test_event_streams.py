"""Tests for batched event streams (`Simulator.schedule_stream`).

The stream contract is bit-identical interleaving with the classic
heap: a batch reserves the same contiguous sequence-number block a
``schedule_at`` loop would have allocated, so execution order -- and
FIFO tie-breaking against heap events -- never depends on which channel
scheduled an event.
"""

import pytest

from repro.simulator.events import Simulator


class TestValidation:
    def test_empty_batch_is_a_no_op(self):
        sim = Simulator()
        assert sim.schedule_stream([], lambda i: None) == 0
        assert sim.pending == 0

    def test_decreasing_times_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-decreasing"):
            sim.schedule_stream([2.0, 1.0], lambda i: None)

    def test_times_before_the_clock_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            sim.schedule_stream([4.0], lambda i: None)


class TestExecution:
    def test_stream_events_run_in_order_with_the_clock_set(self):
        sim = Simulator()
        seen = []
        sim.schedule_stream([1.0, 2.5, 4.0], lambda i: seen.append((i, sim.now)))
        sim.run_all()
        assert seen == [(0, 1.0), (1, 2.5), (2, 4.0)]
        assert sim.events_run == 3

    def test_pending_and_next_event_time_cover_streams(self):
        sim = Simulator()
        sim.schedule_stream([3.0, 4.0], lambda i: None)
        sim.schedule(5.0, lambda: None)
        assert sim.pending == 3
        assert sim.next_event_time == 3.0

    def test_run_until_stops_mid_stream_and_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule_stream([1.0, 2.0, 3.0], seen.append)
        sim.run_until(2.0)
        assert seen == [0, 1]
        assert sim.now == 2.0
        sim.run_until(10.0)
        assert seen == [0, 1, 2]

    def test_multiple_streams_merge_by_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_stream([1.0, 4.0], lambda i: seen.append(("a", i)))
        sim.schedule_stream([2.0, 3.0], lambda i: seen.append(("b", i)))
        sim.run_all()
        assert seen == [("a", 0), ("b", 0), ("b", 1), ("a", 1)]


class TestHeapInterleaving:
    def test_tie_break_follows_scheduling_order(self):
        # Heap event scheduled BEFORE the stream wins the tie; one
        # scheduled AFTER loses it -- exactly like three schedule_at
        # calls in the same order.
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append("heap-before"))
        sim.schedule_stream([2.0], lambda i: seen.append("stream"))
        sim.schedule_at(2.0, lambda: seen.append("heap-after"))
        sim.run_all()
        assert seen == ["heap-before", "stream", "heap-after"]

    def test_stream_matches_per_event_loop_exactly(self):
        # Differential: same workload through schedule_at-only and
        # through a stream; the interleaved execution log must match.
        times = [0.5, 1.0, 1.0, 2.25, 4.0]

        def run(sim, use_stream):
            log = []
            sim.schedule_at(1.0, lambda: log.append("x"))
            if use_stream:
                sim.schedule_stream(
                    times, lambda i: log.append(("s", i, sim.now))
                )
            else:
                for index, time in enumerate(times):
                    sim.schedule_at(
                        time,
                        lambda i=index: log.append(("s", i, sim.now)),
                    )
            sim.schedule_at(2.25, lambda: log.append("y"))
            sim.run_until(3.0)
            sim.schedule(0.5, lambda: log.append("z"))
            sim.run_all()
            return log, sim.now, sim.events_run

        assert run(Simulator(), True) == run(Simulator(), False)

    def test_callbacks_can_schedule_during_a_stream(self):
        sim = Simulator()
        seen = []
        sim.schedule_stream(
            [1.0, 3.0],
            lambda i: sim.schedule(0.5, lambda: seen.append(sim.now)),
        )
        sim.run_all()
        assert seen == [1.5, 3.5]
