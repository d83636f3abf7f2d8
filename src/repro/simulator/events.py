"""Discrete-event simulation core.

A minimal, deterministic event loop: callbacks scheduled at absolute or
relative times, executed in time order with FIFO tie-breaking.  All
simulator components share one :class:`Simulator` instance and schedule
events on it; there are no processes or coroutines to keep the
execution model easy to reason about and fully reproducible.

An event is data: a callable plus its arguments, ``(fn, args)``.  The
simulator components schedule bound methods, never closures, so a
``copy.deepcopy`` of a simulator (and of the objects its events point
at) yields an independent copy whose pending events act on the copied
objects -- :meth:`repro.simulator.network.Network.fork` relies on this.

Two scheduling channels feed the loop:

* the classic heap (:meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at`), one entry per event, cancellable;
* *event streams* (:meth:`Simulator.schedule_stream`): a pre-sorted
  batch of event times that reserves one contiguous block of sequence
  numbers up front and is merged against the heap top by
  ``(time, seq)``.  A stream event costs O(1) instead of a heap
  push/pop and allocates no per-event record, which is where the bulk
  of background-traffic scheduling time went; because the reserved
  sequence numbers are exactly the ones the per-event loop would have
  allocated, execution order -- and therefore every RNG draw made
  inside callbacks -- is identical to scheduling the batch one event
  at a time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: An event callback; it runs as ``fn(*args)`` with the scheduled args.
Callback = Callable[..., None]


class _EventStream:
    """A sorted batch of events owning a contiguous seq block."""

    __slots__ = ("times", "run", "seq0", "cursor")

    def __init__(
        self, times: Sequence[float], run: Callable[[int], None], seq0: int
    ) -> None:
        self.times = times
        self.run = run
        self.seq0 = seq0
        self.cursor = 0

    @property
    def remaining(self) -> int:
        return len(self.times) - self.cursor


class EventHandle:
    """One queued ``fn(*args)`` call; :meth:`Simulator.schedule` returns it.

    The heap holds ``(time, seq, handle)`` tuples, so ``heapq`` orders
    events by ``(time, seq)`` (FIFO ties) in C and never compares two
    handles (sequence numbers are unique).  A cancelled handle stays in
    the heap and is skipped when it reaches the top.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callback, args: Tuple[Any, ...]) -> None:
        #: Scheduled execution time.
        self.time = time
        self.fn = fn
        self.args = args
        #: Whether the event has been cancelled.
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"EventHandle(time={self.time!r}, cancelled={self.cancelled!r})"


class Simulator:
    """A deterministic discrete-event simulator clock."""

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, seq, handle)`` entries, a ``heapq`` heap.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        #: Streams with events left; one is dropped when it runs out.
        self._streams: List[_EventStream] = []
        self._seq = 0
        self._events_run = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue) + sum(
            stream.remaining for stream in self._streams
        )

    def schedule(
        self, delay: float, fn: Callback, *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = float(self._now + delay)
        event = EventHandle(time, fn, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, fn: Callback, *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past ({time} < {self._now})"
            )
        time = float(time)
        event = EventHandle(time, fn, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_stream(
        self, times: Sequence[float], run: Callable[[int], None]
    ) -> int:
        """Schedule a sorted batch of events as one merged stream.

        ``run(i)`` is invoked when the ``i``-th event fires, with the
        clock at ``times[i]``.  The batch reserves the same contiguous
        block of sequence numbers a ``schedule_at`` loop would have
        allocated, so interleaving with heap events (and FIFO
        tie-breaking) is bit-identical to the per-event loop.  ``times``
        must be non-decreasing and must not precede the current clock;
        stream events cannot be cancelled.  Like heap callbacks, ``run``
        should be a bound method, so a copied simulator's stream acts on
        the copied owner.  Returns the number of scheduled events.
        """
        count = len(times)
        if count == 0:
            return 0
        previous = self._now
        for time in times:
            if time < previous:
                raise ValueError(
                    "stream times must be non-decreasing and not precede "
                    f"the current clock ({time} < {previous})"
                )
            previous = time
        stream = _EventStream(times, run, self._seq)
        self._seq += count
        self._streams.append(stream)
        return count

    def _head_stream(self) -> Optional[_EventStream]:
        """The stream owning the earliest pending event, if it beats the heap.

        Also drops cancelled heap-top entries, so the caller can read
        ``self._queue[0]`` directly when ``None`` is returned and the
        queue is non-empty.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        best: Optional[_EventStream] = None
        if not self._streams:
            return best
        best_key = queue[0][:2] if queue else None
        for stream in self._streams:
            cursor = stream.cursor
            key = (stream.times[cursor], stream.seq0 + cursor)
            if best_key is None or key < best_key:
                best = stream
                best_key = key
        return best

    def _run_stream_event(self, stream: _EventStream) -> None:
        """Fire the stream's next event, dropping the stream once it is done."""
        index = stream.cursor
        stream.cursor = index + 1
        if index + 1 == len(stream.times):
            self._streams.remove(stream)
        self._now = stream.times[index]
        self._events_run += 1
        stream.run(index)

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        stream = self._head_stream()
        if stream is not None:
            return stream.times[stream.cursor]
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event; returns ``False`` when queue is empty."""
        stream = self._head_stream()
        if stream is not None:
            self._run_stream_event(stream)
            return True
        if not self._queue:
            return False
        time, _, event = heapq.heappop(self._queue)
        self._now = time
        self._events_run += 1
        event.fn(*event.args)
        return True

    def run_until(self, end_time: float, max_events: int = 10_000_000) -> None:
        """Run events up to and including ``end_time``.

        The clock is advanced to exactly ``end_time`` afterwards, even if
        no event lands there, so subsequent scheduling is relative to the
        requested horizon.
        """
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is in the past")
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        while True:
            # One merged head probe per event (step() would re-probe).
            stream = self._head_stream()
            if stream is not None:
                if stream.times[stream.cursor] > end_time:
                    break
                self._run_stream_event(stream)
            elif queue:
                time, _, event = queue[0]
                if time > end_time:
                    break
                heappop(queue)
                self._now = time
                self._events_run += 1
                event.fn(*event.args)
            else:
                break
            executed += 1
            if executed > max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events before {end_time}; "
                    "likely an event storm or scheduling loop"
                )
        self._now = float(end_time)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains."""
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise RuntimeError(f"exceeded {max_events} events")
