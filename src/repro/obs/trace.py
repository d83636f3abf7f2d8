"""Span-based tracing with monotonic clocks and NDJSON export.

A :class:`Tracer` hands out context-managed spans::

    with tracer.span("engine.evolve", T=T):
        ...

Each span records monotonic start/duration (``time.perf_counter``, never
wall-clock, so traces are immune to NTP steps), the process CPU time it
spent (``time.process_time``), its nesting depth, and a parent/child
link, and is appended to the tracer's record list when the ``with``
block exits.  :mod:`repro.obs.stats` derives inclusive and exclusive
wall/CPU time per span name from those links.  Traces serialise to
NDJSON -- one JSON object per line -- which streams, greps, and diffs
better than one giant document.

The :class:`NullTracer` is the default backend's counterpart: its
``span()`` returns one shared inert context manager, so tracing code on
hot paths costs a method call and a no-op ``__enter__``/``__exit__``
when disabled.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

PathLike = Union[str, Path]

#: Version stamp written into every span record.
TRACE_SCHEMA_VERSION = 1

#: Keys every exported span record must carry (``cpu_s`` is optional:
#: traces written before spans read the CPU clock lack it).
REQUIRED_SPAN_KEYS = ("span_id", "name", "start_s", "duration_s", "depth")

#: JSON-safe attribute value types.
_ATTR_TYPES = (str, int, float, bool, type(None))


class Span:
    """One timed region, used as a context manager.

    ``duration_s`` and ``cpu_s`` are ``None`` while the span is open and
    set from the monotonic and process CPU clocks when the ``with`` block
    exits.  CPU time only covers this process: work a fork pool does on
    the span's behalf shows as wall time without matching CPU time.
    """

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "depth",
        "start_s",
        "duration_s",
        "cpu_s",
        "_cpu_start",
        "status",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        depth: int,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.start_s: Optional[float] = None
        self.duration_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self._cpu_start = 0.0
        self.status = "ok"
        self.attrs = attrs

    def set_attr(self, key: str, value: object) -> None:
        """Attach one JSON-safe attribute to the span."""
        if not isinstance(value, _ATTR_TYPES):
            value = repr(value)
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._cpu_start = time.process_time()
        self.start_s = time.perf_counter() - self.tracer.epoch
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.start_s is None:  # pragma: no cover - misuse guard
            raise RuntimeError(f"span {self.name!r} exited before entry")
        self.duration_s = (time.perf_counter() - self.tracer.epoch) - self.start_s
        self.cpu_s = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.status = "error"
        self.tracer._finish(self)

    def to_json(self) -> Dict[str, object]:
        """The span as a plain-JSON record (one NDJSON line)."""
        record: Dict[str, object] = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = dict(sorted(self.attrs.items()))
        return record


class Tracer:
    """Factory and collector of spans for one run.

    All timestamps are relative to the tracer's creation (``epoch`` on
    the monotonic clock), so ``start_s`` reads as "seconds into the
    run".  Nesting is tracked with an explicit stack: a span opened
    while another is active becomes its child.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.records: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, **attrs: object) -> Span:
        """Open a new span named ``name``; keyword args become attrs."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            depth=len(self._stack),
            attrs={
                key: value if isinstance(value, _ATTR_TYPES) else repr(value)
                for key, value in attrs.items()
            },
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misuse guard
            # Out-of-order exit (span leaked past its parent): drop the
            # stack down to, and including, this span if present.
            while self._stack:
                top = self._stack.pop()
                if top is span:
                    break
        self.records.append(span)

    def __len__(self) -> int:
        return len(self.records)

    def write_ndjson(self, path: PathLike) -> Path:
        """Write every finished span, one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.records:
                handle.write(json.dumps(span.to_json(), sort_keys=True))
                handle.write("\n")
        return path


class NullSpan(Span):
    """Inert span: enter/exit read no clock, attributes vanish."""

    __slots__ = ()

    def __init__(self) -> None:
        # No tracer back-reference is ever used; the attrs dict is shared
        # and never written.
        self.span_id = 0
        self.parent_id = None
        self.name = "null"
        self.depth = 0
        self.start_s = None
        self.duration_s = None
        self.cpu_s = None
        self.status = "ok"
        self.attrs = {}

    def set_attr(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullTracer(Tracer):
    """Tracer that hands out one shared inert span (the default)."""

    def span(self, name: str, **attrs: object) -> Span:
        return _NULL_SPAN

    def write_ndjson(self, path: PathLike) -> Path:
        raise RuntimeError("the null tracer records nothing to export")


def read_ndjson(path: PathLike) -> List[Dict[str, object]]:
    """Parse an NDJSON trace file into a list of span records.

    Blank lines are ignored; a malformed line or a record missing a
    required span key raises ``ValueError`` naming the line number.
    """
    spans: List[Dict[str, object]] = []
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid NDJSON line: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object per line"
                )
            missing = [key for key in REQUIRED_SPAN_KEYS if key not in record]
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: span record missing {missing}"
                )
            spans.append(record)
    return spans
