"""The stable observability facade: :class:`Instrumentation`.

One object bundles the two surfaces -- metrics registry and span
tracer -- behind the API the rest of the codebase talks to::

    from repro.obs import Instrumentation, use_instrumentation

    obs = Instrumentation()
    with use_instrumentation(obs):
        run_fig6(spec)
    obs.write_trace("trace.ndjson")
    obs.write_metrics("metrics.json")

Components that cannot thread an ``instrumentation=`` argument (the
simulator's switches, deep library code) read the *current*
instrumentation via :func:`get_instrumentation`; the default is the
shared :data:`NULL` singleton, whose every operation is a no-op, so the
library is silent unless a caller opts in.

``obs.enabled`` lets hot paths skip argument preparation entirely::

    if obs.enabled:
        obs.histogram("engine.score.batch_ms").observe(elapsed_ms)

This is the one stable public API for observability; module paths
``repro.obs.metrics`` / ``repro.obs.trace`` / ``repro.obs.stats``
carry the underlying primitives.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Tuple, Union

from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.sanitize import checkpoint as _sanitize_checkpoint
from repro.obs.sanitize import is_active as _sanitize_active
from repro.obs.stats import summarize_spans
from repro.obs.trace import NullTracer, Span, Tracer

PathLike = Union[str, Path]


class _SanitizedBoundary:
    """Wraps a span so the determinism sanitizer checks fire on
    clean exit (see :mod:`repro.obs.sanitize`); built only while the
    sanitizer is active, so the disabled path never allocates."""

    __slots__ = ("_inner", "_label")

    def __init__(self, inner: object, label: str) -> None:
        self._inner = inner
        self._label = label

    def __enter__(self) -> object:
        return self._inner.__enter__()  # type: ignore[attr-defined]

    def __exit__(self, exc_type: object, exc: object, tb: object) -> object:
        result = self._inner.__exit__(  # type: ignore[attr-defined]
            exc_type, exc, tb
        )
        if exc_type is None:
            _sanitize_checkpoint(self._label)
        return result


class Instrumentation:
    """A recording observability backend: metrics + tracing."""

    #: Hot paths may consult this to skip measurement setup when the
    #: backend discards everything anyway.
    enabled = True

    def __init__(self) -> None:
        self.metrics: MetricsRegistry = MetricsRegistry()
        self.tracer: Tracer = Tracer()

    # -- shortcuts -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name``."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name``."""
        return self.metrics.gauge(name)

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    ) -> Histogram:
        """The histogram registered under ``name``."""
        return self.metrics.histogram(name, bounds)

    def span(self, name: str, **attrs: object) -> Span:
        """Open a trace span (context manager)."""
        if _sanitize_active():
            return _SanitizedBoundary(  # type: ignore[return-value]
                self.tracer.span(name, **attrs), f"span:{name}"
            )
        return self.tracer.span(name, **attrs)

    # -- export --------------------------------------------------------
    def metrics_document(self) -> Dict[str, object]:
        """The metrics registry plus per-span-name times as one document.

        ``phases`` maps each span name to its count and its inclusive
        (``wall_s``/``cpu_s``) and exclusive (``self_s``/``self_cpu_s``)
        times, as :func:`repro.obs.stats.summarize_spans` derives them.
        """
        document = self.metrics.to_document()
        rows = summarize_spans(
            [span.to_json() for span in self.tracer.records]
        )
        document["phases"] = {str(row.pop("name")): row for row in rows}
        return document

    def write_metrics(self, path: PathLike) -> Path:
        """Write :meth:`metrics_document` as JSON; returns the path."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.metrics_document(), indent=2, sort_keys=True)
        )
        return path

    def write_trace(self, path: PathLike) -> Path:
        """Write the recorded spans as NDJSON; returns the path."""
        return self.tracer.write_ndjson(path)


class NullInstrumentation(Instrumentation):
    """The default backend: every operation is a shared no-op.

    Exactly one instance exists (:data:`NULL`); components compare
    ``obs.enabled`` or ``obs is NULL`` to detect it.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()
        self.tracer = NullTracer()

    def write_metrics(self, path: PathLike) -> Path:
        raise RuntimeError("the null instrumentation records no metrics")

    def write_trace(self, path: PathLike) -> Path:
        raise RuntimeError("the null instrumentation records no trace")


#: The process-wide do-nothing backend; the default current instrumentation.
NULL = NullInstrumentation()

_current: Instrumentation = NULL


def get_instrumentation() -> Instrumentation:
    """The currently installed instrumentation (default :data:`NULL`)."""
    return _current


def set_instrumentation(obs: Instrumentation) -> Instrumentation:
    """Install ``obs`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = obs
    return previous


@contextmanager
def use_instrumentation(obs: Instrumentation) -> Iterator[Instrumentation]:
    """Install ``obs`` for the duration of a ``with`` block."""
    previous = set_instrumentation(obs)
    try:
        yield obs
    finally:
        set_instrumentation(previous)


# -- module-level convenience hooks -----------------------------------
def counter_inc(name: str, value: int = 1) -> None:
    """Increment a counter on the *current* instrumentation."""
    _current.metrics.counter(name).inc(value)


def span(name: str, **attrs: object) -> Span:
    """Open a span on the *current* instrumentation."""
    return _current.span(name, **attrs)
