"""Observability: metrics and tracing behind one stable API.

Public surface:

* :class:`Instrumentation` / :data:`NULL` -- the backend facade and its
  default do-nothing instance;
* :func:`get_instrumentation` / :func:`set_instrumentation` /
  :func:`use_instrumentation` -- the current-backend plumbing;
* :func:`counter_inc` / :func:`span` -- module-level hooks that act
  on the current backend;
* ``repro.obs.metrics`` / ``repro.obs.trace`` / ``repro.obs.stats``
  -- the underlying primitives, importable directly.

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and the
NDJSON trace format.
"""

from repro.obs.api import (
    NULL,
    Instrumentation,
    NullInstrumentation,
    counter_inc,
    get_instrumentation,
    set_instrumentation,
    span,
    use_instrumentation,
)
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.stats import format_table, summarize_spans
from repro.obs.trace import Span, Tracer, read_ndjson

__all__ = [
    "NULL",
    "Instrumentation",
    "NullInstrumentation",
    "counter_inc",
    "get_instrumentation",
    "set_instrumentation",
    "use_instrumentation",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "Span",
    "Tracer",
    "read_ndjson",
    "summarize_spans",
    "format_table",
]
