"""Metrics primitives: counters, gauges, histograms, and their registry.

All instruments are keyed by dotted lowercase names (``sim.table.hits``,
``engine.score.batch_ms``) and live in one :class:`MetricsRegistry` so a
whole run can be exported as a single JSON document.  Three kinds:

* :class:`Counter` -- monotonically increasing event counts;
* :class:`Gauge` -- last-written values (pool sizes, utilisation);
* :class:`Histogram` -- value distributions over *fixed* bucket
  boundaries.  The boundaries are compile-time constants (powers of
  ten), never derived from the observed data, so exported documents are
  byte-comparable between runs of the same seed -- the same
  "fixed shapes" discipline the scoring engine applies to its blocks.

The null counterparts (:class:`NullCounter` et al.) implement the same
interface as shared do-nothing singletons; they are what the default
:class:`~repro.obs.api.NullInstrumentation` hands to hot paths, so an
uninstrumented run pays one attribute chase and a no-op call per event.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Version stamp of the exported metrics document.
METRICS_SCHEMA_VERSION = 1

#: Dotted lowercase metric names: ``layer.component.event``.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Fixed histogram bucket boundaries (upper edges), in the observed
#: unit.  Spanning 1e-6 .. 1e6 covers microseconds-to-minutes when
#: observing milliseconds and single events to millions when counting.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** exponent for exponent in range(-6, 7)
)


def validate_metric_name(name: str) -> str:
    """Check a metric name against the dotted-name convention."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: expected dotted lowercase "
            "segments like 'sim.table.hits'"
        )
    return name


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "Counter":
        return self  # shared: a network fork counts into the same registry

    def inc(self, value: int = 1) -> None:
        """Add ``value`` (must be non-negative) to the count."""
        if value < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += value


class Gauge:
    """A last-write-wins numeric value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def __deepcopy__(self, memo: Dict[int, object]) -> "Gauge":
        return self  # shared: a network fork counts into the same registry

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """A value distribution over fixed, data-independent buckets.

    ``bucket_counts[i]`` counts observations with
    ``value <= bounds[i]``; the final slot counts the overflow above the
    last bound.  Count/sum/min/max are tracked exactly alongside.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "low", "high")

    def __init__(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.total: float = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def __deepcopy__(self, memo: Dict[int, object]) -> "Histogram":
        return self  # shared: a network fork counts into the same registry

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError(f"histogram {self.name}: bounds differ")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.low is not None and (self.low is None or other.low < self.low):
            self.low = other.low
        if other.high is not None and (self.high is None or other.high > self.high):
            self.high = other.high

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the observations, if any."""
        return self.total / self.count if self.count else None

    def to_json(self) -> Dict[str, object]:
        """The histogram as a plain-JSON mapping (sparse buckets)."""
        buckets: Dict[str, int] = {}
        for bound, count in zip(self.bounds, self.bucket_counts):
            if count:
                buckets[f"le_{bound:g}"] = count
        if self.bucket_counts[-1]:
            buckets["inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.low,
            "max": self.high,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create home of every instrument in one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(validate_metric_name(name))
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(validate_metric_name(name))
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(validate_metric_name(name), bounds)
            self._histograms[name] = instrument
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def merge(self, other: "MetricsRegistry") -> None:
        """Add ``other``'s counters and histograms, in sorted name order.

        Gauges are last-write values, so this registry's stay as they
        are.  Counter and histogram sums commute: merging the registries
        of several processes gives the totals one process would have.
        """
        for name in sorted(other._counters):
            self.counter(name).inc(other._counters[name].value)
        for name in sorted(other._histograms):
            histogram = other._histograms[name]
            self.histogram(name, histogram.bounds).merge(histogram)

    def to_document(self) -> Dict[str, object]:
        """Every instrument flattened into one sorted JSON document."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_json()
                for name in sorted(self._histograms)
            },
        }


# ----------------------------------------------------------------------
# Null backend: shared do-nothing singletons
# ----------------------------------------------------------------------
class NullCounter(Counter):
    """Counter whose increments vanish (the default backend)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null.counter")

    def inc(self, value: int = 1) -> None:
        pass


class NullGauge(Gauge):
    """Gauge whose writes vanish."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null.gauge")

    def set(self, value: float) -> None:
        pass


class NullHistogram(Histogram):
    """Histogram whose observations vanish."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null.histogram")

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry(MetricsRegistry):
    """Registry that hands every caller the same inert instruments.

    ``counter(name)`` skips name validation and the per-name dict -- the
    hot-path cost of a disabled metric is one method call returning a
    module-level singleton.
    """

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    ) -> Histogram:
        return _NULL_HISTOGRAM
