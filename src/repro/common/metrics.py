"""Lightweight metrics registry: counters, gauges, and latency histograms.

Both layers of the stack expose operational metrics the way the paper's §5.1
"operational analysis" use case assumes — everything a broker, producer, or
job does is countable and timeable.  The registry is also how benchmarks
collect simulated latencies: components record observations, the harness
reads percentiles.

Kept intentionally simple: histograms store plain lists by default because
runs are bounded and determinism matters more than constant memory.  Long
soaks can opt into a deterministic bounded reservoir (``max_samples`` with
keep-every-k decimation); the default path is byte-for-byte unchanged.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator

from repro.common.errors import ConfigError

#: Layers a conventional metric name may start with.  The convention is
#: ``layer.component.metric`` (dot-separated, lower-case, digits and
#: underscores allowed inside segments) — e.g.
#: ``messaging.broker.messages_in`` or ``processing.job.enrich.processed``.
METRIC_LAYERS = (
    "messaging",
    "storage",
    "processing",
    "elasticity",
    "serving",
    "observability",
    "core",
    "tools",
)

#: Full-name pattern for :func:`is_conventional`: at least three segments,
#: starting with a known layer.
_CONVENTION = re.compile(
    r"^(?:%s)(?:\.[a-z0-9_]+){2,}$" % "|".join(METRIC_LAYERS)
)


def metric_name(layer: str, component: str, *parts: str) -> str:
    """Build a convention-compliant metric name.

    Deployment metrics all funnel through this helper (call sites hoist the
    result to a module-level constant, so the hot path pays only a dict
    lookup).  The registry itself stays name-agnostic — tests and scratch
    code can register short ad-hoc names.
    """
    if layer not in METRIC_LAYERS:
        raise ConfigError(
            f"unknown metric layer {layer!r}; expected one of {METRIC_LAYERS}"
        )
    if not component or not parts:
        raise ConfigError("metric_name needs a component and at least one part")
    return ".".join((layer, component) + parts)


def is_conventional(name: str) -> bool:
    """True if ``name`` follows the ``layer.component.metric`` convention."""
    return _CONVENTION.match(name) is not None


_SEGMENT_CLEANER = re.compile(r"[^a-z0-9_]")


def metric_segment(raw: str) -> str:
    """Normalize a runtime identifier (group/job name) into a legal segment.

    Consumer groups and jobs are named by users (``job-enrich``, ``Soak``),
    but metric segments only allow ``[a-z0-9_]``.  Per-entity instruments
    (e.g. the lag monitor's per-group gauges) funnel names through here so
    the whole registry stays :func:`is_conventional`.
    """
    cleaned = _SEGMENT_CLEANER.sub("_", raw.lower())
    if not cleaned.strip("_"):
        raise ConfigError(f"cannot derive a metric segment from {raw!r}")
    return cleaned


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the count in place (the instrument object survives)."""
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can move up and down (e.g. cache residency bytes)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the gauge in place (the instrument object survives)."""
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Records observations and answers percentile queries.

    Percentiles use linear interpolation between closest ranks, matching
    ``numpy.percentile``'s default, so report numbers are stable across
    implementations.

    By default every observation is retained (deterministic, exact).  For
    long soaks, ``max_samples`` bounds memory with keep-every-k decimation:
    once the retained list would exceed the bound, every second retained
    sample is dropped and only every ``k``-th future observation is kept
    (``k`` doubles on each decimation).  Count/total/min/max stay exact in
    bounded mode; percentiles are computed over the retained thinning.
    """

    __slots__ = (
        "name",
        "max_samples",
        "_values",
        "_sorted",
        "_count",
        "_total",
        "_min",
        "_max",
        "_keep_every",
        "_delta",
    )

    def __init__(self, name: str, max_samples: int | None = None) -> None:
        if max_samples is not None and max_samples < 2:
            raise ConfigError(
                f"histogram {name!r}: max_samples must be >= 2, got {max_samples}"
            )
        self.name = name
        self.max_samples = max_samples
        self._values: list[float] = []
        self._sorted = True
        # Exact aggregates, maintained only in bounded mode; the default
        # (unbounded) hot path computes them from ``_values`` as before.
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep_every = 1
        # Observations since the last delta_snapshot(); None until the first
        # call arms delta tracking, so untelemetered runs pay one branch.
        self._delta: list[float] | None = None

    def observe(self, value: float) -> None:
        if self._delta is not None:
            self._delta.append(value)
        if self.max_samples is None:
            if self._values and value < self._values[-1]:
                self._sorted = False
            self._values.append(value)
            return
        self._observe_bounded(value)

    def _observe_bounded(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if (self._count - 1) % self._keep_every:
            return
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        if len(self._values) > self.max_samples:
            # Keep every second retained sample (a deterministic uniform
            # thinning whether the list is in arrival or sorted order).
            self._values = self._values[::2]
            self._keep_every *= 2

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        if self.max_samples is None:
            return len(self._values)
        return self._count

    @property
    def total(self) -> float:
        # While undecimated the reservoir still holds every observation, so
        # the exactly-rounded fsum keeps bounded mode byte-identical to
        # unbounded; only after the first decimation does the running
        # accumulator (naive adds) take over.
        if self.max_samples is None or self._keep_every == 1:
            return math.fsum(self._values)
        return self._total

    @property
    def mean(self) -> float:
        count = self.count
        if not count:
            return 0.0
        return self.total / count

    @property
    def min(self) -> float:
        if self.max_samples is None:
            return min(self._values) if self._values else 0.0
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        if self.max_samples is None:
            return max(self._values) if self._values else 0.0
        return self._max if self._count else 0.0

    def percentile(self, pct: float) -> float:
        """Return the ``pct``-th percentile (0-100) of observations."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        values = self._values
        if len(values) == 1:
            return values[0]
        rank = (pct / 100) * (len(values) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return values[low]
        frac = rank - low
        blend = values[low] * (1 - frac) + values[high] * frac
        # Rounding can land one ulp outside the two samples it blends.
        return min(max(blend, values[low]), values[high])

    def snapshot(self) -> dict[str, float]:
        """Summary dict (count/mean/min/p50/p95/p99/max) for reports."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def delta_snapshot(self) -> dict[str, float]:
        """Summary of the observations made since the previous call.

        The first call arms delta tracking and covers the histogram's whole
        history; every later call summarizes only the window since the call
        before it.  The telemetry exporter publishes these windows so each
        export cycle carries fresh percentiles, not an ever-flattening
        lifetime aggregate.
        """
        pending = self._delta
        self._delta = []
        if pending is None:
            return self.snapshot()
        if not pending:
            return dict(_EMPTY_SUMMARY)
        return _summarize(pending)

    def discard_delta(self) -> None:
        """Drop the pending delta window without summarizing it.

        Arms delta tracking if it was off (so history up to this point is
        excluded from the next window, exactly like ``delta_snapshot``).
        O(1); the telemetry exporter uses this to absorb observations its
        own sends generated — summarizing a window just to throw it away
        would put registry-walk cost on every export cycle.
        """
        self._delta = []

    def reset(self) -> None:
        """Drop all observations in place (the instrument object survives)."""
        self._values.clear()
        self._sorted = True
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep_every = 1
        if self._delta is not None:
            self._delta = []

    def values(self) -> list[float]:
        """Copy of raw observations (benchmarks fit curves on these)."""
        return list(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.6g})"


#: What ``snapshot()`` reports for a histogram with no observations.
_EMPTY_SUMMARY = {
    "count": 0.0, "mean": 0.0, "min": 0.0,
    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
}


def _summarize(values: list[float]) -> dict[str, float]:
    """Snapshot-shaped summary of a plain list of observations."""
    scratch = Histogram("delta")
    scratch.observe_many(values)
    return scratch.snapshot()


class MetricsRegistry:
    """Namespace of metrics, created on first use.

    A metric name identifies one instrument; asking for the same name with a
    different type is an error, which catches typos early.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, max_samples: int | None = None) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            created = Histogram(name, max_samples=max_samples)
            self._metrics[name] = created
            return created
        if not isinstance(existing, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, requested Histogram"
            )
        # max_samples only applies at creation; later callers get the
        # instrument as configured by whoever registered it first.
        return existing

    def _get_or_create(self, name: str, cls: type) -> "Counter | Gauge | Histogram":
        existing = self._metrics.get(name)
        if existing is None:
            created = cls(name)
            self._metrics[name] = created
            return created
        if not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, requested {cls.__name__}"
            )
        return existing

    def get(self, name: str) -> "Counter | Gauge | Histogram | None":
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __iter__(self) -> Iterator["Counter | Gauge | Histogram"]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, object]:
        """Flatten all metrics into a report-friendly dict."""
        out: dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every instrument in place.

        Call sites hoist instruments to module/instance attributes (the hot
        path pays only an attribute load), so dropping entries from the
        registry would leave those live references diverged from what the
        registry reports.  Resetting in place keeps both views consistent.
        """
        for metric in self._metrics.values():
            metric.reset()
