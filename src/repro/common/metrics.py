"""Lightweight metrics registry: counters, gauges, and latency histograms.

Both layers of the stack expose operational metrics the way the paper's §5.1
"operational analysis" use case assumes — everything a broker, producer, or
job does is countable and timeable.  The registry is also how benchmarks
collect simulated latencies: components record observations, the harness
reads percentiles.

Kept intentionally simple: a histogram is one list of its observations in
arrival order, because runs are bounded and determinism matters more than
constant memory.  Nothing keeps a second copy for windows: a reader marks a
histogram by its ``count`` and summarises ``snapshot(since=mark)``, the way
it marks a counter by its ``value``.

An instrument is bound once, where its component is built
(``self._c_x = metrics.counter(NAME)`` in ``__init__``), and the request
path increments the bound object.  The registry's get-or-create lookup
serves that set-up and the admin reports; ``tests/unit/
test_metrics_binding.py`` fails on a lookup anywhere else.
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
    result to a module-level constant and bind the instrument once).  The
    registry itself stays name-agnostic — tests and scratch code can
    register short ad-hoc names.
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

    A histogram is its observations in arrival order, every one kept
    (deterministic, exact).  Percentiles use linear interpolation between
    closest ranks, matching ``numpy.percentile``'s default, so report
    numbers are stable across implementations.  A reader that wants only
    what arrived since some earlier point remembers :attr:`count` then and
    asks for ``snapshot(since=count)`` — that is how the telemetry exporter
    cuts its windows.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        count = self.count
        if not count:
            return 0.0
        return self.total / count

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def percentile(self, pct: float) -> float:
        """Return the ``pct``-th percentile (0-100) of observations."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self._values:
            return 0.0
        return _ranked(sorted(self._values), pct)

    def snapshot(self, since: int = 0) -> dict[str, float]:
        """Summary dict (count/mean/min/p50/p95/p99/max) for reports.

        ``since`` skips the first ``since`` observations, so the summary
        covers only what arrived after a reader noted :attr:`count`.
        """
        window = self._values[since:]
        if not window:
            return dict(_EMPTY_SUMMARY)
        window.sort()
        return {
            "count": float(len(window)),
            "mean": math.fsum(window) / len(window),
            "min": window[0],
            "p50": _ranked(window, 50),
            "p95": _ranked(window, 95),
            "p99": _ranked(window, 99),
            "max": window[-1],
        }

    def reset(self) -> None:
        """Drop all observations in place (the instrument object survives)."""
        self._values.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.6g})"


#: What ``snapshot()`` reports for a histogram with no observations.
_EMPTY_SUMMARY = {
    "count": 0.0, "mean": 0.0, "min": 0.0,
    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
}


def _ranked(ordered: list[float], pct: float) -> float:
    """The ``pct``-th percentile of a non-empty ascending list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    blend = ordered[low] * (1 - frac) + ordered[high] * frac
    # Rounding can land one ulp outside the two samples it blends.
    return min(max(blend, ordered[low]), ordered[high])


class MetricsRegistry:
    """Namespace of metrics, created on first use.

    A metric name identifies one instrument; asking for the same name with a
    different type is an error, which catches typos early.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._resets = 0

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

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

    @property
    def resets(self) -> int:
        """How many times :meth:`reset` has run.  A reader that keeps marks
        against instrument values (the telemetry exporter) drops them when
        this moves, since every value went back to zero."""
        return self._resets

    def reset(self) -> None:
        """Zero every instrument in place.

        Components bind their instruments where they are built (the request
        path pays only an attribute load), so dropping entries from the
        registry would leave those bound references diverged from what the
        registry reports.  Resetting in place keeps both views the same
        objects.
        """
        for metric in self._metrics.values():
            metric.reset()
        self._resets += 1
