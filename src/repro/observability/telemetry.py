"""Self-hosted telemetry: Liquid monitors itself through its own feeds.

At LinkedIn the monitoring data itself flowed through the nearline layer
(§5.1 "operational analysis"); the Kafka design-patterns survey
(arXiv:2512.16146) documents metrics-over-the-log as the standard
production pattern.  This module closes that loop for the simulator: a
:class:`TelemetryExporter` runs on a deterministic sim-clock cadence and
publishes, through an **ordinary producer** into **reserved system feeds**,

- per-instrument *deltas* of the metrics registry (counter/gauge high-water
  marks, :meth:`Histogram.delta_snapshot` windows) into
  ``__telemetry.metrics``;
- spans drained from the installed tracer into ``__telemetry.spans``;
- edge-triggered SLO alerts from an attached :class:`SloMonitor` into
  ``__telemetry.alerts``.

Because the records travel ordinary feeds, "the monitor is just another
job": anything that can consume a feed can consume the telemetry.

**No feedback loop.**  Exporting telemetry itself moves metrics (produce
counters, wire bytes, broker latencies).  Two guards keep the exporter from
amplifying itself: instruments in the ``observability.telemetry.*``
namespace are never exported, and after each cycle's sends the exporter
*absorbs* every delta its own traffic just generated (re-marks counters and
gauges, discards histogram windows) — sound because the simulator is
single-threaded, so nothing else can move a metric between the snapshot and
the absorb.  The tracer is uninstalled around the sends so telemetry
produces never create spans.

**Transparency.**  The exporter fires from sim-clock timers during
``cluster.tick`` and its produces never advance the clock, so a job's
drained output is byte-identical with telemetry enabled or disabled (pinned
by ``tests/properties/test_telemetry_transparency.py``).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.common.clock import SimClock, TimerHandle
from repro.common.errors import ConfigError
from repro.common.metrics import Counter, Gauge, Histogram, metric_name
from repro.observability.slo import ClusterSloSampler, SloMonitor
from repro.observability.trace import current_tracer, install_tracer, uninstall_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.messaging.cluster import MessagingCluster
    from repro.observability.trace import Span, Tracer

#: Reserved system feeds.  The ``__`` prefix marks them as system-owned
#: (same convention as the offsets topic); ``Liquid.create_feed`` refuses
#: user feeds in this namespace.
TELEMETRY_PREFIX = "__telemetry."
TELEMETRY_METRICS_FEED = "__telemetry.metrics"
TELEMETRY_SPANS_FEED = "__telemetry.spans"
TELEMETRY_ALERTS_FEED = "__telemetry.alerts"

TELEMETRY_FEEDS = (
    TELEMETRY_METRICS_FEED,
    TELEMETRY_SPANS_FEED,
    TELEMETRY_ALERTS_FEED,
)


def is_telemetry_feed(name: str) -> bool:
    """True for the reserved ``__telemetry.*`` namespace."""
    return name.startswith(TELEMETRY_PREFIX)


#: The exporter's own instruments — excluded from export by namespace.
_SELF_NAMESPACE = "observability.telemetry."
_M_CYCLES = metric_name("observability", "telemetry", "export_cycles")
_M_METRIC_RECORDS = metric_name("observability", "telemetry", "metric_records")
_M_SPAN_RECORDS = metric_name("observability", "telemetry", "span_records")
_M_ALERT_RECORDS = metric_name("observability", "telemetry", "alert_records")


def span_record(span: "Span") -> dict[str, Any]:
    """Wire shape of one drained span."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attrs": {str(k): v for k, v in sorted(span.attrs.items())},
    }


class TelemetryExporter:
    """Publishes metric deltas, spans, and alerts into the telemetry feeds.

    Cadence is a :class:`SimClock` timer (``start`` / ``stop``), so export
    points are deterministic; ``publish_once`` is also callable directly
    for one-shot exports (end of run, tests).
    """

    def __init__(
        self,
        cluster: "MessagingCluster",
        interval: float = 5.0,
        tracer: "Tracer | None" = None,
        slo_monitor: SloMonitor | None = None,
        sampler: ClusterSloSampler | None = None,
        partitions: int = 1,
        replication_factor: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"telemetry interval must be > 0, got {interval}")
        if not isinstance(cluster.clock, SimClock):
            raise ConfigError("TelemetryExporter needs the cluster's SimClock")
        if sampler is not None and slo_monitor is None:
            slo_monitor = sampler.monitor
        self.cluster = cluster
        self.interval = interval
        self.slo_monitor = slo_monitor
        self.sampler = sampler
        self._tracer = tracer
        self._partitions = partitions
        self._replication_factor = replication_factor
        self._ensure_feeds()
        # Runtime import: producer imports this package's trace module.
        from repro.messaging.config import ProducerConfig
        from repro.messaging.producer import Producer

        # Linger high and flush once per cycle: each cycle's records land
        # as one batch per feed, so a cycle costs O(instruments), not
        # O(records), appends.
        self._producer = Producer(cluster, ProducerConfig(linger_messages=500))
        #: Counter/gauge high-water marks: name -> last exported value.
        self._marks: dict[str, float] = {}
        self._timer: TimerHandle | None = None
        self.running = False
        self.cycles = 0
        self.records_published = 0
        metrics = cluster.metrics
        self._c_cycles = metrics.counter(_M_CYCLES)
        self._c_metric_records = metrics.counter(_M_METRIC_RECORDS)
        self._c_span_records = metrics.counter(_M_SPAN_RECORDS)
        self._c_alert_records = metrics.counter(_M_ALERT_RECORDS)

    # -- feeds -------------------------------------------------------------------

    def _ensure_feeds(self) -> None:
        from repro.messaging.topic import TopicConfig

        replication = self._replication_factor
        if replication is None:
            replication = min(3, len(self.cluster.brokers()))
        existing = set(self.cluster.topics())
        for feed in TELEMETRY_FEEDS:
            if feed not in existing:
                self.cluster.create_topic(TopicConfig(
                    name=feed,
                    num_partitions=self._partitions,
                    replication_factor=replication,
                ))

    # -- scheduling --------------------------------------------------------------

    def start(self) -> None:
        """Begin exporting every ``interval`` simulated seconds."""
        if self.running:
            return
        self.running = True
        self._schedule_next()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        self._timer = self.cluster.clock.schedule(self.interval, self._fire)

    def _fire(self) -> None:
        if not self.running:
            return
        self.publish_once()
        if self.running:
            self._schedule_next()

    # -- one export cycle --------------------------------------------------------

    def publish_once(self) -> dict[str, int]:
        """Export one cycle; returns record counts per feed."""
        now = self.cluster.clock.now()
        if self.sampler is not None:
            self.sampler.sample(now)
        metric_records = self._collect_metric_deltas(now)
        spans = self._drain_spans()
        alerts = (
            self.slo_monitor.evaluate(now)
            if self.slo_monitor is not None
            else []
        )
        published = len(metric_records) + len(spans) + len(alerts)
        if published:
            with self._tracing_suppressed():
                for record in metric_records:
                    self._producer.send(
                        TELEMETRY_METRICS_FEED,
                        record,
                        key=record["metric"],
                        timestamp=now,
                    )
                for span in spans:
                    self._producer.send(
                        TELEMETRY_SPANS_FEED,
                        span_record(span),
                        key=span.trace_id,
                        timestamp=now,
                    )
                for alert in alerts:
                    self._producer.send(
                        TELEMETRY_ALERTS_FEED,
                        dataclasses.asdict(alert),
                        key=alert.slo,
                        timestamp=now,
                    )
                self._producer.flush()
        self.cycles += 1
        self.records_published += published
        self._c_cycles.increment()
        self._c_metric_records.increment(len(metric_records))
        self._c_span_records.increment(len(spans))
        self._c_alert_records.increment(len(alerts))
        if published:
            # Feedback-loop guard, part 2: everything that moved since the
            # snapshot above was moved by our own sends (single-threaded
            # sim), so absorb it — next cycle exports only non-telemetry
            # activity.  (An empty cycle sent nothing: skip the walk.)
            self._absorb_own_traffic()
        return {
            "metrics": len(metric_records),
            "spans": len(spans),
            "alerts": len(alerts),
        }

    # -- collection --------------------------------------------------------------

    def _collect_metric_deltas(self, now: float) -> list[dict[str, Any]]:
        records: list[dict[str, Any]] = []
        marks = self._marks
        for name in self.cluster.metrics.names():
            if name.startswith(_SELF_NAMESPACE):
                continue  # feedback-loop guard, part 1
            metric = self.cluster.metrics.get(name)
            if isinstance(metric, Counter):
                delta = metric.value - marks.get(name, 0.0)
                if delta == 0.0:
                    continue
                marks[name] = metric.value
                records.append({
                    "metric": name,
                    "kind": "counter",
                    "delta": delta,
                    "value": metric.value,
                    "timestamp": now,
                })
            elif isinstance(metric, Gauge):
                if marks.get(name) == metric.value:
                    continue
                marks[name] = metric.value
                records.append({
                    "metric": name,
                    "kind": "gauge",
                    "value": metric.value,
                    "timestamp": now,
                })
            elif isinstance(metric, Histogram):
                window = metric.delta_snapshot()
                if window["count"] == 0:
                    continue
                records.append({
                    "metric": name,
                    "kind": "histogram",
                    "timestamp": now,
                    **window,
                })
        return records

    def _drain_spans(self) -> list["Span"]:
        tracer = self._tracer if self._tracer is not None else current_tracer()
        if tracer is None:
            return []
        drained = tracer.drain()
        # Defense in depth: tracing is suppressed around our own sends, but
        # never ship a span about telemetry traffic even if one sneaks in.
        return [
            span
            for span in drained
            if not is_telemetry_feed(str(span.attrs.get("topic", "")))
        ]

    def _absorb_own_traffic(self) -> None:
        marks = self._marks
        for name in self.cluster.metrics.names():
            metric = self.cluster.metrics.get(name)
            if isinstance(metric, (Counter, Gauge)):
                marks[name] = metric.value
            elif isinstance(metric, Histogram):
                metric.discard_delta()

    @contextmanager
    def _tracing_suppressed(self) -> Iterator[None]:
        tracer = current_tracer()
        if tracer is None:
            yield
            return
        uninstall_tracer()
        try:
            yield
        finally:
            install_tracer(tracer)
