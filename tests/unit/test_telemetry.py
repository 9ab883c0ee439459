"""The self-hosted telemetry exporter: deltas in, feeds out, no feedback.

Covers the tentpole guarantees: reserved-feed provisioning, counter
high-water-mark deltas, histogram delta windows, span drain, the
feedback-loop guard (telemetry never re-exports telemetry traffic), the
sim-clock cadence, and the facade wiring (``Liquid.enable_telemetry``).
"""

import pytest

from repro.common.errors import ConfigError, ReservedTopicError
from repro.common.metrics import metric_name
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.observability.slo import Slo, SloMonitor
from repro.observability.telemetry import (
    TELEMETRY_ALERTS_FEED,
    TELEMETRY_FEEDS,
    TELEMETRY_METRICS_FEED,
    TELEMETRY_SPANS_FEED,
    TelemetryExporter,
    is_telemetry_feed,
)
from repro.observability.trace import Tracer, install_tracer, uninstall_tracer


def drain(cluster, topic):
    records = []
    for tp in cluster.partitions_of(topic):
        offset = 0
        while True:
            result = cluster.fetch(topic, tp.partition, offset, 10_000)
            if not result.records:
                break
            records.extend(result.records)
            offset = result.next_offset
    return records


def metric_values(cluster, topic=TELEMETRY_METRICS_FEED):
    return [r.value for r in drain(cluster, topic)]


class TestFeedNaming:
    def test_reserved_names(self):
        assert is_telemetry_feed(TELEMETRY_METRICS_FEED)
        assert is_telemetry_feed(TELEMETRY_SPANS_FEED)
        assert is_telemetry_feed(TELEMETRY_ALERTS_FEED)
        assert not is_telemetry_feed("orders")
        assert not is_telemetry_feed("__liquid_offsets")

    def test_exporter_creates_the_feeds(self):
        cluster = MessagingCluster(num_brokers=3)
        TelemetryExporter(cluster)
        for feed in TELEMETRY_FEEDS:
            assert feed in cluster.topics()

    def test_exporter_reuses_existing_feeds(self):
        cluster = MessagingCluster(num_brokers=3)
        TelemetryExporter(cluster)
        TelemetryExporter(cluster)  # no TopicAlreadyExistsError

    def test_liquid_refuses_user_feeds_in_system_namespace(self):
        liquid = Liquid(num_brokers=1)
        with pytest.raises(ReservedTopicError):
            liquid.create_feed("__telemetry.rogue")
        with pytest.raises(ReservedTopicError):
            liquid.create_feed("__mine")

    def test_interval_must_be_positive(self):
        cluster = MessagingCluster(num_brokers=1)
        with pytest.raises(ConfigError):
            TelemetryExporter(cluster, interval=0.0)


class TestMetricDeltas:
    def test_counter_deltas_are_high_water_marks(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        counter = cluster.metrics.counter(metric_name("core", "demo", "events"))
        counter.increment(5)
        exporter.publish_once()
        counter.increment(2)
        exporter.publish_once()
        deltas = [
            (r["delta"], r["value"])
            for r in metric_values(cluster)
            if r["metric"] == "core.demo.events"
        ]
        assert deltas == [(5.0, 5.0), (2.0, 7.0)]

    def test_counter_delta_after_a_registry_reset_counts_from_zero(self):
        """Regression: the exporter kept its mark across
        ``registry.reset()``, so 10 -> reset -> 3 exported ``delta: -7.0``."""
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        counter = cluster.metrics.counter(metric_name("core", "demo", "events"))
        counter.increment(10)
        exporter.publish_once()
        cluster.metrics.reset()
        counter.increment(3)
        exporter.publish_once()
        deltas = [
            (r["delta"], r["value"])
            for r in metric_values(cluster)
            if r["metric"] == "core.demo.events"
        ]
        assert deltas == [(10.0, 10.0), (3.0, 3.0)]

    def test_unchanged_instruments_are_not_re_exported(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        counter = cluster.metrics.counter(metric_name("core", "demo", "events"))
        gauge = cluster.metrics.gauge(metric_name("core", "demo", "level"))
        counter.increment(1)
        gauge.set(4.0)
        exporter.publish_once()
        exporter.publish_once()  # nothing moved in between
        records = [
            r for r in metric_values(cluster)
            if r["metric"].startswith("core.demo.")
        ]
        assert len(records) == 2  # one per instrument, not per cycle

    def test_histogram_windows_are_fresh_per_cycle(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        histogram = cluster.metrics.histogram(
            metric_name("core", "demo", "latency")
        )
        histogram.observe_many([1.0, 2.0, 3.0])
        exporter.publish_once()
        histogram.observe_many([10.0])
        exporter.publish_once()
        windows = [
            (r["count"], r["max"])
            for r in metric_values(cluster)
            if r["metric"] == "core.demo.latency"
        ]
        assert windows == [(3.0, 3.0), (1.0, 10.0)]

    def test_gauge_exported_on_change_only(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        gauge = cluster.metrics.gauge(metric_name("core", "demo", "level"))
        gauge.set(1.0)
        exporter.publish_once()
        gauge.set(1.0)  # same value
        exporter.publish_once()
        gauge.set(2.0)
        exporter.publish_once()
        values = [
            r["value"]
            for r in metric_values(cluster)
            if r["metric"] == "core.demo.level"
        ]
        assert values == [1.0, 2.0]


class TestNoFeedbackLoop:
    def test_own_instruments_never_exported(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        cluster.metrics.counter(metric_name("core", "demo", "events")).increment()
        for _ in range(3):
            exporter.publish_once()
        exported = {r["metric"] for r in metric_values(cluster)}
        assert not any(m.startswith("observability.telemetry.") for m in exported)

    def test_telemetry_traffic_is_absorbed_not_amplified(self):
        """With no external activity, the metric feed goes quiet even though
        each export cycle itself produces records (which move messaging
        counters).  Without the absorb step every cycle would re-export the
        previous cycle's own produce counters, forever."""
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        cluster.metrics.counter(metric_name("core", "demo", "events")).increment()
        counts = [exporter.publish_once()["metrics"] for _ in range(4)]
        assert counts[0] > 0
        assert counts[1:] == [0, 0, 0]

    def test_spans_about_telemetry_feeds_never_ship(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        tracer = install_tracer(Tracer())
        try:
            producer = Producer(cluster)
            cluster.create_topic("orders", num_partitions=1, replication_factor=1)
            producer.send("orders", {"i": 1})
            exporter.publish_once()
            exporter.publish_once()
            shipped = drain(cluster, TELEMETRY_SPANS_FEED)
            topics = {r.value.get("attrs", {}).get("topic") for r in shipped}
            assert not any(
                t and is_telemetry_feed(t) for t in topics
            )
            assert len(tracer.spans()) == 0  # drained, and sends made no spans
        finally:
            uninstall_tracer()


class TestSpanExport:
    def test_spans_drained_exactly_once(self):
        cluster = MessagingCluster(num_brokers=1)
        cluster.create_topic("orders", num_partitions=1, replication_factor=1)
        exporter = TelemetryExporter(cluster)
        tracer = install_tracer(Tracer())
        try:
            Producer(cluster).send("orders", {"i": 1})
            first = exporter.publish_once()["spans"]
            second = exporter.publish_once()["spans"]
            assert first > 0
            assert second == 0
            shipped = drain(cluster, TELEMETRY_SPANS_FEED)
            assert len(shipped) == first
            record = shipped[0].value
            assert set(record) >= {
                "trace_id", "span_id", "parent_id", "name",
                "start", "end", "duration", "attrs",
            }
        finally:
            uninstall_tracer()


class TestAlertExport:
    def test_alert_record_keeps_its_wire_shape(self):
        """An ``__telemetry.alerts`` record is the alert's fields, key for
        key and in declaration order."""
        cluster = MessagingCluster(num_brokers=1)
        monitor = SloMonitor(cluster.clock)
        monitor.register(Slo(
            name="latency", signal="p99_seconds", objective=1.0,
            error_budget=0.5, burn_threshold=1.6, clear_threshold=0.8,
        ))
        monitor.observe("latency", 9.0)
        exporter = TelemetryExporter(cluster, slo_monitor=monitor)
        assert exporter.publish_once()["alerts"] == 1
        [record] = drain(cluster, TELEMETRY_ALERTS_FEED)
        assert record.key == "latency"
        assert list(record.value.items()) == [
            ("slo", "latency"),
            ("signal", "p99_seconds"),
            ("state", "firing"),
            ("burn_short", 2.0),
            ("burn_long", 2.0),
            ("timestamp", 0.0),
            ("reason", "burn 2.00x/2.00x >= 1.60x in both windows"),
        ]


class TestCadence:
    def test_exports_on_the_sim_clock(self):
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster, interval=5.0)
        counter = cluster.metrics.counter(metric_name("core", "demo", "events"))
        exporter.start()
        counter.increment()
        cluster.tick(4.9)  # not due yet
        assert exporter.cycles == 0
        cluster.tick(0.2)
        assert exporter.cycles == 1
        cluster.tick(10.0)
        assert exporter.cycles == 3
        exporter.stop()
        cluster.tick(20.0)
        assert exporter.cycles == 3

    def test_publish_timestamps_are_deterministic(self):
        def run():
            cluster = MessagingCluster(num_brokers=1)
            exporter = TelemetryExporter(cluster, interval=1.0)
            exporter.start()
            counter = cluster.metrics.counter(
                metric_name("core", "demo", "events")
            )
            for _ in range(3):
                counter.increment()
                cluster.tick(1.0)
            return [
                (r.offset, r.key, r.value, r.timestamp)
                for r in drain(cluster, TELEMETRY_METRICS_FEED)
            ]

        assert run() == run()


class TestLiquidFacade:
    def test_enable_telemetry_registers_feeds(self):
        liquid = Liquid(num_brokers=3)
        exporter = liquid.enable_telemetry(interval=1.0)
        assert liquid.telemetry is exporter
        for feed in TELEMETRY_FEEDS:
            assert feed in liquid.feeds
            assert liquid.feed(feed).is_source_of_truth

    def test_monitoring_job_can_consume_telemetry(self):
        """The monitor is just another job: __telemetry.metrics is a legal
        job input once telemetry is enabled."""
        from repro.processing.job import JobConfig

        class _CountMetrics:
            def process(self, record, collector):
                collector.send("rollups", 1, key=record.value["metric"])

        liquid = Liquid(num_brokers=1)
        liquid.enable_telemetry(interval=1.0)
        liquid.create_feed("source", partitions=1)
        producer = liquid.producer()
        for i in range(5):
            producer.send("source", {"i": i})
        producer.flush()
        liquid.tick(1.5)  # one export cycle
        runner = liquid.submit_job(
            JobConfig(
                name="monitor",
                inputs=[TELEMETRY_METRICS_FEED],
                task_factory=_CountMetrics,
            ),
            outputs=["rollups"],
        )
        runner.run_until_idle()
        assert runner.records_processed > 0
        assert drain(liquid.cluster, "rollups")
