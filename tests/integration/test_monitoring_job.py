"""Dogfooding: Liquid monitors Liquid.

The tentpole's proof-of-life — the telemetry feeds are ordinary feeds,
so the monitoring stack is just another Liquid job.  Two scenarios:

1. A monitoring job consumes ``__telemetry.metrics`` and computes p99
   rollups over the workload job's latency histograms, publishing them
   to a regular output feed.
2. Alert records survive a chaos retention storm on the alerts feed: old
   segments are deleted out from under a late consumer, which reseats at
   the surviving head and still reads the recent alerts.
"""

from repro.common.records import TopicPartition
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.topic import LogConfig, RetentionConfig, TopicConfig
from repro.observability.slo import ALERT_FIRING, ALERT_RESOLVED, Slo, SloMonitor
from repro.observability.telemetry import (
    TELEMETRY_ALERTS_FEED,
    TELEMETRY_METRICS_FEED,
    TelemetryExporter,
)
from repro.processing.job import JobConfig, JobRunner, StoreConfig


def drain(cluster, topic):
    records = []
    for tp in cluster.partitions_of(topic):
        offset = cluster.beginning_offset(tp)
        while True:
            result = cluster.fetch(topic, tp.partition, offset, 10_000)
            if not result.records:
                break
            records.extend(result.records)
            offset = result.next_offset
    return records


class _EnrichTask:
    def process(self, record, collector):
        collector.send("derived", {"v": record.value}, key=record.key)


class _P99Rollup:
    """The monitoring job: track worst p99 per histogram metric."""

    def init(self, context):
        self.worst = context.store("worst_p99")

    def process(self, record, collector):
        payload = record.value
        if payload.get("kind") != "histogram":
            return
        metric, p99 = payload["metric"], payload["p99"]
        previous = self.worst.get(metric)
        if previous is None or p99 > previous:
            self.worst.put(metric, p99)
            collector.send(
                "p99-rollups",
                {"metric": metric, "p99": p99, "at": payload["timestamp"]},
                key=metric,
            )


class TestDogfoodRollups:
    def test_monitoring_job_computes_p99_rollups(self):
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("orders", partitions=1)
        workload = liquid.submit_job(
            JobConfig(name="enrich", inputs=["orders"], task_factory=_EnrichTask),
            outputs=["derived"],
        )
        liquid.enable_telemetry(interval=1.0)
        monitor = liquid.submit_job(
            JobConfig(
                name="monitor",
                inputs=[TELEMETRY_METRICS_FEED],
                task_factory=_P99Rollup,
                stores=[StoreConfig("worst_p99")],
            ),
            outputs=["p99-rollups"],
        )
        producer = liquid.producer()
        for i in range(40):
            producer.send("orders", {"i": i}, key=f"k{i % 4}")
        producer.flush()
        liquid.process_available()   # workload runs, histograms move
        liquid.tick(1.5)             # exporter ships the metric window
        monitor.run_until_idle()     # the monitor is just another job

        assert workload.records_processed == 40
        rollups = {r.key: r.value for r in drain(liquid.cluster, "p99-rollups")}
        # The workload job's latency histogram made it through the loop:
        # observed in-process -> exported as a delta window -> rolled up.
        age_metric = "processing.job.enrich.record_age"
        assert age_metric in rollups
        assert rollups[age_metric]["p99"] >= 0.0
        # Rollups only describe histograms; counters were filtered out.
        assert all(r["p99"] >= 0.0 for r in rollups.values())

    def test_rollups_follow_fresh_windows(self):
        """A second burst re-exports a fresh delta window; a later, larger
        p99 updates the rollup (delta windows, not lifetime aggregates)."""
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("orders", partitions=1)
        liquid.submit_job(
            JobConfig(name="enrich", inputs=["orders"], task_factory=_EnrichTask),
            outputs=["derived"],
        )
        liquid.enable_telemetry(interval=1.0)
        monitor = liquid.submit_job(
            JobConfig(
                name="monitor",
                inputs=[TELEMETRY_METRICS_FEED],
                task_factory=_P99Rollup,
                stores=[StoreConfig("worst_p99")],
            ),
            outputs=["p99-rollups"],
        )
        producer = liquid.producer()
        producer.send("orders", {"i": 0}, key="k")
        producer.flush()
        liquid.process_available()
        liquid.tick(1.5)
        # Age the second burst: records linger before processing, so the
        # record_age window of burst two has a strictly larger p99.
        for i in range(10):
            producer.send("orders", {"i": i}, key="k")
        producer.flush()
        liquid.tick(30.0)
        liquid.process_available()
        liquid.tick(1.5)
        monitor.run_until_idle()
        age_records = [
            r.value
            for r in drain(liquid.cluster, "p99-rollups")
            if r.key == "processing.job.enrich.record_age"
        ]
        assert len(age_records) >= 2
        assert age_records[-1]["p99"] > age_records[0]["p99"]


class TestAlertsSurviveRetentionStorm:
    def test_late_consumer_reseats_and_reads_recent_alerts(self):
        cluster = MessagingCluster(num_brokers=1, maintenance_interval=1.0)
        # Chaos config: tiny segments, aggressive retention on the alerts
        # feed.  The exporter adopts the pre-created topic as-is.
        cluster.create_system_topic(
            TopicConfig(
                name=TELEMETRY_ALERTS_FEED,
                num_partitions=1,
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=5.0),
                log=LogConfig(segment_max_messages=2),
            )
        )
        monitor = SloMonitor(cluster.clock)
        monitor.register(
            Slo(
                name="latency",
                signal="p99_seconds",
                objective=1.0,
                short_window=2.0,
                long_window=4.0,
                error_budget=0.5,
                burn_threshold=1.6,
                clear_threshold=0.8,
            )
        )
        exporter = TelemetryExporter(cluster, interval=1.0, slo_monitor=monitor)
        exporter.start()
        # Ten incident/recovery cycles, one observation per second: every
        # cycle emits one FIRING and one RESOLVED alert record.
        for _ in range(10):
            for _ in range(6):
                monitor.observe("latency", 9.0)
                cluster.tick(1.0)
            for _ in range(8):
                monitor.observe("latency", 0.1)
                cluster.tick(1.0)
        assert monitor.alerts_emitted == 20
        tp = TopicPartition(TELEMETRY_ALERTS_FEED, 0)
        assert cluster.end_offset(tp) == 20
        # The storm already outran retention while alerts kept flowing.
        head = cluster.beginning_offset(tp)
        assert head > 0

        # A late consumer seats at "earliest": retention deleted its
        # nominal start, so it reseats at the surviving head and reads
        # the recent alerts without error.
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="earliest"))
        consumer.assign([tp])
        survivors = []
        while True:
            batch = consumer.poll()
            if not batch:
                break
            survivors.extend(batch)
        assert survivors, "the storm must not wipe out the live tail"
        assert len(survivors) < 20  # ...but it did delete old alerts
        assert survivors[0].offset == head
        states = [r.value["state"] for r in survivors]
        assert set(states) <= {ALERT_FIRING, ALERT_RESOLVED}
        # The most recent alert (the final recovery) survived the storm.
        assert survivors[-1].value["state"] == ALERT_RESOLVED
        assert survivors[-1].value["slo"] == "latency"
