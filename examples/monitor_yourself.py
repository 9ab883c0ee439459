#!/usr/bin/env python3
"""Monitoring Liquid with Liquid: the telemetry pipeline eats its own tail.

Liquid's operability story is self-hosted: the exporter snapshots metric
deltas and spans on the sim clock and publishes them into reserved
``__telemetry.*`` feeds — which are ordinary feeds, so the monitoring
stack is *just another Liquid job*.  This example wires the full loop:

1. A workload job (``enrich``) processes a page-view feed.
2. ``liquid.enable_telemetry(with_slos=True)`` starts the exporter and
   the standard SLOs (freshness, lag, ISR availability, standbys).
3. A monitoring job consumes ``__telemetry.metrics`` and rolls up the
   worst p99 per histogram — dogfood analytics over telemetry records.
4. A broker is killed: the ISR-availability SLO burns, a FIRING alert
   lands in ``__telemetry.alerts``, and the health report degrades.
5. The broker returns; the alert RESOLVES and health goes green again.

Run:  python examples/monitor_yourself.py
"""

from repro import JobConfig, Liquid, StoreConfig
from repro.common.records import TopicPartition
from repro.observability.health import evaluate_cluster_health
from repro.observability.slo import ALERT_FIRING, ALERT_RESOLVED
from repro.observability.telemetry import (
    TELEMETRY_ALERTS_FEED,
    TELEMETRY_METRICS_FEED,
)

EXPORT_INTERVAL = 5.0


class EnrichTask:
    """The workload under observation: plain per-record enrichment."""

    def process(self, record, collector) -> None:
        view = record.value
        collector.send(
            "sessions",
            {"user": view["user"], "page": view["page"], "ok": True},
            key=view["user"],
        )


class P99RollupTask:
    """The monitor: worst p99 per histogram metric, from telemetry records."""

    def init(self, context) -> None:
        self.worst = context.store("worst_p99")

    def process(self, record, collector) -> None:
        payload = record.value
        if payload.get("kind") != "histogram":
            return
        metric, p99 = payload["metric"], payload["p99"]
        if p99 > (self.worst.get(metric) or -1.0):
            self.worst.put(metric, p99)
            collector.send(
                "p99-rollups", {"metric": metric, "p99": p99}, key=metric
            )


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


def main() -> None:
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("page-views", partitions=2)
    liquid.submit_job(
        JobConfig(name="enrich", inputs=["page-views"], task_factory=EnrichTask),
        outputs=["sessions"],
    )
    liquid.enable_telemetry(interval=EXPORT_INTERVAL, with_slos=True)
    monitor = liquid.submit_job(
        JobConfig(
            name="monitor",
            inputs=[TELEMETRY_METRICS_FEED],
            task_factory=P99RollupTask,
            stores=[StoreConfig("worst_p99")],
        ),
        outputs=["p99-rollups"],
    )
    exporter = liquid.telemetry
    slos = exporter.slo_monitor

    # -- steady state: traffic flows, telemetry exports, monitor rolls up --
    producer = liquid.producer()
    for wave in range(3):
        for i in range(40):
            producer.send(
                "page-views",
                {"user": f"u{i % 7}", "page": f"/p/{i % 5}", "wave": wave},
                key=f"u{i % 7}",
            )
        producer.flush()
        liquid.tick(1.0)  # let the wave age so record_age is visible
        liquid.process_available()
        liquid.tick(EXPORT_INTERVAL)  # at least one export cycle per wave
    monitor.run_until_idle()

    rollups = {r.key: r.value["p99"] for r in drain(liquid.cluster, "p99-rollups")}
    print(f"telemetry export cycles:    {exporter.cycles}")
    print(f"histogram metrics rolled up: {len(rollups)}")
    age = "processing.job.enrich.record_age"
    assert age in rollups, "the workload's latency histogram must be rolled up"
    print(f"  worst {age} p99 = {rollups[age]:.3f}s")

    report = evaluate_cluster_health(
        liquid.cluster, runners=liquid.dataflow.runners()
    )
    print(f"health before the incident: {report.status}")
    assert report.status == "healthy"

    # -- incident: a broker dies; ISR availability burns; alert fires --
    liquid.cluster.kill_broker(1)
    liquid.tick(6 * EXPORT_INTERVAL)
    report = evaluate_cluster_health(
        liquid.cluster, runners=liquid.dataflow.runners()
    )
    print(f"health during the incident: {report.status} "
          f"({', '.join(report.reason_codes())})")
    assert report.status != "healthy"
    assert slos.is_firing("isr_availability")

    # -- recovery: broker returns, replicas heal, the alert resolves --
    liquid.cluster.restart_broker(1)
    liquid.cluster.run_until_replicated()
    liquid.tick(400.0)  # long-window burn drains below the clear threshold
    report = evaluate_cluster_health(
        liquid.cluster, runners=liquid.dataflow.runners()
    )
    print(f"health after recovery:      {report.status}")
    assert report.status == "healthy"
    assert not slos.is_firing("isr_availability")

    alerts = [
        r.value
        for r in drain(liquid.cluster, TELEMETRY_ALERTS_FEED)
        if r.value["slo"] == "isr_availability"
    ]
    states = [a["state"] for a in alerts]
    print(f"alert timeline for isr_availability: {states}")
    assert states == [ALERT_FIRING, ALERT_RESOLVED]

    # The alerts feed is itself queryable like any other feed.
    tp = TopicPartition(TELEMETRY_ALERTS_FEED, 0)
    print(f"alert records retained:     {liquid.cluster.end_offset(tp)}")
    print("OK")


if __name__ == "__main__":
    main()
