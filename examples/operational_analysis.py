#!/usr/bin/env python3
"""Operational analysis: the paper's §5.1 monitoring use case.

"Analyzing operational data, such as metrics, alerts and logs, is crucial
to react to potential problems quickly ... With Liquid, integrating new
data, such as crash reports from mobile phones, is straightforward: all
data is transported by the messaging layer, which only needs to produce a
new metric."

Pipeline:

    ops-events ──(route by type)──> ops-metrics / ops-logs / ops-crashes
    ops-logs   ──(error-rate per host, stateful)──> host-error-rates
    ops-metrics──(running aggregates per metric)──> metric-aggregates

An error burst is injected on one host; the example verifies the burst host
tops the error-rate feed, and that the mobile-crash event type flowed
through with zero schema work (it was just routed to its own feed).

Run:  python examples/operational_analysis.py
"""

from collections import defaultdict

from repro import Liquid, JobConfig, StoreConfig
from repro.core import RouterTask
from repro.workloads import ErrorBurst, OperationalEventGenerator

BURST_HOST = "host-007"


class ErrorRateTask:
    """Per-host error/total counters; emits the rate on every error."""

    def init(self, context) -> None:
        self._store = context.store("counters")

    def process(self, record, collector) -> None:
        event = record.value
        host = event["host"]
        counts = self._store.get_or_default(host, {"total": 0, "errors": 0})
        counts = {
            "total": counts["total"] + 1,
            "errors": counts["errors"] + (1 if event["severity"] == "ERROR" else 0),
        }
        self._store.put(host, counts)
        if event["severity"] == "ERROR":
            collector.send(
                "host-error-rates",
                {
                    "host": host,
                    "errors": counts["errors"],
                    "total": counts["total"],
                    "rate": counts["errors"] / counts["total"],
                },
                key=host,
                timestamp=event["timestamp"],
            )


class MetricAggregateTask:
    """Running mean per (host, metric) pair."""

    def init(self, context) -> None:
        self._store = context.store("aggregates")

    def process(self, record, collector) -> None:
        event = record.value
        key = f"{event['host']}:{event['metric']}"
        agg = self._store.get_or_default(key, {"n": 0, "total": 0.0})
        agg = {"n": agg["n"] + 1, "total": agg["total"] + event["value"]}
        self._store.put(key, agg)
        collector.send(
            "metric-aggregates",
            {"key": key, "mean": agg["total"] / agg["n"], "n": agg["n"]},
            key=key,
            timestamp=event["timestamp"],
        )


def drain(liquid, topic: str, group: str) -> list:
    consumer = liquid.consumer(group=group)
    consumer.subscribe([topic])
    out = []
    while True:
        batch = consumer.poll(500)
        if not batch:
            break
        out.extend(batch)
    return out


def main() -> None:
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("ops-events", partitions=2)

    liquid.submit_job(
        JobConfig(
            name="route",
            inputs=["ops-events"],
            task_factory=lambda: RouterTask(
                lambda v: {
                    "metric": "ops-metrics",
                    "log": "ops-logs",
                    "mobile_crash": "ops-crashes",
                }.get(v["type"])
            ),
        ),
        outputs=["ops-metrics", "ops-logs", "ops-crashes"],
        description="route operational events by type",
    )
    liquid.submit_job(
        JobConfig(
            name="error-rates",
            inputs=["ops-logs"],
            task_factory=ErrorRateTask,
            stores=[StoreConfig("counters")],
        ),
        outputs=["host-error-rates"],
        description="per-host error rates",
    )
    liquid.submit_job(
        JobConfig(
            name="metric-agg",
            inputs=["ops-metrics"],
            task_factory=MetricAggregateTask,
            stores=[StoreConfig("aggregates")],
        ),
        outputs=["metric-aggregates"],
        description="running means per host+metric",
    )

    generator = OperationalEventGenerator(
        hosts=20,
        burst=ErrorBurst(BURST_HOST, at_time=10.0, error_rate=0.9),
        mobile_crash_fraction=0.02,
        seed=7,
    )
    producer = liquid.producer()
    for event in generator.events(5_000):
        producer.send("ops-events", event, key=event["host"],
                      timestamp=event["timestamp"])

    liquid.process_available()
    liquid.tick(0.1)

    # The burst host must dominate the error-rate feed.
    rates = drain(liquid, "host-error-rates", "sre-dashboard")
    last_rate: dict[str, float] = {}
    for record in rates:
        last_rate[record.value["host"]] = record.value["rate"]
    ranked = sorted(last_rate.items(), key=lambda kv: -kv[1])
    print(f"error-rate leaderboard: {[(h, round(r, 3)) for h, r in ranked[:3]]}")
    assert ranked[0][0] == BURST_HOST, f"expected {BURST_HOST} on top"

    # Mobile crashes flowed through without any schema/migration work.
    crashes = drain(liquid, "ops-crashes", "mobile-team")
    by_os = defaultdict(int)
    for record in crashes:
        by_os[record.value["os"]] += 1
    print(f"{len(crashes)} mobile crash reports integrated "
          f"(by OS: {dict(by_os)}) — new data source, zero schema work")
    assert crashes

    aggregates = drain(liquid, "metric-aggregates", "viz-service")
    print(f"{len(aggregates)} aggregate updates feed the metrics visualizations")

    # The engineer terminal (Figure 1): inspect the stack itself.
    from repro.observability.health import evaluate_cluster_health, format_health
    from repro.tools import AdminClient

    report = evaluate_cluster_health(liquid.cluster)
    print("--- engineer terminal ---")
    print(format_health(report))
    lags = AdminClient(liquid.cluster).consumer_lag_report()
    visible = {g.group: g.total_lag for g in lags.groups
               if not g.group.startswith("job-")}
    print(f"consumer group lags: {visible}")
    assert report.healthy

    print("operational_analysis OK")


if __name__ == "__main__":
    main()
