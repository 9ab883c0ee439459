"""Ablation A3 — messaging-layer client quotas (§4.5 multi-tenancy).

"Multiple independent teams may be executing different applications on the
same cluster, leading to resource contention.  To retain a given
quality-of-service per application ... Liquid uses a resource management
layer that isolates resources on a per-application basis."

A bulk-loading "hog" application and a latency-sensitive "interactive"
application share the cluster.  Without a quota the hog runs at full speed;
with a byte-rate quota the broker throttles the hog's own acks — its
effective rate converges to the quota while the interactive client's latency
stays at the un-contended baseline in both cases (our simulator has no
shared-bandwidth contention; the measured claim is that throttling is
self-inflicted and precise).
"""

import pytest

from repro.common.clock import SimClock
from repro.common.records import estimate_size
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.quotas import ClientQuota

from reporting import attach, format_table, publish

PAYLOAD = {"blob": "x" * 400}
BULK_MESSAGES = 400
QUOTA_BYTES_PER_SEC = 50_000.0


def run_scenario(with_quota: bool) -> dict:
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("bulk", num_partitions=1, replication_factor=1)
    cluster.create_topic("interactive", num_partitions=1, replication_factor=1)
    if with_quota:
        cluster.quotas.set_quota(
            "bulk-loader", ClientQuota(produce_bytes_per_sec=QUOTA_BYTES_PER_SEC)
        )
    hog = Producer(cluster, ProducerConfig(client_id="bulk-loader"))
    interactive = Producer(cluster, ProducerConfig(client_id="dashboard"))

    hog_seconds = 0.0
    interactive_latencies = []
    for i in range(BULK_MESSAGES):
        ack = hog.send("bulk", PAYLOAD)
        hog_seconds += ack.latency
        clock.advance(ack.latency)  # the throttle delay is real time passing
        if i % 20 == 0:
            ping = interactive.send("interactive", {"q": i})
            interactive_latencies.append(ping.latency)
    payload_bytes = estimate_size(PAYLOAD)
    return {
        "hog_rate_bytes_per_sec": BULK_MESSAGES * payload_bytes / hog_seconds,
        "interactive_mean_ms": 1e3 * sum(interactive_latencies)
        / len(interactive_latencies),
        "throttle_events": cluster.quotas.throttle_events,
    }


def run_experiment() -> dict:
    results = {}
    rows = []
    for with_quota in (False, True):
        result = run_scenario(with_quota)
        results[with_quota] = result
        rows.append(
            [
                "on" if with_quota else "off",
                f"{result['hog_rate_bytes_per_sec']:,.0f}",
                result["throttle_events"],
                result["interactive_mean_ms"],
            ]
        )
    table = format_table(
        "A3  Per-client byte-rate quotas (simulated)",
        ["quota", "hog effective rate (B/s)", "throttle events",
         "interactive mean latency (ms)"],
        rows,
        notes=[
            f"hog quota = {QUOTA_BYTES_PER_SEC:,.0f} B/s; paper 4.5: "
            "per-application isolation at high cluster utilization",
        ],
    )
    publish("a3_client_quotas", table)
    return results


class TestA3Shape:
    def test_quota_caps_hog_rate_precisely(self):
        results = run_experiment()
        unthrottled = results[False]["hog_rate_bytes_per_sec"]
        throttled = results[True]["hog_rate_bytes_per_sec"]
        assert unthrottled > 5 * QUOTA_BYTES_PER_SEC
        # Converges to the configured quota (within 30%).
        assert throttled < 1.3 * QUOTA_BYTES_PER_SEC
        assert results[True]["throttle_events"] > 0
        assert results[False]["throttle_events"] == 0

    def test_neighbour_latency_unchanged(self):
        results = run_experiment()
        assert results[True]["interactive_mean_ms"] == pytest.approx(
            results[False]["interactive_mean_ms"], rel=0.05
        )


@pytest.mark.benchmark(group="a3")
def test_a3_throttled_produce_kernel(benchmark):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("bulk", num_partitions=1, replication_factor=1)
    cluster.quotas.set_quota(
        "bulk-loader", ClientQuota(produce_bytes_per_sec=QUOTA_BYTES_PER_SEC)
    )
    producer = Producer(cluster, ProducerConfig(client_id="bulk-loader"))

    def send_one():
        ack = producer.send("bulk", PAYLOAD)
        clock.advance(ack.latency)

    benchmark(send_one)
    attach(benchmark, quota_bytes_per_sec=QUOTA_BYTES_PER_SEC)
