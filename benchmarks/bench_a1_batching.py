"""Ablation A1 — producer batching: amortizing the per-request overhead.

The messaging layer's request overhead (RPC dispatch + RTT) dominates
single-record produces; batching amortizes it across records, which is how
the real system achieves the paper's "high-throughput writes".  This
ablation sweeps the producer's ``linger_messages`` and reports simulated
per-record cost and throughput.
"""

import pytest

from repro.common.clock import SimClock
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer

from reporting import attach, format_table, publish

MESSAGES = 2_000
LINGERS = [1, 10, 50, 200]


def produce_all(linger: int) -> float:
    """Simulated seconds to produce MESSAGES records with given batching."""
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=3)
    producer = Producer(
        cluster, ProducerConfig(acks=ACKS_LEADER, linger_messages=linger)
    )
    total = 0.0
    for i in range(MESSAGES):
        ack = producer.send("t", {"i": i})
        if ack is not None:
            total += ack.latency
    for ack in producer.flush():
        total += ack.latency
    return total


def run_experiment() -> dict:
    rows = []
    costs = {}
    for linger in LINGERS:
        total = produce_all(linger)
        costs[linger] = total
        rows.append(
            [linger, total, total / MESSAGES * 1e6, f"{MESSAGES / total:,.0f}"]
        )
    table = format_table(
        "A1  Producer batching sweep (simulated, acks=leader, rf=3)",
        ["linger (msgs/batch)", "total time (s)", "per-record cost (µs)",
         "throughput msg/s"],
        rows,
        notes=[
            "per-request overhead (RTT + dispatch) amortizes across the "
            "batch: the messaging layer's high-throughput write path",
        ],
    )
    publish("a1_batching", table)
    return costs


class TestA1Shape:
    def test_batching_amortizes_overhead(self):
        costs = run_experiment()
        assert costs[10] < costs[1] / 5
        assert costs[200] < costs[10]

    def test_all_records_delivered_regardless_of_batching(self):
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        producer = Producer(cluster, ProducerConfig(linger_messages=64))
        for i in range(333):
            producer.send("t", i)
        producer.flush()
        cluster.tick(0.0)
        result = cluster.fetch("t", 0, 0, max_messages=1000)
        assert [r.value for r in result.records] == list(range(333))


@pytest.mark.benchmark(group="a1")
def test_a1_batched_produce_kernel(benchmark):
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(linger_messages=50))
    counter = iter(range(10**9))

    def send_one():
        producer.send("t", {"i": next(counter)})

    benchmark(send_one)
    attach(benchmark, linger=50)
