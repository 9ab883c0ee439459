"""E9 — §3.1: consumer-group semantics and load balancing.

"only one consumer within each consumer group receives a given message ...
All consumers in CG-2 read data from brokers as if it was a queue, which
helps load-balance the load across the consumers in a consumer group.  [And
across groups] one consumer of each subscribed consumer group is guaranteed
to receive the message."

Two measurements over a 4-partition topic:

* **scaling** — group size 1..8: aggregate drain throughput (simulated)
  grows with members up to the partition count, then plateaus (idle extras);
* **fan-out** — three independent groups each receive the full stream with
  per-group exactly-once delivery.
"""

import pytest

from repro.common.clock import SimClock
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer

from reporting import attach, format_table, publish

PARTITIONS = 4
MESSAGES = 2_000
GROUP_SIZES = [1, 2, 4, 8]


def loaded_cluster() -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=PARTITIONS, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL, linger_messages=20))
    for i in range(MESSAGES):
        producer.send("t", {"i": i}, key=f"k{i}")
    producer.flush()
    cluster.tick(0.1)
    return cluster


def drain_time(cluster: MessagingCluster, members: int) -> tuple[float, int]:
    """Simulated time for a group of `members` to drain the topic.

    Members poll round-robin; per round the drain time is the *slowest*
    member's poll latency (they work in parallel).
    """
    gc = GroupCoordinator(cluster)
    consumers = [
        Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        for _ in range(members)
    ]
    for consumer in consumers:
        consumer.subscribe(["t"])
    total = 0
    simulated = 0.0
    for _ in range(1000):
        round_latency = 0.0
        round_records = 0
        for consumer in consumers:
            batch = consumer.poll(100)
            round_records += len(batch)
            round_latency = max(round_latency, consumer.last_poll_latency)
        simulated += round_latency
        total += round_records
        if round_records == 0:
            break
    return simulated, total


def run_scaling() -> dict:
    rows = []
    throughputs = {}
    for members in GROUP_SIZES:
        cluster = loaded_cluster()
        simulated, consumed = drain_time(cluster, members)
        throughput = consumed / simulated
        throughputs[members] = throughput
        rows.append([members, consumed, simulated, f"{throughput:,.0f}"])
    table = format_table(
        f"E9a  Group drain throughput vs. members ({PARTITIONS} partitions, "
        "simulated)",
        ["members", "records", "drain time (s)", "throughput msg/s"],
        rows,
        notes=[
            "paper: queue semantics within a group load-balance consumers "
            "(3.1); parallelism is capped by the partition count",
        ],
    )
    publish("e9a_group_scaling", table)
    return throughputs


def run_fanout() -> dict:
    cluster = loaded_cluster()
    gc = GroupCoordinator(cluster)
    deliveries = {}
    for group in ("search", "recs", "metrics"):
        members = [
            Consumer(cluster, ConsumerConfig(group=group), group_coordinator=gc)
            for _ in range(2)
        ]
        for member in members:
            member.subscribe(["t"])
        coords = []
        for _ in range(100):
            round_total = 0
            for member in members:
                batch = member.poll(200)
                round_total += len(batch)
                coords.extend((r.partition, r.offset) for r in batch)
            if round_total == 0:
                break
        deliveries[group] = coords
    rows = [
        [group, len(coords), len(set(coords))]
        for group, coords in deliveries.items()
    ]
    table = format_table(
        "E9b  Fan-out: three independent groups, two members each",
        ["group", "records delivered", "distinct records"],
        rows,
        notes=[
            "paper: each subscribed group receives every message exactly "
            "once across its members (3.1)",
        ],
    )
    publish("e9b_group_fanout", table)
    return deliveries


class TestE9Shape:
    def test_throughput_scales_then_plateaus(self):
        throughputs = run_scaling()
        # Scaling up to the partition count helps substantially...
        assert throughputs[4] > 2.0 * throughputs[1]
        assert throughputs[2] > 1.4 * throughputs[1]
        # ...but extra members beyond partitions cannot help much.
        assert throughputs[8] < 1.5 * throughputs[4]

    def test_every_group_gets_everything_exactly_once(self):
        deliveries = run_fanout()
        for group, coords in deliveries.items():
            assert len(coords) == MESSAGES, group
            assert len(set(coords)) == MESSAGES, group


@pytest.mark.benchmark(group="e9")
def test_e9_drain_kernel(benchmark):
    def drain_with_four():
        cluster = loaded_cluster()
        return drain_time(cluster, 4)[0]

    simulated = benchmark.pedantic(drain_with_four, rounds=2, iterations=1)
    attach(benchmark, simulated_drain_s=simulated)
