"""E5 — §4.3: availability under failures and the durability trade-off.

"This design guarantees that the messaging layer can tolerate up to N-1
failures with N brokers in the set of ISRs ... the maximum durability is
achieved when a lead broker sends data to all followers and waits for all
acknowledgments; the minimum durability is obtained if acknowledgments are
returned to clients immediately ... The chosen durability level impacts the
throughput and latency of the data integration stack."

Two sub-experiments:

* **durability sweep** — produce latency/throughput across acks ∈
  {none, leader, all} and replication factor ∈ {1, 3};
* **failover run** — leaders are killed mid-stream; acked messages must all
  survive, and the write-unavailability window is reported.  The ablation
  contrasts the plain at-least-once producer (duplicates possible on retry)
  with the idempotent producer (the paper's exactly-once "ongoing effort").
"""

import pytest

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import (
    ACKS_ALL,
    ACKS_LEADER,
    ACKS_NONE,
    MessagingCluster,
)
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer

from reporting import attach, format_table, publish

BATCH = 300


def produce_latency(acks: str, replication: int) -> tuple[float, float]:
    """Returns (mean latency s, throughput msg/s) for one ack mode."""
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=replication)
    producer = Producer(cluster, ProducerConfig(acks=acks))
    total = 0.0
    for i in range(BATCH):
        ack = producer.send("t", {"i": i})
        total += ack.latency
    return total / BATCH, BATCH / total


def run_durability_sweep() -> dict:
    rows = []
    latencies = {}
    for replication in (1, 3):
        for acks in (ACKS_NONE, ACKS_LEADER, ACKS_ALL):
            mean_latency, throughput = produce_latency(acks, replication)
            latencies[(acks, replication)] = mean_latency
            rows.append(
                [f"rf={replication}", acks, mean_latency * 1e3,
                 f"{throughput:,.0f}"]
            )
    table = format_table(
        "E5a  Durability/latency trade-off (simulated)",
        ["replication", "acks", "mean produce latency (ms)", "throughput msg/s"],
        rows,
        notes=[
            "paper: durability level impacts throughput and latency (4.3)",
        ],
    )
    publish("e5a_durability", table)
    return latencies


def run_failover_run(idempotent: bool) -> dict:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic(
        "t", num_partitions=1, replication_factor=3, min_insync_replicas=2
    )
    producer = Producer(
        cluster, ProducerConfig(acks=ACKS_ALL, max_retries=4, idempotent=idempotent)
    )
    acked = []
    kills = 0
    last_victim: int | None = None
    for i in range(200):
        if i in (60, 130):  # rolling leader kills mid-stream
            if last_victim is not None:
                cluster.restart_broker(last_victim)
                cluster.run_until_replicated()
            leader = cluster.leader_of("t", 0)
            cluster.kill_broker(leader)
            last_victim = leader
            kills += 1
            # Emulate the ambiguous-ack retry: the client re-sends its last
            # batch.  The plain producer appends it again (duplicate); the
            # idempotent producer replays the same sequence number and the
            # broker deduplicates.
            retry_entries = [(f"k{i - 1}", {"i": i - 1}, None, {})]
            tp = TopicPartition("t", 0)
            if idempotent:
                cluster.produce(
                    "t", 0, retry_entries, acks=ACKS_ALL,
                    producer_id=producer.producer_id,
                    producer_seq=producer._sequences.get(tp, 0),
                )
            else:
                cluster.produce("t", 0, retry_entries, acks=ACKS_ALL)
        producer.send("t", {"i": i}, key=f"k{i}")
        acked.append(i)
        cluster.tick(0.05)
    for broker_id in range(3):
        if broker_id not in cluster.controller.live_brokers():
            cluster.restart_broker(broker_id)
    cluster.run_until_replicated()
    records = cluster.fetch("t", 0, 0, max_messages=10_000).records
    values = [r.value["i"] for r in records]
    lost = [i for i in acked if i not in set(values)]
    duplicates = len(values) - len(set(values))
    return {
        "kills": kills,
        "acked": len(acked),
        "delivered": len(values),
        "lost": len(lost),
        "duplicates": duplicates,
        "retries": producer.retries,
    }


def run_failover_experiment() -> dict:
    plain = run_failover_run(idempotent=False)
    idem = run_failover_run(idempotent=True)
    rows = [
        ["at-least-once", plain["kills"], plain["acked"], plain["delivered"],
         plain["lost"], plain["duplicates"]],
        ["idempotent", idem["kills"], idem["acked"], idem["delivered"],
         idem["lost"], idem["duplicates"]],
    ]
    table = format_table(
        "E5b  Failover: leader kills mid-stream (acks=all, rf=3)",
        ["producer", "leader kills", "acked", "delivered", "acked lost",
         "duplicates"],
        rows,
        notes=[
            "paper: N-1 failure tolerance; at-least-once delivery with "
            "duplicates possible after failures; exactly-once is the "
            "'ongoing effort' (4.3)",
        ],
    )
    publish("e5b_failover", table)
    return {"plain": plain, "idempotent": idem}


class TestE5Shape:
    def test_durability_costs_latency(self):
        latencies = run_durability_sweep()
        # Within rf=3: none < leader < all.
        assert (
            latencies[(ACKS_NONE, 3)]
            < latencies[(ACKS_LEADER, 3)]
            < latencies[(ACKS_ALL, 3)]
        )
        # acks=all is costlier with more replicas to wait for.
        assert latencies[(ACKS_ALL, 3)] > latencies[(ACKS_ALL, 1)]

    def test_no_acked_loss_and_duplicate_behaviour(self):
        results = run_failover_experiment()
        assert results["plain"]["lost"] == 0
        assert results["idempotent"]["lost"] == 0
        # The naive retry duplicates; the idempotent producer does not.
        assert results["plain"]["duplicates"] > 0
        assert results["idempotent"]["duplicates"] == 0


@pytest.mark.benchmark(group="e5")
def test_e5_acks_all_kernel(benchmark):
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
    counter = iter(range(10**9))

    def produce_one():
        return producer.send("t", {"i": next(counter)}).latency

    simulated = benchmark(produce_one)
    attach(benchmark, simulated_latency_s=simulated)
