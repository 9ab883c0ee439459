#!/usr/bin/env python3
"""Chaos day: a seeded fault storm against the messaging layer (§4.3, §5).

LinkedIn's Liquid deployment runs ~300 brokers; at that scale broker
crashes, leadership churn and replication stalls are daily weather, not
incidents.  This example compresses a "chaos day" into a few simulated
minutes: a :class:`ChaosSchedule` derives the whole storm from ONE seed, an
idempotent acks=all producer and a committing consumer group work through
it, and a :class:`ChaosReport` audits the invariants that make the paper's
nearline guarantees real:

* no acknowledged record is lost,
* committed consumer offsets never move backwards,
* idempotent dedup holds (retries never double-append).

Because every random draw comes from the seed, re-running this script
replays the exact same storm — the printed trace is byte-for-byte stable.

Run:  python examples/chaos_day.py
"""

from repro.chaos import ChaosConfig, ChaosReport, ChaosSchedule
from repro.common.clock import SimClock
from repro.common.errors import MessagingError
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer

SEED = 20150107  # CIDR'15, day one
HORIZON = 30.0


def main() -> None:
    cluster = MessagingCluster(num_brokers=5, clock=SimClock())
    cluster.create_topic(
        "events", num_partitions=4, replication_factor=3,
        min_insync_replicas=2,
    )
    schedule = ChaosSchedule(
        cluster, seed=SEED, topics=["events"],
        config=ChaosConfig(horizon=HORIZON),
    )
    plan = schedule.install()
    print(f"seed {SEED}: {len(plan)} faults planned over {HORIZON:.0f}s")

    report = ChaosReport()
    producer = Producer(
        cluster,
        ProducerConfig(
            acks=ACKS_ALL,
            idempotent=True,
            max_retries=2,
            retry_jitter_seed=SEED,
        ),
    )
    coordinator = GroupCoordinator(cluster)
    consumer = Consumer(
        cluster, ConsumerConfig(group="dashboard"), group_coordinator=coordinator
    )
    consumer.subscribe(["events"])

    sent = 0
    while cluster.clock.now() < HORIZON:
        for _ in range(3):
            value = f"event-{sent}"
            sent += 1
            try:
                ack = producer.send("events", value, key=value)
                if ack is not None:
                    report.note_ack(ack.partition, ack, [value])
            except MessagingError as exc:
                report.note_error("produce", exc)  # parked, not lost
        try:
            consumer.poll(50)
            consumer.commit()
            for tp in consumer.assignment():
                report.note_commit("dashboard", tp, consumer.position(tp))
        except MessagingError as exc:
            report.note_error("consume", exc)
        cluster.tick(0.25)

    print("storm trace (first 8 fired events):")
    for line in schedule.trace()[:8]:
        print(f"  {line}")

    # Heal the cluster, then deliver everything the storm parked.
    schedule.heal()
    cluster.run_until_replicated()
    parked = {
        tp: [[v for (_k, v, _ts, _h) in entries] for _seq, entries in batches]
        for tp, batches in producer._failed_batches.items()
    }
    buffered = {
        tp: [v for (_k, v, _ts, _h) in buffer]
        for tp, buffer in producer._buffers.items()
    }
    for ack in producer.flush():
        tp = ack.partition
        values = parked[tp].pop(0) if parked.get(tp) else buffered.pop(tp)
        report.note_ack(tp, ack, values)
    cluster.run_until_replicated()

    summary = report.summary()
    print(
        f"sent {sent} records; {summary['acked_records']} acked, "
        f"{summary['duplicate_acks']} dedup hits, "
        f"{sum(summary['tolerated_errors'].values())} tolerated errors"
    )
    report.assert_invariants(cluster)
    print("invariants hold: no acked record lost, no commit regression, "
          "dedup intact")
    print("chaos day OK")


if __name__ == "__main__":
    main()
