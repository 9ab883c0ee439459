#!/usr/bin/env python3
"""Tiered storage: retention bounds the hot log, the archive keeps history.

A topic with a 1-hour retention window runs for a (simulated) day.  Without
tiering, everything older than an hour is gone; with archive-before-delete
retention, sealed segments move to the cold store (a simulated DFS — the
paper's batch-storage system doubling as the offline tier) and the full day
stays rewindable (§2.2): a consumer can seek to offset 0 and replay the
complete history, paying the cold-fetch cost model only for the archived
part of the scan.

Run:  python examples/tiered_backfill.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered import TieredConfig
from repro.tools.admin import AdminClient


def main() -> None:
    cluster = MessagingCluster(num_brokers=3, maintenance_interval=60.0)
    cluster.create_topic(
        TopicConfig(
            name="clicks",
            num_partitions=1,
            replication_factor=3,
            retention=RetentionConfig(retention_seconds=3600.0),  # 1 hour hot
            log=LogConfig(segment_max_messages=50),
            tiered=TieredConfig(),
        )
    )
    tp = TopicPartition("clicks", 0)

    # A day of traffic: one click per simulated minute.
    for minute in range(24 * 60):
        cluster.produce(
            "clicks", 0, [(f"user{minute % 7}", {"minute": minute}, None, {})],
            acks="all",
        )
        cluster.tick(60.0)
    cluster.run_until_replicated()
    cluster.tick(60.0)

    leader = cluster._leader_replica(tp)
    hot_start = leader.log.log_start_offset
    print(f"produced {cluster.log_end_offset(tp)} clicks over 24h")
    print(f"hot log holds offsets [{hot_start}, {cluster.log_end_offset(tp)}) "
          f"(~{(cluster.log_end_offset(tp) - hot_start)} newest)")
    print(f"archive holds offsets [0, {leader.cold_tier.manifest.end_offset}) "
          f"in {leader.cold_tier.manifest.segment_count} segments")

    # Rewind to the very beginning — before the hot log starts — and replay.
    consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=200))
    consumer.assign([tp])
    consumer.seek_to_beginning(tp)
    assert consumer.position(tp) == 0, "beginning_offset reaches the archive"

    replayed = []
    backfill_latency = 0.0
    while True:
        batch = consumer.poll()
        if not batch:
            break
        replayed.extend(batch)
        backfill_latency += consumer.last_poll_latency

    assert [r.offset for r in replayed] == list(range(24 * 60)), "complete history"
    assert [r.value["minute"] for r in replayed] == list(range(24 * 60))
    print(f"backfill replayed {len(replayed)} records "
          f"(simulated {backfill_latency:.2f}s — cold fetches dominate)")

    stats = leader.cold_tier.stats()
    print(f"cold tier: {stats['archived_bytes']}B archived, "
          f"hit ratio {stats['cold_hit_ratio']:.2f}")
    print(AdminClient(cluster).format_topic("clicks"))

    print("tiered backfill OK")


if __name__ == "__main__":
    main()
