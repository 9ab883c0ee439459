"""T1 — §2.2, §4.1: tiered storage keeps history rewindable past retention.

A tiered topic moves segments past retention to a cold tier instead of
destroying them.  Simulated time must show that its hot tail reads cost
exactly what an unbounded topic's do, that the first backfill from offset 0
pays at least one object-store fetch per archived segment while a repeat
serves from the hydration cache, and that the backfill returns the
unbounded topic's records (offset, key, value, timestamp).

400 records, 20 per segment, 5 s retention: the oldest 380 records (19
segments) are archived before the reads start.
"""

import functools

from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered import TieredConfig

from reporting import format_table, publish

MESSAGES = 400
PER_SEGMENT = 20
TP = TopicPartition("events", 0)


def build_cluster(tiered: bool) -> MessagingCluster:
    """``MESSAGES`` records; a tiered topic has archived the expired ones."""
    cluster = MessagingCluster(num_brokers=3, maintenance_interval=1.0)
    cluster.create_topic(TopicConfig(
        name="events", num_partitions=1, replication_factor=3,
        retention=RetentionConfig(retention_seconds=5.0 if tiered else None),
        log=LogConfig(segment_max_messages=PER_SEGMENT),
        tiered=TieredConfig() if tiered else None,
    ))
    for i in range(MESSAGES):
        cluster.produce(
            "events", 0, [(f"k{i}", {"i": i, "pad": "x" * 64}, None, {})],
            acks="all",
        )
        cluster.tick(1.0)
    cluster.run_until_replicated()
    for _ in range(10):
        cluster.tick(1.0)
    return cluster


def scan(cluster: MessagingCluster, start: int) -> tuple[list, float]:
    """Drain the partition from ``start``: (offset, key, value, timestamp)
    rows and the simulated seconds the fetches took."""
    rows, latency, cursor = [], 0.0, start
    while cursor < cluster.log_end_offset(TP):
        result = cluster.fetch("events", 0, cursor, max_messages=100)
        if not result.records:
            break
        rows += [(r.offset, r.key, r.value, r.timestamp) for r in result.records]
        latency += result.latency
        cursor = result.next_offset
    return rows, latency


@functools.cache  # every shape test reads the same run
def run_experiment() -> dict:
    tiered, unbounded = build_cluster(tiered=True), build_cluster(tiered=False)
    hot = tiered._leader_replica(TP).log.log_start_offset
    archived = tiered._leader_replica(TP).cold_tier.manifest.segment_count
    reads = [("hot tail scan", "unbounded", hot, scan(unbounded, hot)),
             ("hot tail scan", "tiered", hot, scan(tiered, hot)),
             ("backfill, first touch", "tiered", 0, scan(tiered, 0)),
             ("backfill, repeated", "tiered", 0, scan(tiered, 0)),
             ("full scan", "unbounded", 0, scan(unbounded, 0))]
    table = format_table(
        "T1  Tiered storage: hot vs cold reads and archive backfill (simulated)",
        ["read", "topic", "from offset", "records", "simulated s"],
        [[read, topic, start, len(rows), f"{seconds:.10g}"]
         for read, topic, start, (rows, seconds) in reads],
        notes=[
            f"{MESSAGES} msgs, {PER_SEGMENT}/segment; the tiered topic keeps "
            f"5 s and has archived {archived} segments",
            f"cold model: {DEFAULT_COST_MODEL.cold_fetch_overhead * 1e3:g} ms "
            f"per object-store fetch, "
            f"{DEFAULT_COST_MODEL.cold_read_bandwidth / 1e6:g} MB/s hydration",
            "paper: consumers rewind and re-process history (2.2); "
            "retention bounds the hot log (4.1)",
        ],
    )
    publish("t1_tiered", table)
    return {"archived": archived, "reads": [result for *_, result in reads]}


class TestT1Shape:
    """Each read is (rows, simulated seconds), in the table's order."""

    def test_hot_reads_unaffected(self):
        hot_unbounded, hot_tiered, _, _, _ = run_experiment()["reads"]
        assert hot_tiered[1] == hot_unbounded[1]

    def test_first_backfill_pays_a_cold_fetch_per_archived_segment(self):
        results = run_experiment()
        _, _, first, _, _ = results["reads"]
        assert results["archived"] >= 19
        assert first[1] >= (
            results["archived"] * DEFAULT_COST_MODEL.cold_fetch_overhead)

    def test_hydration_cache_effective(self):
        _, _, first, repeat, _ = run_experiment()["reads"]
        assert repeat[1] < first[1]

    def test_backfill_complete_and_identical(self):
        _, _, first, _, full = run_experiment()["reads"]
        assert len(first[0]) == MESSAGES
        assert first[0] == full[0]
