"""E4 — §4.1: log compaction shrinks changelogs and speeds up recovery.

"performing log compaction not only reduces the changelog size, but it also
allows for faster recovery."

A stateful job maintains a keyed table under a Zipf update stream; the
update-per-key ratio is swept.  For each ratio we report the changelog size
before/after compaction and the simulated time to rebuild the task state
from it.
"""

import functools

import pytest

from repro.common.clock import SimClock
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.processing.state import changelog_topic_name
from repro.workloads.generators import KeyPool

from reporting import attach, format_table, publish

KEYS = 200
#: Updates per key.  The job ships each pass's net writes, so its changelog
#: already holds one record per key a pass touched; compaction's recovery
#: time win shows once the changelog holds many passes per key (between the
#: 50 and the 200 row).
UPDATE_RATIOS = [2, 10, 50, 200]


class TableTask:
    def init(self, context):
        self.table = context.store("table")

    def process(self, record, collector):
        self.table.put(record.key, record.value)


def build_job(updates: int) -> tuple[MessagingCluster, JobRunner]:
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("updates", num_partitions=1, replication_factor=1)
    producer = Producer(cluster)
    pool = KeyPool(KEYS, skew=0.9, seed=17)
    for i in range(updates):
        producer.send("updates", {"rev": i}, key=pool.pick())
    runner = JobRunner(
        JobConfig(
            name="table",
            inputs=["updates"],
            task_factory=TableTask,
            stores=[StoreConfig("table")],
            changelog_segment_messages=100,
        ),
        cluster,
    )
    runner.run_until_idle()
    runner.checkpoint()
    return cluster, runner


def changelog_stats(cluster) -> tuple[int, int]:
    topic = changelog_topic_name("table", "table")
    replica = cluster.broker(cluster.leader_of(topic, 0)).replica(topic_partition(topic))
    return replica.log.message_count, replica.log.size_bytes


def topic_partition(topic):
    from repro.common.records import TopicPartition

    return TopicPartition(topic, 0)


def run_one_ratio(ratio: int) -> dict:
    updates = KEYS * ratio
    cluster, runner = build_job(updates)
    before_msgs, before_bytes = changelog_stats(cluster)
    runner.crash()
    uncompacted = runner.recover()
    runner.checkpoint()

    cluster.broker(0).run_compaction()
    after_msgs, after_bytes = changelog_stats(cluster)
    runner.crash()
    compacted = runner.recover()

    live_keys = sum(len(t.stores["table"]) for t in runner.tasks())
    return {
        "ratio": ratio,
        "updates": updates,
        "live_keys": live_keys,
        "before_msgs": before_msgs,
        "after_msgs": after_msgs,
        "before_bytes": before_bytes,
        "after_bytes": after_bytes,
        "recovery_before_s": uncompacted.simulated_seconds,
        "recovery_after_s": compacted.simulated_seconds,
        "replayed_before": uncompacted.records_replayed,
        "replayed_after": compacted.records_replayed,
    }


@functools.cache  # both shape tests read the same sweep
def run_experiment() -> list[dict]:
    results = [run_one_ratio(ratio) for ratio in UPDATE_RATIOS]
    rows = [
        [
            r["ratio"],
            r["updates"],
            r["before_msgs"],
            r["after_msgs"],
            f"{r['before_bytes'] / max(1, r['after_bytes']):.1f}x",
            r["recovery_before_s"],
            r["recovery_after_s"],
        ]
        for r in results
    ]
    table = format_table(
        "E4  Changelog compaction: size and recovery time (simulated)",
        ["updates/key", "total updates", "changelog msgs",
         "after compaction", "size reduction", "recovery before (s)",
         "recovery after (s)"],
        rows,
        notes=[
            "paper: compaction 'reduces the changelog size ... allows for "
            "faster recovery' (4.1)",
            f"{KEYS} live keys, Zipf(0.9) update skew",
        ],
    )
    publish("e4_compaction", table)
    return results


class TestE4Shape:
    def test_compaction_bounds_changelog_by_live_keys(self):
        results = {r["ratio"]: r for r in run_experiment()}
        for ratio in (50, 200):
            row = results[ratio]
            # Compacted changelog is close to the live-key count, not the
            # update count (active segment may retain a few duplicates).
            assert row["after_msgs"] < 2.5 * row["live_keys"]
            assert row["after_msgs"] < row["before_msgs"] / 10
            # Recovery replays proportionally fewer records.
            assert row["replayed_after"] < row["replayed_before"] / 10
        # Compaction drops the rewritten segments' cached pages, so the
        # compacted replay reads cold while the uncompacted one reads warm.
        # At 50 updates/key the changelog is still small enough for the warm
        # replay to win; by 200 the compacted replay is faster.
        assert results[50]["recovery_after_s"] > results[50]["recovery_before_s"]
        assert results[200]["recovery_after_s"] < results[200]["recovery_before_s"]

    def test_reduction_grows_with_update_ratio(self):
        results = run_experiment()
        reductions = [
            r["before_msgs"] / max(1, r["after_msgs"]) for r in results
        ]
        assert reductions == sorted(reductions)

    def test_recovered_state_is_identical_regardless(self):
        cluster, runner = build_job(KEYS * 20)
        snapshot = {
            k: v for t in runner.tasks() for k, v in t.stores["table"].items()
        }
        cluster.broker(0).run_compaction()
        runner.crash()
        runner.recover()
        restored = {
            k: v for t in runner.tasks() for k, v in t.stores["table"].items()
        }
        assert restored == snapshot


@pytest.mark.benchmark(group="e4")
def test_e4_recovery_kernel(benchmark):
    cluster, runner = build_job(KEYS * 10)
    cluster.broker(0).run_compaction()

    def recover():
        runner.crash()
        return runner.recover().simulated_seconds

    simulated = benchmark.pedantic(recover, rounds=3, iterations=1)
    attach(benchmark, simulated_recovery_s=simulated)
