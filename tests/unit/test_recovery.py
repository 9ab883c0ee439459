"""Unit tests for changelog-based state recovery (§3.2, E4 mechanics)."""

from unittest import mock

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.processing.recovery import (
    SOURCE_CHANGELOG,
    SOURCE_STANDBY,
    RecoveryReport,
    RestoredStore,
    restore_job_state,
    restore_state,
)
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import LsmStore
from repro.serving.replica import StandbyReplica


class UpsertTask:
    def init(self, context):
        self.store = context.store("table")

    def process(self, record, collector):
        self.store.put(record.key, record.value)


def make_env(updates=60, keys=5):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("in", num_partitions=1, replication_factor=1)
    producer = Producer(cluster)
    for i in range(updates):
        producer.send("in", {"rev": i}, key=f"k{i % keys}")
    runner = JobRunner(
        JobConfig(
            name="j", inputs=["in"], task_factory=UpsertTask,
            stores=[StoreConfig("table")],
        ),
        cluster,
    )
    runner.run_until_idle()
    return clock, cluster, runner


class TestRestoreState:
    def test_restore_rebuilds_exact_state(self):
        _clock, cluster, runner = make_env()
        original = dict(runner.task(0).stores["table"].items())
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL))
        report = restore_state(cluster, "j", "table", 0, fresh)
        assert dict(fresh.items()) == original
        # One pass wrote 60 updates to 5 keys: the changelog holds its net
        # effect, one record per key.
        assert report.records_replayed == 5
        assert report.simulated_seconds > 0

    def test_restore_after_compaction_replays_less(self):
        """The E4 effect: compaction shrinks what recovery must replay."""
        _clock, cluster, runner = make_env(updates=60, keys=5)
        original = dict(runner.task(0).stores["table"].items())
        # Force segment rolls then compaction on the changelog topic.
        topic = changelog_topic_name("j", "table")
        broker = cluster.broker(0)
        removed = broker.run_compaction()
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL))
        report = restore_state(cluster, "j", "table", 0, fresh)
        assert dict(fresh.items()) == original  # same state...
        if removed:
            assert report.records_replayed < 60  # ...from fewer records

    def test_restore_clears_stale_state(self):
        _clock, cluster, _runner = make_env()
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL))
        fresh.put("stale", "leftover")
        restore_state(cluster, "j", "table", 0, fresh)
        assert fresh.get("stale") is None

    def test_restore_with_tombstones(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)

        class DeleteOddTask:
            def init(self, context):
                self.store = context.store("table")

            def process(self, record, collector):
                if record.value % 2:
                    self.store.delete(record.key)
                else:
                    self.store.put(record.key, record.value)

        producer = Producer(cluster)
        for i in range(10):
            producer.send("in", i, key=f"k{i % 3}")
        runner = JobRunner(
            JobConfig(
                name="d", inputs=["in"], task_factory=DeleteOddTask,
                stores=[StoreConfig("table")],
            ),
            cluster,
        )
        runner.run_until_idle()
        original = dict(runner.task(0).stores["table"].items())
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL))
        restore_state(cluster, "d", "table", 0, fresh)
        assert dict(fresh.items()) == original


    def test_restore_republishes_nothing(self):
        """Replayed entries go straight into the store: neither restore_state
        nor recover() appends one record to the changelog it reads."""
        _clock, cluster, runner = make_env()
        runner.checkpoint()
        tp = TopicPartition(changelog_topic_name("j", "table"), 0)
        end = cluster.end_offset(tp)
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL), changelog=tp)
        restore_state(cluster, "j", "table", 0, fresh)
        runner.crash()
        runner.recover()
        runner.run_until_idle()
        runner.checkpoint()
        cluster.tick(0.0)
        assert fresh.staged == {}
        assert cluster.end_offset(tp) == end

    def test_cold_restore_touches_no_standby(self):
        """A 0-standby job's recovery is the cold path only: no
        StandbyReplica is built or caught up, no serving.standby.* metric."""
        _clock, cluster, runner = make_env()
        runner.crash()
        with mock.patch.object(
            StandbyReplica, "__init__", side_effect=AssertionError
        ), mock.patch.object(
            StandbyReplica, "catch_up", side_effect=AssertionError
        ):
            report = runner.recover()
        assert [e.source for e in report.entries] == [SOURCE_CHANGELOG]
        assert report.records_replayed == 5
        assert not [
            name for name in cluster.metrics.names()
            if name.startswith("serving.standby.")
        ]


class TestInitRunsAfterRestore:
    """A task's init() sees its restored state, on both restore paths and
    whether the state comes back cold or from a promoted standby."""

    @pytest.mark.parametrize("standbys", [0, 1])
    @pytest.mark.parametrize("path", ["recover", "migrate_task"])
    def test_init_sees_the_restored_store(self, path, standbys):
        seen = []

        class InitProbe(UpsertTask):
            def init(self, context):
                super().init(context)
                seen.append(len(self.store))

        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        producer = Producer(cluster)
        for i in range(10):
            producer.send("in", i, key=f"k{i}")
        runner = JobRunner(
            JobConfig(
                name="init", inputs=["in"], task_factory=InitProbe,
                stores=[StoreConfig("table")], num_standby_replicas=standbys,
                window_interval=1.0,
            ),
            cluster,
        )
        runner.run_until_idle()
        runner.checkpoint()
        before = clock.now()
        if path == "recover":
            runner.crash()
            report = runner.recover()
            # Started before the clock is charged for the restore.
            assert runner.task(0).last_window_at == before
            assert clock.now() == before + report.simulated_seconds
        else:
            runner.migrate_task(0)
        assert seen == [0, 10]
        assert len(runner.task(0).stores["table"]) == 10


class TestRestoreJobState:
    def test_all_tasks_and_stores_restored(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=3, replication_factor=1)
        producer = Producer(cluster)
        for i in range(30):
            producer.send("in", {"rev": i}, key=f"k{i}")
        runner = JobRunner(
            JobConfig(
                name="multi", inputs=["in"], task_factory=UpsertTask,
                stores=[StoreConfig("table")],
            ),
            cluster,
        )
        runner.run_until_idle()
        runner.checkpoint()
        snapshot = [
            dict(instance.stores["table"].items()) for instance in runner.tasks()
        ]
        runner.crash()
        runner.recover()
        restored = [
            dict(instance.stores["table"].items()) for instance in runner.tasks()
        ]
        assert restored == snapshot
        assert sum(len(s) for s in restored) == 30


class TestRecoveryReportEntries:
    """The typed per-store entries a RecoveryReport carries."""

    def test_restore_state_records_one_entry(self):
        _clock, cluster, _runner = make_env()
        fresh = KeyValueState("table", LsmStore(DEFAULT_COST_MODEL))
        report = restore_state(cluster, "j", "table", 0, fresh)
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.store == "table"
        assert entry.task_id == 0
        assert entry.source == SOURCE_CHANGELOG
        assert entry.records_replayed == report.records_replayed
        assert entry.label == "table[0]"

    def test_job_restore_reports_every_task(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=2, replication_factor=1)
        producer = Producer(cluster)
        for i in range(20):
            producer.send("in", {"rev": i}, key=f"k{i}")
        runner = JobRunner(
            JobConfig(
                name="ent", inputs=["in"], task_factory=UpsertTask,
                stores=[StoreConfig("table")],
            ),
            cluster,
        )
        runner.run_until_idle()
        runner.checkpoint()
        report = restore_job_state(runner, runner.tasks())
        assert {(e.store, e.task_id) for e in report.entries} == {
            ("table", 0), ("table", 1),
        }
        assert all(e.source == SOURCE_CHANGELOG for e in report.entries)
        assert report.standby_promotions() == 0
        assert report.stores_restored == 2

    def test_standby_recovery_marks_entries_promoted(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        producer = Producer(cluster)
        for i in range(20):
            producer.send("in", {"rev": i}, key=f"k{i % 4}")
        runner = JobRunner(
            JobConfig(
                name="sb", inputs=["in"], task_factory=UpsertTask,
                stores=[StoreConfig("table")], num_standby_replicas=1,
            ),
            cluster,
        )
        runner.run_until_idle()
        runner.checkpoint()
        snapshot = dict(runner.task(0).stores["table"].items())
        runner.crash()
        report = runner.recover()
        assert dict(runner.task(0).stores["table"].items()) == snapshot
        assert [e.source for e in report.entries] == [SOURCE_STANDBY]
        assert report.standby_promotions() == 1
        # Standbys are caught up at the checkpoint, so the tail is empty.
        assert report.entries[0].records_replayed == 0

    def test_merge_accumulates_entries_and_totals(self):
        a = RecoveryReport()
        a.add(RestoredStore(
            store="s1", task_id=0, records_replayed=5, simulated_seconds=0.5,
        ))
        b = RecoveryReport()
        b.add(RestoredStore(
            store="s2", task_id=1, records_replayed=3, simulated_seconds=0.25,
            source=SOURCE_STANDBY, records_skipped=2,
        ))
        a.merge(b)
        assert a.records_replayed == 8
        assert a.simulated_seconds == 0.75
        assert a.stores_restored == 2
        assert a.standby_promotions() == 1
        assert [(e.label, e.records_replayed) for e in a.entries] == [
            ("s1[0]", 5),
            ("s2[1]", 3),
        ]
