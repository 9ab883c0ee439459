"""Unit tests for exactly-once jobs: the transactional read-process-write
loop wired through the job runner (§3.2 + §4.3)."""

import pytest

from repro.chaos.failpoints import raising, registry
from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    JobConfigError,
    MessagingError,
    ProducerFencedError,
    TaskFailedError,
)
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.processing.checkpoint import CHANGELOG_OFFSETS_KEY
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
    transactional_id,
)
from repro.processing.state import changelog_topic_name


@pytest.fixture(autouse=True)
def _clean_failpoints():
    registry().disarm_all()
    yield
    registry().disarm_all()


class TagTask:
    """Emit each input back out on the same partition, tagged with the
    input offset — duplicates are then directly countable downstream."""

    def process(self, record, collector):
        collector.send(
            "out",
            {"offset": record.offset, "value": record.value},
            key=record.key,
            partition=record.partition,
        )


class CountingTask:
    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        n = self.counts.get_or_default(record.key, 0) + 1
        self.counts.put(record.key, n)
        collector.send("out", {"k": record.key, "n": n},
                       partition=record.partition)


def make_env(partitions=2, n=20):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    cluster.create_topic("out", num_partitions=partitions, replication_factor=1)
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", {"i": i}, key=f"k{i % 4}", partition=i % partitions)
    producer.flush()
    return clock, cluster, producer


def eo_config(**overrides):
    kwargs = dict(
        name="eo",
        inputs=["in"],
        task_factory=TagTask,
        checkpoint_interval=5,
        processing_guarantee=EXACTLY_ONCE,
    )
    kwargs.update(overrides)
    return JobConfig(**kwargs)


def committed_outputs(cluster, partitions=2):
    out = []
    for partition in range(partitions):
        result = cluster.fetch(
            "out", partition, 0, max_messages=100_000,
            isolation="read_committed",
        )
        out.extend((partition, r.value["offset"]) for r in result.records)
    return out


class TestConfig:
    def test_default_guarantee_is_at_least_once(self):
        config = JobConfig(name="j", inputs=["in"], task_factory=TagTask)
        assert config.processing_guarantee == AT_LEAST_ONCE

    def test_unknown_guarantee_rejected(self):
        with pytest.raises(JobConfigError):
            JobConfig(
                name="j",
                inputs=["in"],
                task_factory=TagTask,
                processing_guarantee="at_most_once",
            )

    def test_task_context_exposes_guarantee(self):
        _clock, cluster, _producer = make_env()
        runner = JobRunner(eo_config(), cluster)
        context = runner.task(0).context
        assert context.processing_guarantee == EXACTLY_ONCE
        assert context.exactly_once

    def test_transactional_id_is_job_and_task_derived(self):
        assert transactional_id("etl", 3) == "etl-3"


class TestTransactionBoundary:
    def test_outputs_invisible_until_checkpoint_commits(self):
        _clock, cluster, _producer = make_env(partitions=1, n=4)
        # Interval larger than the input: no checkpoint fires on its own.
        runner = JobRunner(eo_config(checkpoint_interval=100), cluster)
        runner.poll_once()
        assert runner.records_processed == 4
        assert committed_outputs(cluster, partitions=1) == []
        runner.checkpoint()
        assert committed_outputs(cluster, partitions=1) == [
            (0, 0), (0, 1), (0, 2), (0, 3)
        ]

    def test_offsets_commit_atomically_with_outputs(self):
        _clock, cluster, _producer = make_env(partitions=1, n=4)
        runner = JobRunner(eo_config(checkpoint_interval=100), cluster)
        runner.poll_once()
        tp = TopicPartition("in", 0)
        assert runner.checkpoints.fetch(tp) is None
        runner.checkpoint()
        commit = runner.checkpoints.fetch(tp)
        assert commit is not None and commit.offset == 4
        assert commit.metadata["software_version"] == "v1"

    def test_checkpoint_interval_commits_mid_stream(self):
        _clock, cluster, _producer = make_env(partitions=1, n=20)
        runner = JobRunner(eo_config(checkpoint_interval=5), cluster)
        runner.poll_once(max_messages=7)
        # 7 processed, interval 5: the boundary committed the whole pass.
        assert len(committed_outputs(cluster, partitions=1)) == 7

    def test_run_until_idle_commits_the_tail(self):
        _clock, cluster, _producer = make_env(partitions=2, n=19)
        runner = JobRunner(eo_config(checkpoint_interval=1000), cluster)
        runner.run_until_idle()
        assert len(committed_outputs(cluster)) == 19


class TestSnapshotBound:
    """The durable checkpoint stamp is taken after the pass-end flush and
    before the commit, the served snapshot bound after it."""

    @staticmethod
    def _stamp_and_snapshot(guarantee):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            eo_config(
                task_factory=CountingTask,
                stores=(StoreConfig("counts"),),
                checkpoint_interval=10,
                processing_guarantee=guarantee,
            ),
            cluster,
        )
        runner.poll_once()  # 10 store writes to 4 keys, then the checkpoint
        commit = runner.checkpoints.fetch(TopicPartition("in", 0))
        stamp = commit.metadata[CHANGELOG_OFFSETS_KEY]["counts"]
        snapshot = runner.snapshot_offset(0, "counts")
        changelog = TopicPartition(changelog_topic_name("eo", "counts"), 0)
        assert snapshot == cluster.end_offset(changelog)
        return stamp, snapshot

    def test_exactly_once_stamp_precedes_the_commit(self):
        stamp, snapshot = self._stamp_and_snapshot(EXACTLY_ONCE)
        # Everything the pass staged (one entry per key) is flushed before
        # the stamp; only the commit marker lands in between.
        assert stamp == 4
        assert snapshot == 4 + 1

    def test_at_least_once_stamp_equals_snapshot(self):
        stamp, snapshot = self._stamp_and_snapshot(AT_LEAST_ONCE)
        assert stamp == snapshot == 4


class TestCrashRecovery:
    def test_crash_mid_transaction_leaves_no_duplicates(self):
        _clock, cluster, _producer = make_env(partitions=2, n=30)
        runner = JobRunner(eo_config(checkpoint_interval=8), cluster)
        runner.poll_once(max_messages=6)   # open transactions, no commit yet
        runner.crash()
        runner.recover()
        runner.run_until_idle()
        outputs = committed_outputs(cluster)
        assert len(outputs) == 30
        assert len(set(outputs)) == 30  # every input emitted exactly once

    def test_compaction_under_an_open_transaction_keeps_committed_state(self):
        """Regression: an uncommitted tombstone made compaction drop the
        committed value it shadowed, so the restore lost the key."""

        class PutThenDelete:
            def init(self, context):
                self.table = context.store("table")

            def process(self, record, collector):
                if record.value is None:
                    self.table.delete(record.key)
                else:
                    self.table.put(record.key, record.value)

        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        producer = Producer(cluster)
        runner = JobRunner(
            eo_config(
                task_factory=PutThenDelete,
                stores=(StoreConfig("table"),),
                checkpoint_interval=1000,
                changelog_segment_messages=2,
            ),
            cluster,
        )
        for value in (1, 2):  # two passes: two committed changelog records
            producer.send("in", value, key="k", partition=0)
            producer.flush()
            runner.poll_once()
        runner.checkpoint()
        producer.send("in", None, key="k", partition=0)
        producer.flush()
        runner.poll_once()  # the tombstone, in an open transaction
        for broker in cluster.brokers():
            broker.run_compaction()
        runner.crash()
        runner.recover()
        assert runner.task(0).stores["table"].get("k") == 2

    def test_at_least_once_same_crash_duplicates(self):
        """The contrast case: identical crash schedule, default guarantee —
        replay from the last checkpoint re-emits what the crash lost."""
        _clock, cluster, _producer = make_env(partitions=2, n=30)
        runner = JobRunner(
            eo_config(
                checkpoint_interval=1000,
                processing_guarantee=AT_LEAST_ONCE,
            ),
            cluster,
        )
        runner.poll_once(max_messages=6)
        runner.crash()
        runner.recover()
        runner.run_until_idle()
        outputs = []
        for partition in range(2):
            result = cluster.fetch("out", partition, 0, max_messages=100_000)
            outputs.extend(
                (partition, r.value["offset"]) for r in result.records
            )
        assert len(outputs) == 42  # 30 + the 12 replayed after the crash
        assert len(set(outputs)) == 30

    def test_aborted_changelog_entries_not_restored(self):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            eo_config(
                task_factory=CountingTask,
                stores=(StoreConfig("counts"),),
                checkpoint_interval=4,
            ),
            cluster,
        )
        runner.poll_once(max_messages=4)  # hits the boundary: commits
        runner.poll_once(max_messages=2)  # open transaction, never commits
        runner.crash()
        runner.recover()
        # Only the 4 committed updates survive into the rebuilt store.
        store = runner.task(0).stores["counts"]
        restored = sum(store.get_or_default(f"k{i}", 0) for i in range(4))
        assert restored == 4
        runner.run_until_idle()
        counts = {}
        result = cluster.fetch(
            "out", 0, 0, max_messages=100_000, isolation="read_committed"
        )
        for record in result.records:
            counts[(record.value["k"], record.value["n"])] = (
                counts.get((record.value["k"], record.value["n"]), 0) + 1
            )
        assert all(v == 1 for v in counts.values())
        assert len(counts) == 10

    def test_recovery_fences_zombie_incarnation(self):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(eo_config(checkpoint_interval=100), cluster)
        runner.poll_once(max_messages=3)
        zombie = runner.task(0).output.producer
        runner.crash()
        runner.recover()
        with pytest.raises(ProducerFencedError):
            zombie.commit()
        with pytest.raises(ProducerFencedError):
            zombie.begin()

    def test_a_fenced_zombie_fails_at_hand_over_and_writes_nothing(self):
        """Writes reach the transactional producer once per pass, at the
        hand-over, which is where the fencing check sits: a zombie runs its
        pass, then is refused before one record is staged."""
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        zombie = JobRunner(eo_config(), cluster)
        JobRunner(eo_config(), cluster)  # same task ids: the zombie is fenced
        with pytest.raises(ProducerFencedError):
            zombie.poll_once()
        assert zombie.records_processed == 10
        assert zombie.task(0).output.producer.pending() == 0
        assert cluster.end_offset(TopicPartition("out", 0)) == 0

    def test_inputs_read_committed_under_exactly_once(self):
        """An upstream job's uncommitted outputs must not be processed."""
        from repro.messaging.transactions import TransactionalProducer

        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        cluster.create_topic("out", num_partitions=1, replication_factor=1)
        upstream = TransactionalProducer(cluster, "upstream")
        upstream.begin()
        upstream.send("in", {"i": 0}, partition=0)
        runner = JobRunner(eo_config(), cluster)
        assert runner.run_until_idle() == 0  # pending input invisible
        upstream.commit()
        assert runner.run_until_idle() == 1


class TestFailedCheckpoint:
    def test_failed_checkpoint_flush_loses_nothing(self):
        """Regression: a checkpoint whose flush exhausted its retries used
        to drop the staged outputs, and the next checkpoint then committed
        the input offsets without them — offset 10, output ``[]``."""
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(eo_config(checkpoint_interval=10), cluster)

        def out_is_down(partition=None, **_ctx):
            if partition.topic == "out":
                raise BrokerUnavailableError("out is down")

        with registry().scoped("cluster.produce", out_is_down):
            with pytest.raises(MessagingError):
                runner.poll_once()  # 10 records, then the pass-end flush
        assert committed_outputs(cluster, partitions=1) == []
        assert runner.checkpoints.fetch(TopicPartition("in", 0)) is None
        runner.run_until_idle()
        assert committed_outputs(cluster, partitions=1) == [
            (0, offset) for offset in range(10)
        ]
        assert runner.checkpoints.fetch(TopicPartition("in", 0)).offset == 10


class TestFailedPass:
    """Regression: a pass that raised left what it had staged in the task's
    open transaction, and the caller's next pass processed the same records
    into it again — ``read_committed`` saw outputs ``[0..4, 0..9]`` and the
    store counted 16 for 10 inputs.  A failed pass now aborts the
    transaction and rebuilds the task from its last checkpoint."""

    @staticmethod
    def fails_once_at_offset_5():
        failed = []

        class CountThenFailOnce:
            def init(self, context):
                self.counts = context.store("counts")

            def process(self, record, collector):
                self.counts.put("total", self.counts.get_or_default("total", 0) + 1)
                if record.offset == 5 and not failed:
                    failed.append(record.offset)
                    raise RuntimeError("boom")
                collector.send("out", {"offset": record.offset}, partition=0)

        return CountThenFailOnce

    @pytest.mark.parametrize("first_pass", [None, 3])
    def test_the_caller_keeps_polling_and_nothing_commits_twice(self, first_pass):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            eo_config(
                task_factory=self.fails_once_at_offset_5(),
                stores=[StoreConfig("counts")],
                checkpoint_interval=100,
            ),
            cluster,
        )
        if first_pass is not None:
            # An earlier pass's writes are flushed into the open transaction.
            runner.poll_once(max_messages=first_pass)
        with pytest.raises(TaskFailedError):
            runner.poll_once()
        runner.run_until_idle()
        assert committed_outputs(cluster, partitions=1) == [
            (0, offset) for offset in range(10)
        ]
        assert runner.task(0).stores["counts"].get("total") == 10
        assert runner.checkpoints.fetch(TopicPartition("in", 0)).offset == 10
        runner.crash()
        runner.recover()
        assert runner.task(0).stores["counts"].get("total") == 10


    def test_a_failed_abort_takes_the_job_down_until_recover(self):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            eo_config(
                task_factory=self.fails_once_at_offset_5(),
                stores=[StoreConfig("counts")],
                checkpoint_interval=100,
            ),
            cluster,
        )
        runner.poll_once(max_messages=3)  # the transaction holds a flushed batch
        with registry().scoped(
            "cluster.produce", raising(lambda: BrokerUnavailableError("down"))
        ):
            with pytest.raises(BrokerUnavailableError) as failed:
                runner.poll_once()  # the task raises, then its abort marker fails
        assert isinstance(failed.value.__context__, TaskFailedError)
        with pytest.raises(JobConfigError):
            runner.poll_once()
        runner.recover()
        runner.run_until_idle()
        assert committed_outputs(cluster, partitions=1) == [
            (0, offset) for offset in range(10)
        ]
        assert runner.task(0).stores["counts"].get("total") == 10


class TestMigration:
    def test_migrate_commits_open_transaction_first(self):
        _clock, cluster, _producer = make_env(partitions=2, n=20)
        runner = JobRunner(eo_config(checkpoint_interval=1000), cluster)
        runner.poll_once(max_messages=4)
        assert committed_outputs(cluster) == []
        runner.migrate_task(0)
        # Task 0's staged work committed at the migration boundary...
        outputs = committed_outputs(cluster)
        assert (0, 0) in outputs and (0, 3) in outputs
        # ...and task 1's transaction is still open, still invisible.
        assert all(partition == 0 for partition, _ in outputs)

    def test_migration_bumps_epoch_and_fences(self):
        _clock, cluster, _producer = make_env(partitions=2, n=20)
        runner = JobRunner(eo_config(), cluster)
        old_producer = runner.task(0).output.producer
        runner.migrate_task(0)
        assert runner.task(0).output.producer.epoch > old_producer.epoch
        with pytest.raises(ProducerFencedError):
            old_producer.begin()

    def test_output_identical_with_and_without_migration(self):
        results = []
        for migrate in (False, True):
            _clock, cluster, _producer = make_env(partitions=2, n=24)
            runner = JobRunner(eo_config(checkpoint_interval=6), cluster)
            runner.poll_once(max_messages=5)
            if migrate:
                runner.migrate_task(0)
                runner.migrate_task(1)
            runner.run_until_idle()
            outputs = []
            for partition in range(2):
                fetched = cluster.fetch(
                    "out", partition, 0, max_messages=100_000,
                    isolation="read_committed",
                )
                outputs.append(
                    [(r.key, r.value["offset"], r.value["value"])
                     for r in fetched.records]
                )
            results.append(outputs)
        assert results[0] == results[1]


class TestSimulatedOverhead:
    RECORDS = 2000

    def _drain_seconds(self, guarantee: str) -> float:
        """Simulated seconds the pass-through job takes to drain the same
        replicated input under ``guarantee``."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("in", num_partitions=2, replication_factor=3)
        cluster.create_topic("out", num_partitions=2, replication_factor=3)
        producer = Producer(
            cluster, ProducerConfig(acks=ACKS_LEADER, linger_messages=200)
        )
        for i in range(self.RECORDS):
            producer.send("in", {"i": i}, key=f"k{i % 100}", partition=i % 2)
        producer.flush()
        cluster.run_until_replicated()
        runner = JobRunner(
            JobConfig(
                name="overhead",
                inputs=["in"],
                task_factory=TagTask,
                checkpoint_interval=500,
                processing_guarantee=guarantee,
            ),
            cluster,
        )
        start = cluster.clock.now()
        runner.run_until_idle()
        assert len(committed_outputs(cluster)) == self.RECORDS
        return cluster.clock.now() - start

    def test_exactly_once_within_1_5x_of_at_least_once(self):
        # The EO1 acceptance ceiling (EXPERIMENTS.md); measured 1.21x.  Both
        # guarantees ship one batch per partition per pass; exactly-once pays
        # acks=all on its emits and the commit markers on top.
        exactly_once = self._drain_seconds(EXACTLY_ONCE)
        at_least_once = self._drain_seconds(AT_LEAST_ONCE)
        assert at_least_once < exactly_once <= 1.5 * at_least_once
