"""Unit tests for exactly-once transactions (§4.3's "ongoing effort")."""

from contextlib import nullcontext

import pytest

from repro.chaos.failpoints import raising, registry
from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    MessagingError,
    ProducerFencedError,
    TransactionError,
)
from repro.common.records import TRACE_HEADER, TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.messaging.transactions import (
    TransactionalProducer,
    get_transaction_coordinator,
)
from repro.observability.trace import Tracer, tracing


@pytest.fixture(autouse=True)
def _clean_failpoints():
    registry().disarm_all()
    yield
    registry().disarm_all()

TP = TopicPartition("t", 0)


def make_cluster(partitions=1) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=partitions, replication_factor=3)
    return cluster


def committed_values(cluster, partition=0):
    result = cluster.fetch(
        "t", partition, 0, max_messages=10_000, isolation="read_committed"
    )
    return [r.value for r in result.records]


def uncommitted_values(cluster, partition=0):
    result = cluster.fetch("t", partition, 0, max_messages=10_000)
    return [r.value for r in result.records]


def leader_batches(cluster, partition=0):
    """The batch index of the partition's leader log."""
    leader = cluster.broker(cluster.leader_of("t", partition))
    return leader.replica(TopicPartition("t", partition)).log.batches()


class TestLifecycle:
    def test_empty_transactional_id_rejected(self):
        with pytest.raises(ConfigError):
            TransactionalProducer(make_cluster(), "")

    def test_send_outside_transaction_rejected(self):
        producer = TransactionalProducer(make_cluster(), "tx", linger_messages=8)
        with pytest.raises(TransactionError):
            producer.send("t", "v")
        assert producer.pending() == 0  # raised at the call: nothing staged
        producer.begin()
        producer.send("t", "v")
        producer.commit()
        with pytest.raises(TransactionError):
            producer.send("t", "after-commit")
        assert producer.pending() == 0

    def test_double_begin_rejected(self):
        producer = TransactionalProducer(make_cluster(), "tx")
        producer.begin()
        with pytest.raises(TransactionError):
            producer.begin()

    def test_commit_without_begin_rejected(self):
        producer = TransactionalProducer(make_cluster(), "tx")
        with pytest.raises(TransactionError):
            producer.commit()


class TestAtomicity:
    def test_open_transaction_invisible_to_read_committed(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "pending-1")
        producer.send("t", "pending-2")
        assert committed_values(cluster) == []
        producer.commit()
        assert committed_values(cluster) == ["pending-1", "pending-2"]

    def test_aborted_records_never_visible(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "doomed")
        producer.abort()
        producer.begin()
        producer.send("t", "kept")
        producer.commit()
        assert committed_values(cluster) == ["kept"]

    def test_read_uncommitted_sees_everything_but_markers(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "pending")
        values = uncommitted_values(cluster)
        assert values == ["pending"]
        producer.abort()
        values = uncommitted_values(cluster)
        assert values == ["pending"]  # aborted but read_uncommitted shows it
        assert committed_values(cluster) == []

    def test_open_transaction_blocks_later_records(self):
        """LSO semantics: nothing after the first open txn is delivered,
        even non-transactional records, preserving order."""
        cluster = make_cluster()
        txn = TransactionalProducer(cluster, "tx")
        plain = Producer(cluster)
        txn.begin()
        txn.send("t", "txn-pending")
        plain.send("t", "plain-after", partition=0)
        cluster.tick(0.0)
        assert committed_values(cluster) == []
        txn.commit()
        cluster.tick(0.0)
        assert committed_values(cluster) == ["txn-pending", "plain-after"]

    def test_multi_partition_transaction_commits_atomically(self):
        cluster = make_cluster(partitions=2)
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "p0", partition=0)
        producer.send("t", "p1", partition=1)
        assert committed_values(cluster, 0) == []
        assert committed_values(cluster, 1) == []
        producer.commit()
        assert committed_values(cluster, 0) == ["p0"]
        assert committed_values(cluster, 1) == ["p1"]

    def test_interleaved_transactions_resolve_independently(self):
        cluster = make_cluster()
        tx_a = TransactionalProducer(cluster, "a")
        tx_b = TransactionalProducer(cluster, "b")
        tx_a.begin()
        tx_b.begin()
        tx_a.send("t", "from-a")
        tx_b.send("t", "from-b")
        tx_b.commit()
        # a is still open and started first: LSO holds everything back.
        assert committed_values(cluster) == []
        tx_a.abort()
        assert committed_values(cluster) == ["from-b"]


class TestFencing:
    def test_new_incarnation_fences_old(self):
        cluster = make_cluster()
        old = TransactionalProducer(cluster, "etl-7")
        new = TransactionalProducer(cluster, "etl-7")
        with pytest.raises(ProducerFencedError):
            old.begin()
        new.begin()
        new.send("t", "from-new")
        new.commit()
        assert committed_values(cluster) == ["from-new"]

    def test_fenced_send_raises_at_the_call_before_staging(self):
        """The fencing check is ``send``'s, not the flush's: a zombie with a
        long linger must not even stage a record — whether or not its
        successor has a transaction open."""
        cluster = make_cluster()
        old = TransactionalProducer(cluster, "etl-7", linger_messages=8)
        old.begin()
        old.send("t", "staged-before-fencing")
        new = TransactionalProducer(cluster, "etl-7")
        for successor_open in (False, True):
            if successor_open:
                new.begin()
            with pytest.raises(ProducerFencedError):
                old.send("t", "zombie-write")
            assert old.pending() == 1
        with pytest.raises(ProducerFencedError):
            old.flush()
        new.commit()
        assert uncommitted_values(cluster) == []

    def test_fencing_aborts_in_flight_transaction(self):
        cluster = make_cluster()
        old = TransactionalProducer(cluster, "etl-7")
        old.begin()
        old.send("t", "zombie-write")
        coordinator = get_transaction_coordinator(cluster)
        TransactionalProducer(cluster, "etl-7")  # fences; aborts old txn
        assert coordinator.fencings == 1
        assert committed_values(cluster) == []
        with pytest.raises(ProducerFencedError):
            old.commit()


class TestTransactionalOffsets:
    def test_offsets_commit_with_transaction(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "out")
        producer.send_offsets_to_transaction(
            "job-x", {TopicPartition("t", 0): 42}, {"software_version": "v1"}
        )
        assert cluster.offset_manager.fetch("job-x", TP) is None
        producer.commit()
        commit = cluster.offset_manager.fetch("job-x", TP)
        assert commit.offset == 42
        assert commit.metadata["software_version"] == "v1"

    def test_offsets_discarded_on_abort(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "out")
        producer.send_offsets_to_transaction("job-x", {TP: 42})
        producer.abort()
        assert cluster.offset_manager.fetch("job-x", TP) is None


class TestConsumerIntegration:
    def test_read_committed_consumer_end_to_end(self):
        cluster = make_cluster()
        consumer = Consumer(cluster, ConsumerConfig(isolation_level="read_committed"))
        consumer.assign([TP])
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "a")
        producer.send("t", "b")
        assert consumer.poll(10) == []
        producer.commit()
        cluster.tick(0.0)
        values = [r.value for r in consumer.poll(10)]
        assert values == ["a", "b"]
        # Position skipped past the marker without delivering it.
        assert consumer.position(TP) == cluster.end_offset(TP)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "kind", ["idempotent", "idempotent-zlib", "transactional"]
    )
    def test_consumers_see_the_headers_that_were_sent(self, kind, traced):
        """Producer state is batch metadata: whatever the producer — and
        whether its batch reaches the consumer as records or as a frame — a
        delivered record's headers are the user's, plus ``__trace`` under a
        tracer, and nothing else."""
        cluster = make_cluster()
        if kind == "transactional":
            producer = TransactionalProducer(cluster, "tx", linger_messages=4)
            producer.begin()
        else:
            producer = Producer(cluster, ProducerConfig(
                idempotent=True, linger_messages=4,
                compression="zlib:6" if kind.endswith("zlib") else "none",
            ))
        sent = [{"user": i, "tag": "x" * i} if i % 2 else None for i in range(8)]
        with tracing(Tracer(seed=1)) if traced else nullcontext():
            for i, headers in enumerate(sent):
                producer.send("t", i, key=f"k{i}", headers=headers)
            producer.commit() if kind == "transactional" else producer.flush()
            cluster.run_until_replicated()
            consumer = Consumer(
                cluster, ConsumerConfig(isolation_level="read_committed")
            )
            consumer.assign([TP])
            records = consumer.poll(max_messages=100)
        assert [r.value for r in records] == list(range(8))
        for record, headers in zip(records, sent):
            delivered = dict(record.headers)
            assert (delivered.pop(TRACE_HEADER, None) is not None) == traced
            assert delivered == (headers or {})

    def test_invalid_isolation_level_rejected(self):
        with pytest.raises(ConfigError):
            Consumer(make_cluster(), ConsumerConfig(isolation_level="serializable"))

    def test_marker_order_is_deterministic_across_insertion_orders(self):
        """Regression: ``_write_markers`` used to iterate the ``in_flight``
        *set*, so marker write order depended on PYTHONHASHSEED — silently
        breaking byte-for-byte replay of any transactional run.  Markers
        must now go out in sorted partition order, however the transaction
        touched them."""
        orders = []
        for touch_order in ([3, 0, 2, 1], [1, 2, 0, 3]):
            cluster = make_cluster(partitions=4)
            producer = TransactionalProducer(cluster, "tx")
            producer.begin()
            for partition in touch_order:
                producer.send("t", f"p{partition}", partition=partition)
            written: list[tuple[str, int]] = []

            def record(partition=None, **_ctx):
                if partition.topic == "t":
                    written.append((partition.topic, partition.partition))

            with registry().scoped("cluster.produce", record):
                producer.commit()
            orders.append(written)
        assert orders[0] == orders[1]
        assert orders[0] == [("t", 0), ("t", 1), ("t", 2), ("t", 3)]

    def test_transaction_state_survives_failover(self):
        cluster = make_cluster()
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "committed-later")
        producer.commit()
        producer.begin()
        producer.send("t", "aborted-later")
        producer.abort()
        cluster.run_until_replicated()
        cluster.kill_broker(cluster.leader_of("t", 0))
        assert committed_values(cluster) == ["committed-later"]


class TestCrashAtomicCommit:
    """The commit protocol behind chaos failpoints: markers and offset
    commits must never be observable half-done."""

    def staged_transaction(self, partitions=2):
        cluster = make_cluster(partitions=partitions)
        producer = TransactionalProducer(cluster, "etl")
        producer.begin()
        for partition in range(partitions):
            producer.send("t", f"out-{partition}", partition=partition)
        producer.send_offsets_to_transaction(
            "job-etl", {TopicPartition("in", 0): 7}, {"task_id": 0}
        )
        return cluster, producer

    def test_crash_before_decision_aborts_on_restart(self):
        cluster, producer = self.staged_transaction()
        registry().arm("txn.commit", raising(lambda: RuntimeError("crash")))
        with pytest.raises(RuntimeError):
            producer.commit()
        TransactionalProducer(cluster, "etl")  # restart: fences + aborts
        assert committed_values(cluster, 0) == []
        assert committed_values(cluster, 1) == []
        assert cluster.offset_manager.fetch("job-etl", TopicPartition("in", 0)) is None

    def test_crash_between_markers_and_offsets_rolls_forward(self):
        """Satellite regression: a crash after ``_write_markers`` but before
        the offset-manager commit used to leak committed outputs with
        uncommitted offsets — a restart would replay inputs and emit
        duplicates.  The decided commit now completes on restart."""
        cluster, producer = self.staged_transaction()
        registry().arm(
            "txn.commit.offsets", raising(lambda: RuntimeError("crash"))
        )
        with pytest.raises(RuntimeError):
            producer.commit()
        registry().disarm_all()
        # The dangerous window: outputs are already visible...
        assert committed_values(cluster, 0) == ["out-0"]
        # ...so restart must NOT abort — it completes the decided commit.
        TransactionalProducer(cluster, "etl")
        commit = cluster.offset_manager.fetch("job-etl", TopicPartition("in", 0))
        assert commit is not None and commit.offset == 7
        assert commit.metadata["task_id"] == 0
        assert committed_values(cluster, 0) == ["out-0"]
        assert committed_values(cluster, 1) == ["out-1"]

    def test_crash_mid_markers_completes_remaining_markers_once(self):
        cluster, producer = self.staged_transaction()
        fired = {"n": 0}

        def second_marker_crashes(**_ctx):
            fired["n"] += 1
            if fired["n"] == 2:
                raise RuntimeError("crash")

        registry().arm("txn.commit.marker", second_marker_crashes)
        with pytest.raises(RuntimeError):
            producer.commit()
        registry().disarm_all()
        TransactionalProducer(cluster, "etl")
        assert committed_values(cluster, 0) == ["out-0"]
        assert committed_values(cluster, 1) == ["out-1"]
        # Exactly one record + one marker per partition — the marker that
        # was already written is not re-written on roll-forward.
        for partition in range(2):
            assert cluster.log_end_offset(TopicPartition("t", partition)) == 2
        commit = cluster.offset_manager.fetch("job-etl", TopicPartition("in", 0))
        assert commit is not None and commit.offset == 7

    def test_commit_retry_resumes_decided_transaction(self):
        """``commit()`` called again after a mid-commit crash finishes the
        apply phase instead of raising 'no open transaction'."""
        cluster, producer = self.staged_transaction()
        registry().arm(
            "txn.commit.offsets", raising(lambda: RuntimeError("crash"))
        )
        with pytest.raises(RuntimeError):
            producer.commit()
        registry().disarm_all()
        producer.commit()  # same incarnation retries
        commit = cluster.offset_manager.fetch("job-etl", TopicPartition("in", 0))
        assert commit is not None and commit.offset == 7

    def test_abort_of_decided_transaction_rejected(self):
        cluster, producer = self.staged_transaction()
        registry().arm(
            "txn.commit.offsets", raising(lambda: RuntimeError("crash"))
        )
        with pytest.raises(RuntimeError):
            producer.commit()
        registry().disarm_all()
        with pytest.raises(TransactionError):
            producer.abort()


class TestIdempotentSequences:
    """Satellite regression: transactional sends used to increment a local
    counter without attaching it, bypassing broker-side dedup entirely."""

    def test_sequences_attached_per_partition(self):
        cluster = make_cluster(partitions=2)
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        producer.send("t", "a", partition=0)
        producer.send("t", "b", partition=0)
        producer.send("t", "c", partition=1)
        producer.commit()
        p0 = uncommitted_values(cluster, 0)
        assert p0 == ["a", "b"]
        # One index entry per batch, carrying the request's producer fields;
        # the commit marker closes each partition's run.
        pid = producer.producer_id
        assert leader_batches(cluster, 0) == [
            (0, 0, pid, 0, "transactional", None),
            (1, 1, pid, 1, "transactional", None),
            (2, 2, pid, None, "commit", None),
        ]
        assert leader_batches(cluster, 1) == [
            (0, 0, pid, 0, "transactional", None),
            (1, 1, pid, None, "commit", None),
        ]
        # ... and nothing of it on the records.
        for partition in (0, 1):
            records = cluster.fetch("t", partition, 0, max_messages=100).records
            assert [r.headers for r in records] == [{}] * len(records)

    def test_sequences_continue_across_incarnations(self):
        """A restarted incarnation shares the producer id, so its sequences
        must continue the numbering — restarting at 0 would be wrongly
        deduplicated against the previous incarnation's appends."""
        cluster = make_cluster()
        first = TransactionalProducer(cluster, "tx")
        first.begin()
        first.send("t", "one")
        first.send("t", "two")
        first.commit()
        second = TransactionalProducer(cluster, "tx")
        assert second.producer_id == first.producer_id
        second.begin()
        ack = second.send("t", "three")
        assert not ack.duplicate
        second.commit()
        assert committed_values(cluster) == ["one", "two", "three"]

    def test_retry_inside_transaction_dedupes(self):
        """acks=all failed after the leader append stood: the transactional
        send retries under its original sequence and the broker dedupes —
        the record lands exactly once inside the transaction."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic(
            "t", num_partitions=1, replication_factor=3, min_insync_replicas=2
        )
        producer = TransactionalProducer(cluster, "tx")
        producer.begin()
        leader = cluster.leader_of("t", 0)
        followers = [b for b in range(3) if b != leader]
        for follower in followers:
            cluster.broker(follower).shutdown()  # sessions still alive
        attempts = {"n": 0}

        def heal_on_retry(**_ctx):
            attempts["n"] += 1
            if attempts["n"] == 2:
                for follower in followers:
                    cluster.controller.broker_failed(follower)
                    cluster.restart_broker(follower)
                cluster.run_until_replicated()

        with registry().scoped("cluster.produce", heal_on_retry):
            ack = producer.send("t", "exactly-once")
        assert attempts["n"] >= 2  # first attempt failed, retry went through
        assert ack.duplicate  # broker recognized the replayed sequence
        assert producer.retries >= 1
        retried = cluster.metrics.counter("messaging.transactions.send_retries")
        assert retried.value == producer.retries
        producer.commit()
        assert committed_values(cluster) == ["exactly-once"]


class TestFailedFlush:
    """Regression: ``flush()`` used to pop a partition's batch before
    producing it, so a batch that exhausted its retries was gone and a
    retried ``commit()`` committed the transaction without it."""

    def commit_with_partition_0_down(self):
        cluster = make_cluster(partitions=2)
        producer = TransactionalProducer(cluster, "tx", linger_messages=8)
        producer.begin()
        for i in range(3):
            producer.send("t", f"p0-{i}", partition=0)
            producer.send("t", f"p1-{i}", partition=1)

        def partition_0_is_down(partition=None, **_ctx):
            if partition == TP:
                raise BrokerUnavailableError("partition 0 is down")

        with registry().scoped("cluster.produce", partition_0_is_down):
            with pytest.raises(MessagingError):
                producer.commit()
        # The failed batch is parked, not lost, and nothing was decided; its
        # partition was registered before the attempt that may have landed.
        assert producer.in_transaction
        assert producer.pending() == 3
        state = get_transaction_coordinator(cluster).state_for("tx", producer.epoch)
        assert state.in_flight == {TP, TopicPartition("t", 1)}
        return cluster, producer

    def test_retried_commit_delivers_the_parked_batch(self):
        cluster, producer = self.commit_with_partition_0_down()
        producer.commit()
        assert producer.pending() == 0
        assert committed_values(cluster, 0) == ["p0-0", "p0-1", "p0-2"]
        assert committed_values(cluster, 1) == ["p1-0", "p1-1", "p1-2"]

    def test_abort_drops_the_parked_batch(self):
        cluster, producer = self.commit_with_partition_0_down()
        producer.abort()
        assert producer.pending() == 0
        assert committed_values(cluster, 0) == []
        assert committed_values(cluster, 1) == []
        # The id stays usable, and the dropped batch does not resurface.
        producer.begin()
        producer.send("t", "next", partition=0)
        producer.commit()
        assert committed_values(cluster, 0) == ["next"]


class TestPartitionRange:
    def test_out_of_range_partition_rejected_before_registration(self):
        """Regression: ``send(partition=99)`` used to register ``t-99`` with
        the coordinator, after which commit, abort and re-initialising the
        id all failed on the marker write to a partition that does not
        exist — the transactional id was wedged for good."""
        cluster = make_cluster(partitions=2)
        producer = TransactionalProducer(cluster, "tx", linger_messages=8)
        producer.begin()
        with pytest.raises(ConfigError):
            producer.send("t", "x", partition=99)
        coordinator = get_transaction_coordinator(cluster)
        assert [t["partitions"] for t in coordinator.open_transactions()] == [[]]
        producer.send("t", "ok", partition=1)
        producer.commit()
        assert committed_values(cluster, 1) == ["ok"]
        successor = TransactionalProducer(cluster, "tx")
        assert successor.epoch == producer.epoch + 1

    def test_send_registers_the_partition_object_it_buffers_under(self):
        """Registration is per batch, when it ships: a partition nothing was
        sent to owes no marker; one that was attempted is registered before
        the attempt, under the object the batch was buffered under."""
        cluster = make_cluster(partitions=2)
        producer = TransactionalProducer(cluster, "tx", linger_messages=8)
        producer.begin()
        producer.send("t", "a", key="k")
        producer.send("t", "b", key="k")
        state = get_transaction_coordinator(cluster).state_for("tx", producer.epoch)
        (buffered,) = producer._buffers
        assert not state.in_flight
        producer.flush()
        (registered,) = state.in_flight
        assert registered is buffered
        producer.commit()
        (sequenced,) = state.sequences
        assert sequenced is buffered
