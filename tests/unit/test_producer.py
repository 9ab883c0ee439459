"""Unit tests for the producer client."""

import pytest

from repro.chaos.failpoints import raising, registry
from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    MessagingError,
    ProducerFlushError,
    RecordTooLargeError,
    ReservedHeaderError,
    TopicNotFoundError,
)
from repro.common.records import EMPTY_HEADERS, TRACE_HEADER, TopicPartition
from repro.common.partitioning import stable_hash
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer
from repro.observability.trace import TraceContext, tracing


@pytest.fixture(autouse=True)
def clean_failpoints():
    registry().disarm_all()
    yield
    registry().disarm_all()


def make_cluster(partitions=4, **kwargs) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock(), **kwargs)
    cluster.create_topic("t", num_partitions=partitions, replication_factor=3)
    return cluster


class TestPartitioning:
    def test_same_key_same_partition(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        acks = [producer.send("t", i, key="stable") for i in range(10)]
        partitions = {a.partition.partition for a in acks}
        assert len(partitions) == 1

    def test_hash_matches_stable_hash(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        ack = producer.send("t", "v", key="abc")
        assert ack.partition.partition == stable_hash("abc") % 4

    def test_keyless_round_robins(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        acks = [producer.send("t", i) for i in range(8)]
        partitions = [a.partition.partition for a in acks]
        assert partitions == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_partitioner_ignores_keys(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(partitioner="round_robin"))
        acks = [producer.send("t", i, key="same") for i in range(4)]
        assert [a.partition.partition for a in acks] == [0, 1, 2, 3]

    def test_custom_partitioner(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(partitioner=lambda key, n: 2))
        ack = producer.send("t", "v", key="anything")
        assert ack.partition.partition == 2

    def test_explicit_partition_wins(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        ack = producer.send("t", "v", key="k", partition=3)
        assert ack.partition.partition == 3

    def test_out_of_range_partition_rejected(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        with pytest.raises(ConfigError):
            producer.send("t", "v", partition=4)

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ConfigError):
            Producer(make_cluster(), ProducerConfig(partitioner="random"))


class TestSharedPartitions:
    """One TopicPartition object per (topic, partition) per producer, handed
    out from a per-topic list that is only ever filled with the truth."""

    def test_every_send_to_a_partition_keys_with_the_same_object(self):
        producer = Producer(
            make_cluster(), ProducerConfig(linger_messages=10, idempotent=True)
        )
        for value in range(3):
            producer.send("t", value, key="stable")
        producer.send("t", "explicit", partition=stable_hash("stable") % 4)
        (buffered,) = producer._buffers
        assert len(producer._buffers[buffered]) == 4
        (ack,) = producer.flush()
        (sequenced,) = producer._sequences
        assert sequenced is buffered
        # A fresh instance (the ack's is the cluster's own) is the same key.
        assert ack.partition == buffered and ack.partition is not buffered
        assert hash(ack.partition) == hash(buffered)
        assert producer._sequences[TopicPartition(*buffered)] == 0

    def test_unknown_topic_raises_every_time_and_caches_nothing(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for _ in range(2):
            with pytest.raises(TopicNotFoundError):
                producer.send("late", "v", key="k")
        cluster.create_topic("late", num_partitions=2, replication_factor=1)
        assert producer.send("late", "v", partition=1).partition == ("late", 1)

    def test_out_of_range_partition_buffers_nothing(self):
        producer = Producer(make_cluster(), ProducerConfig(linger_messages=5))
        producer.send("t", "kept", partition=3)
        for bad in (4, -1):
            with pytest.raises(ConfigError):
                producer.send("t", "v", partition=bad)
        assert list(producer._buffers) == [TopicPartition("t", 3)]
        assert producer.pending() == 1


class TestBatching:
    def test_unbatched_sends_immediately(self):
        producer = Producer(make_cluster())
        assert producer.send("t", "v") is not None
        assert producer.pending() == 0

    def test_batched_buffers_until_linger(self):
        producer = Producer(
            make_cluster(partitions=1), ProducerConfig(linger_messages=3)
        )
        assert producer.send("t", 1) is None
        assert producer.send("t", 2) is None
        assert producer.pending() == 2
        ack = producer.send("t", 3)
        assert ack is not None
        assert ack.last_offset - ack.base_offset == 2
        assert producer.pending() == 0

    def test_flush_sends_partial_batches(self):
        producer = Producer(
            make_cluster(partitions=2), ProducerConfig(linger_messages=10)
        )
        producer.send("t", 1, partition=0)
        producer.send("t", 2, partition=1)
        acks = producer.flush()
        assert len(acks) == 2
        assert producer.pending() == 0

    def test_invalid_linger_rejected(self):
        with pytest.raises(ConfigError):
            Producer(make_cluster(), ProducerConfig(linger_messages=0))

    @pytest.mark.parametrize("compression", ["none", "zlib:6"])
    def test_a_lone_surrogate_does_not_lose_its_batch(self, compression):
        cluster = make_cluster(partitions=1)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=10, compression=compression)
        )
        sent = [{"ok": 1}, {"bad": "\udcff"}, {"ok": 2}]
        for value in sent:
            producer.send("t", value, partition=0)
        producer.flush()
        assert producer.pending() == 0
        tp = TopicPartition("t", 0)
        log = cluster.broker(cluster.leader_of("t", 0)).replica(tp).log
        assert [m.value for m in log.all_messages()] == sent
        assert [m.size for m in log.all_messages()] == [12, 8, 12]

    @pytest.mark.parametrize("idempotent", [False, True])
    @pytest.mark.parametrize("compression", ["none", "zlib:6"])
    def test_an_oversized_record_does_not_lose_its_batch(
        self, compression, idempotent
    ):
        cluster = make_cluster(partitions=1)
        producer = Producer(
            cluster,
            ProducerConfig(
                linger_messages=10, compression=compression, idempotent=idempotent
            ),
        )
        for value in ({"ok": 1}, "x" * (2 << 20), {"ok": 2}):
            producer.send("t", value, partition=0)
        with pytest.raises(ProducerFlushError) as info:
            producer.flush()
        ((tp, refused),) = info.value.failures
        assert isinstance(refused, RecordTooLargeError)
        assert refused.indices == (1,)
        # The rest landed once, as one batch, and nothing is left to retry.
        assert info.value.acks == [refused.ack]
        assert (refused.ack.base_offset, refused.ack.last_offset) == (0, 1)
        assert producer.pending() == 0
        log = cluster.broker(cluster.leader_of("t", 0)).replica(tp).log
        assert [m.value for m in log.all_messages()] == [{"ok": 1}, {"ok": 2}]
        frames = [entry[5] for entry in log.batches() if entry[5] is not None]
        assert [f.count for f in frames] == ([2] if compression != "none" else [])
        # A lone oversized send is refused whole; the partition moves on.
        with pytest.raises(RecordTooLargeError):
            Producer(cluster, ProducerConfig(idempotent=idempotent)).send(
                "t", "x" * (2 << 20), partition=0
            )
        producer.send("t", {"ok": 3}, partition=0)
        producer.flush()
        assert [m.value for m in log.all_messages()][-1] == {"ok": 3}
        assert log.log_end_offset == 3


    @pytest.mark.parametrize("idempotent", [False, True])
    @pytest.mark.parametrize("compression", ["none", "zlib:6"])
    def test_a_refusal_is_reported_when_the_rest_then_fails(
        self, compression, idempotent
    ):
        cluster = make_cluster(partitions=1)
        producer = Producer(
            cluster,
            ProducerConfig(
                linger_messages=10,
                compression=compression,
                idempotent=idempotent,
                max_retries=1,
            ),
        )
        for value in ({"ok": 1}, "x" * (2 << 20), {"ok": 2}):
            producer.send("t", value, partition=0)
        requests = []

        def down_after_the_refusal(**_ctx):
            requests.append(1)
            if len(requests) > 1:
                raise BrokerUnavailableError("down")

        with registry().scoped("cluster.produce", down_after_the_refusal):
            with pytest.raises(ProducerFlushError) as info:
                producer.flush()
        # The refusal first, then the failure that parked the rest.
        (tp, refused), (same, parked) = info.value.failures
        assert tp == same == TopicPartition("t", 0)
        assert isinstance(refused, RecordTooLargeError)
        assert refused.indices == (1,)
        assert refused.rest_error is parked
        assert type(parked) is MessagingError and "re-buffered" in str(parked)
        assert info.value.acks == [] and refused.ack is None
        # The refused record stays dropped; the rest is parked and lands once.
        assert producer.pending() == 2
        log = cluster.broker(cluster.leader_of("t", 0)).replica(tp).log
        assert log.all_messages() == []
        (ack,) = producer.flush()
        assert (ack.base_offset, ack.last_offset) == (0, 1)
        assert [m.value for m in log.all_messages()] == [{"ok": 1}, {"ok": 2}]
        assert producer.pending() == 0


class TestRetries:
    def test_retry_succeeds_after_failover(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(max_retries=3))
        producer.send("t", "before")
        leader = cluster.leader_of("t", 0)
        cluster.kill_broker(leader)
        ack = producer.send("t", "after")
        assert ack is not None
        assert producer.retries == 0  # controller already moved leadership

    def test_retry_on_stale_leader_view(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(max_retries=3))
        leader = cluster.leader_of("t", 0)
        # Crash the machine without the controller noticing yet: the first
        # attempt hits the dead broker and is retried after the session
        # expiry (modelled here by the kill during the retry's tick).
        cluster.broker(leader).shutdown()
        original_tick = cluster.tick

        def tick_and_fail(dt=0.0, **kwargs):
            cluster.controller.broker_failed(leader)
            cluster.tick = original_tick
            return original_tick(dt, **kwargs)

        cluster.tick = tick_and_fail
        ack = producer.send("t", "after")
        assert ack is not None
        assert producer.retries >= 1

    def test_retries_exhausted_raises(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(max_retries=1))
        # Kill all brokers: nothing can lead.
        for broker_id in range(3):
            cluster.kill_broker(broker_id)
        with pytest.raises(MessagingError):
            producer.send("t", "v")

    def test_backoff_is_capped_and_jitter_deterministic(self):
        def delays(seed):
            producer = Producer(
                make_cluster(),
                ProducerConfig(
                    retry_backoff=0.1,
                    retry_backoff_max=0.5,
                    retry_jitter_seed=seed,
                ),
            )
            return [producer._backoff(attempts) for attempts in range(1, 10)]

        a, b = delays(7), delays(7)
        assert a == b
        assert delays(7) != delays(8)
        assert all(d <= 0.5 for d in a)
        assert all(0.05 <= d for d in a)  # never collapses to zero

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ConfigError):
            Producer(
                make_cluster(), ProducerConfig(retry_backoff=1.0, retry_backoff_max=0.5)
            )


class TestFailureRebuffering:
    """Regression: a batch that exhausts retries must stay in the producer.

    Pre-fix, ``send``/``flush`` raised with the batch already popped from the
    buffer — the records were silently gone, and a later flush() had nothing
    to retry.
    """

    def test_failed_send_is_rebuffered_and_redelivered(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(max_retries=0))
        with pytest.raises(MessagingError, match="re-buffered"):
            with registry().scoped(
                "cluster.produce",
                raising(lambda: BrokerUnavailableError("chaos")),
            ):
                producer.send("t", "precious")
        assert producer.pending() == 1  # nothing lost
        acks = producer.flush()
        assert len(acks) == 1
        assert producer.pending() == 0
        cluster.run_until_replicated()
        records = cluster.fetch("t", 0, 0).records
        assert [r.value for r in records] == ["precious"]

    def test_flush_failure_keeps_batch_and_reports_partial_acks(self):
        cluster = make_cluster(partitions=2)
        producer = Producer(cluster, ProducerConfig(linger_messages=10, max_retries=0))
        producer.send("t", "doomed", partition=0)
        producer.send("t", "fine", partition=1)

        def fail_partition_0(name, partition, **ctx):
            if partition.partition == 0:
                raise BrokerUnavailableError("chaos")

        registry().arm("cluster.produce", fail_partition_0)
        with pytest.raises(ProducerFlushError) as info:
            producer.flush()
        # Partial result: partition 1 acked, partition 0 parked, not lost.
        assert len(info.value.acks) == 1
        assert [tp for tp, _exc in info.value.failures] == [
            TopicPartition("t", 0)
        ]
        assert producer.pending() == 1
        registry().disarm("cluster.produce")
        producer.flush()
        assert producer.pending() == 0
        cluster.run_until_replicated()
        assert [r.value for r in cluster.fetch("t", 0, 0).records] == ["doomed"]

    def test_sends_behind_a_parked_batch_hold_order(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(max_retries=0))
        producer.send("t", "v0")
        with pytest.raises(MessagingError):
            with registry().scoped(
                "cluster.produce",
                raising(lambda: BrokerUnavailableError("chaos")),
            ):
                producer.send("t", "v1")
        # While v1 is parked, v2 must queue behind it, not jump ahead.
        assert producer.send("t", "v2") is None
        assert producer.pending() == 2
        producer.flush()
        cluster.run_until_replicated()
        records = cluster.fetch("t", 0, 0).records
        assert [r.value for r in records] == ["v0", "v1", "v2"]

    def test_idempotent_retry_of_standing_append_dedupes(self):
        """acks=all failed after the leader append stood: the parked batch
        retries under its original sequence and the broker dedupes."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic(
            "t", num_partitions=1, replication_factor=3, min_insync_replicas=2
        )
        producer = Producer(
            cluster, ProducerConfig(acks=ACKS_ALL, idempotent=True, max_retries=0)
        )
        leader = cluster.leader_of("t", 0)
        followers = [b for b in range(3) if b != leader]
        for follower in followers:
            cluster.broker(follower).shutdown()  # sessions still alive
        with pytest.raises(MessagingError):
            producer.send("t", "exactly-once")
        assert producer.pending() == 1
        # Leader append stood even though the produce failed.
        assert cluster.log_end_offset(TopicPartition("t", 0)) == 1
        for follower in followers:
            cluster.controller.broker_failed(follower)
            cluster.restart_broker(follower)
        cluster.run_until_replicated()
        (ack,) = producer.flush()
        assert ack.duplicate  # broker recognized the replayed sequence
        records = cluster.fetch("t", 0, 0).records
        assert [r.value for r in records] == ["exactly-once"]


class TestIdempotent:
    def test_sequences_advance_per_partition(self):
        cluster = make_cluster(partitions=2)
        producer = Producer(cluster, ProducerConfig(idempotent=True))
        producer.send("t", 1, partition=0)
        producer.send("t", 2, partition=0)
        producer.send("t", 3, partition=1)
        assert producer._sequences[
            [tp for tp in producer._sequences if tp.partition == 0][0]
        ] == 1

    def test_acks_counted(self):
        producer = Producer(make_cluster(), ProducerConfig(acks=ACKS_ALL))
        for i in range(5):
            producer.send("t", i)
        assert producer.acks_received == 5


class TestReservedHeaders:
    """The ``__`` header namespace is the system's at both send entry points."""

    @staticmethod
    def _senders(cluster):
        txn = TransactionalProducer(cluster, "txn-1")
        txn.begin()
        return [Producer(cluster), txn]

    def test_reserved_keys_rejected(self):
        for sender in self._senders(make_cluster()):
            for name in ("__trace", "__txn", "__pid", "__seq", "__ctrl", "__x"):
                with pytest.raises(ReservedHeaderError, match=name):
                    sender.send("t", "v", headers={name: "x", "a": "b"})

    def test_trace_context_and_plain_keys_accepted(self):
        cluster = make_cluster()
        for sender in self._senders(cluster):
            ctx = TraceContext("trace-1", 7)
            ack = sender.send("t", "v", partition=0, headers={"__trace": ctx})
            assert ack is not None
            assert sender.send("t", "v", headers={"_a": "b", "a__b": "c"})


class TestSentHeadersAreTheRecords:
    """A record's headers are what the sender passed at ``send``: a later
    change to the sender's dict does not reach the stored record, and a
    record sent with ``{}`` reads back as the shared ``EMPTY_HEADERS``
    whether its batch was compressed or not."""

    def test_a_change_after_send_does_not_reach_the_record(self):
        cluster = make_cluster(partitions=1)
        headers = {"h": 1}
        Producer(cluster).send("t", "a", headers=headers)
        headers["h"] = "changed"
        cluster.run_until_replicated()
        assert cluster.fetch("t", 0, 0).records[0].headers == {"h": 1}

    def test_a_buffered_record_keeps_its_headers_too(self):
        cluster = make_cluster(partitions=1)
        producer = Producer(cluster, ProducerConfig(linger_messages=8))
        headers = {"h": 1}
        producer.send("t", "a", headers=headers)
        headers.clear()
        producer.flush()
        cluster.run_until_replicated()
        assert cluster.fetch("t", 0, 0).records[0].headers == {"h": 1}

    @pytest.mark.parametrize("sent", [{"h": 1}, None], ids=["headers", "none"])
    def test_a_traced_send_adds_its_header_to_the_record_only(self, sent):
        cluster = make_cluster(partitions=1)
        handed = dict(sent) if sent else sent
        with tracing():
            Producer(cluster).send("t", "a", headers=handed)
        assert handed == sent
        cluster.run_until_replicated()
        headers = cluster.fetch("t", 0, 0).records[0].headers
        assert set(headers) == set(sent or ()) | {TRACE_HEADER}

    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_empty_headers_read_back_as_the_shared_instance(self, compression):
        cluster = make_cluster(partitions=1)
        Producer(cluster, ProducerConfig(compression=compression)).send(
            "t", "a", headers={}
        )
        cluster.run_until_replicated()
        assert cluster.fetch("t", 0, 0).records[0].headers is EMPTY_HEADERS
