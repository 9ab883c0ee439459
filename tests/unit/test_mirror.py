"""Unit tests for cross-datacenter mirroring (§5)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.mirror import MirrorMaker
from repro.messaging.producer import Producer


def two_colos() -> tuple[MessagingCluster, MessagingCluster]:
    clock = SimClock()  # shared wall clock across both datacenters
    west = MessagingCluster(num_brokers=3, clock=clock)
    east = MessagingCluster(num_brokers=3, clock=clock)
    west.create_topic("events", num_partitions=2, replication_factor=3)
    return west, east


def drain(cluster, topic, partition):
    result = cluster.fetch(topic, partition, 0, max_messages=10_000)
    return result.records


class TestProvisioning:
    def test_target_topic_created_with_source_shape(self):
        west, east = two_colos()
        mirror = MirrorMaker(west, east)
        mirror.poll()
        assert "events" in east.topics()
        assert len(east.partitions_of("events")) == 2

    def test_internal_topics_not_mirrored(self):
        west, east = two_colos()
        mirror = MirrorMaker(west, east)
        assert "__liquid_offsets" not in mirror.mirrored_topics()
        mirror.poll()
        assert "__liquid_offsets" in east.topics()  # east's OWN, not mirrored
        tp = TopicPartition("__liquid_offsets", 0)
        assert east.log_end_offset(tp) >= 0

    def test_explicit_topic_list_respected(self):
        west, east = two_colos()
        west.create_topic("other", replication_factor=3)
        mirror = MirrorMaker(west, east, topics=["events"])
        Producer(west).send("other", "x")
        west.tick(0.0)
        mirror.run_until_synced()
        assert "other" not in east.topics()

    def test_same_cluster_rejected(self):
        west, _east = two_colos()
        with pytest.raises(ConfigError):
            MirrorMaker(west, west)


class TestCopySemantics:
    def test_everything_copied_in_order_with_fidelity(self):
        west, east = two_colos()
        producer = Producer(west)
        for i in range(100):
            producer.send(
                "events", {"i": i}, key=f"k{i % 10}", timestamp=float(i),
                headers={"origin": "west"},
            )
        west.tick(0.0)
        mirror = MirrorMaker(west, east)
        copied = mirror.run_until_synced()
        assert copied == 100
        east.tick(0.0)
        for partition in range(2):
            src = drain(west, "events", partition)
            dst = drain(east, "events", partition)
            assert [(r.key, r.value, r.timestamp) for r in src] == [
                (r.key, r.value, r.timestamp) for r in dst
            ]
            assert all(r.headers["origin"] == "west" for r in dst)

    def test_incremental_mirroring(self):
        west, east = two_colos()
        producer = Producer(west)
        mirror = MirrorMaker(west, east)
        for i in range(30):
            producer.send("events", i, key=str(i))
        assert mirror.run_until_synced() == 30
        for i in range(5):
            producer.send("events", 100 + i, key=str(i))
        assert mirror.run_until_synced() == 5

    def test_restarted_mirror_resumes_from_checkpoint(self):
        west, east = two_colos()
        producer = Producer(west)
        for i in range(40):
            producer.send("events", i, key=str(i))
        MirrorMaker(west, east, name="m1").run_until_synced()
        # New MirrorMaker instance with the same name: resumes, no re-copy.
        fresh = MirrorMaker(west, east, name="m1")
        assert fresh.run_until_synced() == 0
        total = sum(
            len(drain(east, "events", p)) for p in range(2)
        )
        assert total == 40

    def test_independent_mirror_names_copy_independently(self):
        west, east = two_colos()
        _clock = west.clock
        south = MessagingCluster(num_brokers=1, clock=west.clock)
        producer = Producer(west)
        for i in range(10):
            producer.send("events", i, key=str(i))
        MirrorMaker(west, east, name="to-east").run_until_synced()
        MirrorMaker(west, south, name="to-south").run_until_synced()
        assert sum(len(drain(east, "events", p)) for p in range(2)) == 10
        assert sum(len(drain(south, "events", p)) for p in range(2)) == 10


class TestLagAndCosts:
    def test_lag_reflects_unmirrored_records(self):
        west, east = two_colos()
        producer = Producer(west)
        mirror = MirrorMaker(west, east)
        for i in range(25):
            producer.send("events", i, key=str(i))
        west.tick(0.0)
        assert mirror.lag() == 25
        mirror.run_until_synced()
        assert mirror.lag() == 0

    def test_wan_rtt_dominates_mirroring_latency(self):
        west, east = two_colos()
        producer = Producer(west)
        for i in range(10):
            producer.send("events", i, key=str(i), partition=0)
        west.tick(0.0)
        slow = MirrorMaker(west, east, name="far", wan_rtt=0.1)
        stats = slow.poll()
        assert stats.simulated_seconds > 0.1  # at least one WAN round trip

    def test_negative_rtt_rejected(self):
        west, east = two_colos()
        with pytest.raises(ConfigError):
            MirrorMaker(west, east, wan_rtt=-1)

    def test_survives_source_broker_failure(self):
        west, east = two_colos()
        producer = Producer(west)
        for i in range(50):
            producer.send("events", i, key=str(i))
        mirror = MirrorMaker(west, east)
        mirror.run_until_synced()
        west.kill_broker(west.leader_of("events", 0))
        for i in range(10):
            producer.send("events", 100 + i, key=str(i))
        copied = mirror.run_until_synced()
        assert copied == 10


class TestTransactionalIsolation:
    """Regression: the mirror used to fetch ``read_uncommitted``, so aborted
    transactional records were re-produced on the target as committed data."""

    def test_aborted_transaction_not_mirrored(self):
        from repro.messaging.transactions import TransactionalProducer

        west, east = two_colos()
        txn = TransactionalProducer(west, "tx")
        txn.begin()
        txn.send("events", "doomed", partition=0)
        txn.abort()
        txn.begin()
        txn.send("events", "kept", partition=0)
        txn.commit()
        west.tick(0.0)
        mirror = MirrorMaker(west, east)
        mirror.run_until_synced()
        values = [r.value for r in drain(east, "events", 0)]
        assert values == ["kept"]
        # The aborted record IS on the source log (read_uncommitted view)...
        assert [r.value for r in drain(west, "events", 0)] == ["doomed", "kept"]
        # ...but never laundered into committed data on the target.
        committed = east.fetch(
            "events", 0, 0, max_messages=100, isolation="read_committed"
        )
        assert [r.value for r in committed.records] == ["kept"]

    def test_open_transaction_holds_mirror_back(self):
        from repro.messaging.transactions import TransactionalProducer

        west, east = two_colos()
        txn = TransactionalProducer(west, "tx")
        txn.begin()
        txn.send("events", "pending", partition=0)
        west.tick(0.0)
        mirror = MirrorMaker(west, east)
        assert mirror.run_until_synced() == 0
        txn.commit()
        west.tick(0.0)
        assert mirror.run_until_synced() == 1
        assert [r.value for r in drain(east, "events", 0)] == ["pending"]

    def test_target_stream_is_what_was_sent_with_nothing_to_strip(self):
        """Source-side producer state is batch metadata, so none of it can
        ride a mirrored record: the target holds the committed stream with
        the headers the producers were handed, and no transaction of its
        own to wait for."""
        from repro.messaging.config import ProducerConfig
        from repro.messaging.transactions import TransactionalProducer

        west, east = two_colos()
        idempotent = Producer(west, ProducerConfig(idempotent=True))
        txn = TransactionalProducer(west, "tx")
        sent = []

        def send(producer, value, headers, keep=True):
            producer.send(
                "events", value, key=f"k-{value}", partition=0,
                timestamp=float(len(sent)), headers=headers,
            )
            if keep:
                sent.append((f"k-{value}", value, float(len(sent)), headers or {}))

        send(idempotent, "plain", {"origin": "west"})
        txn.begin()
        send(txn, "committed-1", {"origin": "west", "n": 1})
        send(txn, "committed-2", None)
        txn.commit()
        txn.begin()
        send(txn, "doomed", {"origin": "west"}, keep=False)
        txn.abort()
        send(idempotent, "tail", None)
        west.tick(0.0)
        MirrorMaker(west, east).run_until_synced()

        mirrored = drain(east, "events", 0)
        assert [
            (r.key, r.value, r.timestamp, dict(r.headers)) for r in mirrored
        ] == sent
        replica = east.broker(east.leader_of("events", 0)).replica(
            TopicPartition("events", 0)
        )
        assert replica.log.batches() == []
        assert replica.last_stable_offset == replica.high_watermark == len(sent)

    def test_invalid_isolation_rejected(self):
        west, east = two_colos()
        with pytest.raises(ConfigError):
            MirrorMaker(west, east, isolation="serializable")


class TestRetentionReseat:
    """Regression: a source retention sweep below the mirror position used to
    raise OffsetOutOfRangeError out of ``poll`` and wedge the mirror."""

    def _west_with_retention(self):
        from repro.messaging.topic import LogConfig, RetentionConfig, TopicConfig

        clock = SimClock()
        west = MessagingCluster(num_brokers=3, clock=clock)
        east = MessagingCluster(num_brokers=3, clock=clock)
        west.create_topic(
            TopicConfig(
                name="logs",
                num_partitions=1,
                replication_factor=3,
                retention=RetentionConfig(retention_seconds=5.0),
                log=LogConfig(segment_max_messages=5),
            )
        )
        return west, east

    def test_retention_storm_reseats_and_counts_skips(self):
        west, east = self._west_with_retention()
        producer = Producer(west)
        for i in range(20):
            producer.send("logs", {"i": i})
        producer.flush()
        west.tick(0.0)
        mirror = MirrorMaker(west, east, topics=["logs"], batch=5)
        stats = mirror.poll()  # position now 5, far behind the head
        assert stats.records_mirrored == 5
        # Retention storm: everything sealed before the sweep disappears.
        west.tick(60.0)
        producer.send("logs", {"i": 99})
        producer.flush()
        west.tick(0.0)
        start = west.beginning_offset(TopicPartition("logs", 0))
        assert start > 5  # the sweep really did delete below the mirror
        total_skipped = 0
        copied = 0
        for _ in range(50):
            stats = mirror.poll()
            total_skipped += stats.records_skipped
            copied += stats.records_mirrored
            west.tick(0.0)
            east.tick(0.0)
            if stats.records_mirrored == 0 and stats.records_skipped == 0:
                break
        assert total_skipped == start - 5
        assert mirror.lag() == 0
        # Mirroring continues from the reseat point: the record produced
        # after the storm arrives on the target.
        values = [r.value for r in drain(east, "logs", 0)]
        assert {"i": 99} in values

    def test_reseat_checkpointed_so_restart_does_not_rewedge(self):
        west, east = self._west_with_retention()
        producer = Producer(west)
        for i in range(20):
            producer.send("logs", {"i": i})
        producer.flush()
        west.tick(0.0)
        mirror = MirrorMaker(west, east, topics=["logs"], batch=5)
        mirror.poll()
        west.tick(60.0)  # sweep
        mirror.poll()    # reseats + commits the reseated position
        restarted = MirrorMaker(west, east, topics=["logs"], batch=5)
        stats = restarted.poll()
        assert stats.records_skipped == 0  # resumed at/after the reseat
