"""Unit tests for brokers."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    PartitionNotFoundError,
)
from repro.common.records import TopicPartition
from repro.messaging.broker import Broker
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig

TP = TopicPartition("t", 0)


def make_broker(**kwargs) -> tuple[SimClock, Broker]:
    clock = SimClock()
    return clock, Broker(0, clock, **kwargs)


def leader_broker(config: TopicConfig | None = None) -> tuple[SimClock, Broker]:
    clock, broker = make_broker()
    cfg = config if config is not None else TopicConfig(name="t")
    replica = broker.host_partition(TP, cfg)
    replica.become_leader(1, [0])
    return clock, broker


def entries(n):
    return [(f"k{i % 3}", {"i": i}, 0.0, {}) for i in range(n)]


class TestHosting:
    def test_host_and_lookup(self):
        _clock, broker = leader_broker()
        assert broker.hosts(TP)
        assert broker.replica(TP).partition == TP

    def test_duplicate_hosting_rejected(self):
        _clock, broker = leader_broker()
        with pytest.raises(ConfigError):
            broker.host_partition(TP, TopicConfig(name="t"))

    def test_unknown_partition_rejected(self):
        _clock, broker = make_broker()
        with pytest.raises(PartitionNotFoundError):
            broker.replica(TP)

    def test_led_partitions(self):
        _clock, broker = leader_broker()
        other = TopicPartition("t", 1)
        broker.host_partition(other, TopicConfig(name="t2"))
        assert broker.led_partitions() == [TP]


class TestRequestPaths:
    def test_produce_then_fetch_roundtrip(self):
        _clock, broker = leader_broker()
        result, latency = broker.produce(TP, entries(3))
        assert result.base_offset == 0
        assert result.last_offset == 2
        assert latency > 0
        read, fetch_latency, batches = broker.fetch(TP, 0, max_messages=10)
        assert [m.offset for m in read.messages] == [0, 1, 2]
        assert fetch_latency > 0
        assert batches == []  # a produce without a producer id: no entry

    def test_offline_broker_rejects_requests(self):
        _clock, broker = leader_broker()
        broker.shutdown()
        with pytest.raises(BrokerUnavailableError):
            broker.produce(TP, entries(1))
        with pytest.raises(BrokerUnavailableError):
            broker.fetch(TP, 0)

    def test_replica_fetch_reports_position(self):
        _clock, broker = leader_broker()
        broker.produce(TP, entries(3))
        read, leo, hw, batches = broker.replica_fetch(TP, 0, follower_id=1)
        assert len(read.messages) == 3 and list(read.offsets) == [0, 1, 2]
        assert leo == 3
        assert read.stored_bytes == sum(m.stored_size for m in read.messages)
        frames = [frame for *_entry, frame in batches if frame is not None]
        assert frames == []  # uncompressed produce keeps no frames
        assert batches == []  # ... and one without a producer id no entry

    def test_replica_fetch_ships_the_batch_entries_it_cuts(self):
        """Entries overlapping the copied run ship whole; the follower clips."""
        _clock, broker = leader_broker()
        broker.produce(TP, entries(3), producer_id=7, producer_seq=0)
        broker.produce(TP, entries(3), producer_id=7, producer_seq=1, transactional=True)
        read, *_rest, batches = broker.replica_fetch(
            TP, 1, follower_id=1, max_messages=3
        )
        assert [m.offset for m in read.messages] == list(read.offsets) == [1, 2, 3]
        assert batches == [
            (0, 2, 7, 0, "idempotent", None), (3, 5, 7, 1, "transactional", None)
        ]

    def test_metrics_recorded(self):
        _clock, broker = leader_broker()
        broker.produce(TP, entries(5))
        broker.fetch(TP, 0)
        assert broker.metrics.counter("messaging.broker.messages_in").value == 5
        assert broker.metrics.counter("messaging.broker.messages_out").value == 5


class TestMaintenance:
    def test_retention_runs_for_delete_topics(self):
        clock, broker = make_broker()
        config = TopicConfig(
            name="t",
            retention=RetentionConfig(retention_seconds=1.0),
            log=LogConfig(segment_max_messages=2),
        )
        replica = broker.host_partition(TP, config)
        replica.become_leader(1, [0])
        broker.produce(TP, entries(10))
        clock.advance(100.0)
        deleted = broker.run_retention()
        assert deleted > 0

    def test_compaction_runs_for_compact_topics(self):
        _clock, broker = make_broker()
        config = TopicConfig(
            name="t",
            cleanup_policy="compact",
            log=LogConfig(segment_max_messages=2),
        )
        replica = broker.host_partition(TP, config)
        replica.become_leader(1, [0])
        broker.produce(TP, entries(10))  # keys cycle over 3 values
        removed = broker.run_compaction()
        assert removed > 0

    def test_retention_skips_compact_topics(self):
        clock, broker = make_broker()
        config = TopicConfig(
            name="t",
            cleanup_policy="compact",
            retention=RetentionConfig(retention_seconds=1.0),
            log=LogConfig(segment_max_messages=2),
        )
        replica = broker.host_partition(TP, config)
        replica.become_leader(1, [0])
        broker.produce(TP, entries(10))
        clock.advance(100.0)
        assert broker.run_retention() == 0


class TestLifecycle:
    def test_shutdown_marks_replicas_offline(self):
        _clock, broker = leader_broker()
        broker.shutdown()
        assert broker.replica(TP).role == "offline"

    def test_restart_preserves_log_but_cools_cache(self):
        _clock, broker = leader_broker()
        broker.produce(TP, entries(5))
        assert broker.page_cache.resident_bytes() > 0
        broker.shutdown()
        assert broker.page_cache.resident_pages_of(
            broker.replica(TP).log.active_segment().file_id
        ) == 0
        broker.startup()
        assert broker.replica(TP).log_end_offset == 5  # durable log survived
        assert broker.replica(TP).role == "follower"  # must re-sync
