"""Unit tests for partition replicas (roles, HW, epochs, idempotence)."""

from array import array

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    ConfigError,
    NotLeaderForPartitionError,
    StaleEpochError,
)
from repro.common.records import StoredMessage, TopicPartition
from repro.messaging.partition import PartitionReplica
from repro.storage.compaction import LogCompactor
from repro.storage.log import LogConfig, PartitionLog, ReadResult

TP = TopicPartition("t", 0)


def read_of(messages) -> ReadResult:
    """``messages`` as a leader's read hands them to a follower."""
    return ReadResult(messages, array("q", [m.offset for m in messages]), 0.0, 0)


def make_replica(broker_id=0) -> PartitionReplica:
    log = PartitionLog(f"b{broker_id}/t-0", LogConfig(), clock=SimClock())
    return PartitionReplica(TP, broker_id, log)


def leader(broker_id=0, isr=None) -> PartitionReplica:
    replica = make_replica(broker_id)
    replica.become_leader(1, isr if isr is not None else [broker_id])
    return replica


def entries(n, start=0):
    return [(f"k{i}", {"i": i}, 0.0, {}) for i in range(start, start + n)]


class TestRoles:
    def test_starts_as_follower(self):
        assert make_replica().role == "follower"

    def test_become_leader_sets_epoch(self):
        replica = leader()
        assert replica.role == "leader"
        assert replica.leader_epoch == 1

    def test_follower_rejects_appends(self):
        replica = make_replica()
        with pytest.raises(NotLeaderForPartitionError):
            replica.append_batch(entries(1))

    def test_stale_epoch_produce_rejected(self):
        replica = leader()
        with pytest.raises(StaleEpochError):
            replica.append_batch(entries(1), epoch=0)

    def test_re_promotion_with_same_epoch_rejected(self):
        replica = leader()
        with pytest.raises(StaleEpochError):
            replica.become_leader(1, [0])

    def test_demotion_clears_leader_state(self):
        replica = leader(isr=[0, 1])
        replica.record_follower_position(1, 0)
        replica.become_follower(2)
        assert replica.role == "follower"
        with pytest.raises(NotLeaderForPartitionError):
            replica.follower_lag(1)


class TestHighWatermark:
    def test_sole_isr_member_commits_immediately(self):
        replica = leader(isr=[0])
        replica.append_batch(entries(3))
        assert replica.high_watermark == 3

    def test_hw_waits_for_isr_followers(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(3))
        assert replica.high_watermark == 0
        replica.record_follower_position(1, 3)
        assert replica.high_watermark == 3

    def test_hw_is_min_over_isr(self):
        replica = leader(isr=[0, 1, 2])
        replica.append_batch(entries(5))
        replica.record_follower_position(1, 5)
        replica.record_follower_position(2, 2)
        assert replica.high_watermark == 2

    def test_non_isr_followers_do_not_hold_back_hw(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(5))
        replica.record_follower_position(1, 5)
        replica.record_follower_position(2, 0)  # not in ISR
        assert replica.high_watermark == 5

    def test_isr_shrink_advances_hw(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(4))
        assert replica.high_watermark == 0
        replica.set_isr([0])
        assert replica.high_watermark == 4

    def test_hw_never_regresses(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(4))
        replica.record_follower_position(1, 4)
        assert replica.high_watermark == 4
        replica.set_isr([0, 1, 2])  # new member at LEO 0
        assert replica.high_watermark == 4

    def test_follower_hw_capped_by_own_leo(self):
        replica = make_replica(1)
        replica.replicate_batch(read_of([StoredMessage("k", "v", 0.0, offset=0)]))
        replica.update_high_watermark(100)
        assert replica.high_watermark == 1


class TestFetch:
    def test_committed_only_hides_uncommitted_tail(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(5))
        replica.record_follower_position(1, 2)
        visible = replica.fetch(0, committed_only=True).messages
        assert [m.offset for m in visible] == [0, 1]
        everything = replica.fetch(0, committed_only=False).messages
        assert len(everything) == 5


class TestReplicateBatch:
    def test_copies_preserve_offsets_and_sizes(self):
        source = leader()
        source.append_batch(entries(3))
        follower = make_replica(1)
        follower.replicate_batch(read_of(source.log.all_messages()))
        assert [m.offset for m in follower.log.all_messages()] == [0, 1, 2]
        assert follower.log.all_messages()[0].size == source.log.all_messages()[0].size

    def test_leader_cannot_replicate(self):
        replica = leader()
        with pytest.raises(ConfigError):
            replica.replicate_batch(read_of([]))

    def test_copies_are_independent(self):
        # The follower's log lists the leader's record objects themselves;
        # what stays independent is each replica's *log*: truncating,
        # compacting or dropping segments on one never touches the other.
        def replicated_pair():
            config = LogConfig(segment_max_messages=2)
            source = PartitionReplica(
                TP, 0, PartitionLog("b0/t-0", config, clock=SimClock())
            )
            source.become_leader(1, [0])
            source.append_batch(
                [(f"k{i % 2}", {"i": i}, 0.0, {"h": "x" * i}) for i in range(6)]
            )
            follower = PartitionReplica(
                TP, 1, PartitionLog("b1/t-0", config, clock=SimClock())
            )
            follower.replicate_batch(read_of(source.log.all_messages()))
            return source, follower

        def snapshot(replica):
            return [
                (m.offset, m.key, m.size, m.stored_size)
                for m in replica.log.all_messages()
            ]

        source, follower = replicated_pair()
        shared = source.log.all_messages()
        assert len(shared) == 6
        assert all(
            theirs is ours
            for theirs, ours in zip(follower.log.all_messages(), shared)
        )
        before = snapshot(source)

        follower.truncate_to(3)
        assert [m.offset for m in follower.log.all_messages()] == [0, 1, 2]
        assert snapshot(source) == before
        assert source.log.size_bytes == sum(m.stored_size for m in shared)

        source, follower = replicated_pair()
        before = snapshot(follower)
        LogCompactor().compact(source.log)
        assert len(source.log.all_messages()) < 6
        assert snapshot(follower) == before

        source, follower = replicated_pair()
        before = snapshot(source)
        follower.log.drop_segment(follower.log.sealed_segments()[0])
        assert follower.log.log_start_offset == 2
        assert snapshot(source) == before
        assert len(source.log.read(0, 10).messages) == 6


class TestIdempotentProduce:
    def test_duplicate_sequence_returns_original_offsets(self):
        replica = leader()
        first = replica.append_batch(entries(2), producer_id=9, producer_seq=0)
        dup = replica.append_batch(entries(2), producer_id=9, producer_seq=0)
        assert dup.duplicate
        assert dup.base_offset == first.base_offset
        assert replica.log_end_offset == 2

    def test_new_sequence_appends(self):
        replica = leader()
        replica.append_batch(entries(2), producer_id=9, producer_seq=0)
        second = replica.append_batch(entries(2, start=2), producer_id=9, producer_seq=1)
        assert not second.duplicate
        assert replica.log_end_offset == 4

    def test_independent_producers_do_not_collide(self):
        replica = leader()
        replica.append_batch(entries(1), producer_id=1, producer_seq=0)
        second = replica.append_batch(entries(1, start=1), producer_id=2, producer_seq=0)
        assert not second.duplicate

    def test_empty_batch_rejected(self):
        replica = leader()
        with pytest.raises(ConfigError):
            replica.append_batch([])


class TestTruncate:
    def test_truncate_caps_hw(self):
        replica = leader(isr=[0])
        replica.append_batch(entries(5))
        replica.become_follower(2)
        replica.truncate_to(2)
        assert replica.log_end_offset == 2
        assert replica.high_watermark == 2

    def test_follower_lag(self):
        replica = leader(isr=[0, 1])
        replica.append_batch(entries(5))
        replica.record_follower_position(1, 3)
        assert replica.follower_lag(1) == 2
