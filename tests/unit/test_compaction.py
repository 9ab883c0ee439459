"""Unit tests for log compaction (§4.1)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.storage.compaction import CompactionConfig, LogCompactor
from repro.storage.log import LogConfig, PartitionLog


def keyed_log(clock: SimClock, updates=30, keys=3, per_segment=5) -> PartitionLog:
    log = PartitionLog(
        "t-0", LogConfig(segment_max_messages=per_segment), clock=clock
    )
    for i in range(updates):
        log.append(f"k{i % keys}", {"rev": i}, timestamp=clock.now())
        clock.advance(0.1)
    return log


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            CompactionConfig(tombstone_retention_seconds=-1)


class TestCompaction:
    def test_keeps_only_latest_per_key_in_sealed(self):
        clock = SimClock()
        log = keyed_log(clock)
        LogCompactor(clock=clock).compact(log)
        sealed_msgs = [
            m for s in log.sealed_segments() for m in s.messages()
        ]
        # Latest of every key lives in the active segment (keys cycle), so
        # every sealed record is superseded.
        assert sealed_msgs == []

    def test_survivors_keep_original_offsets(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=4), clock=clock)
        for i, key in enumerate(["a", "b", "a", "b", "c", "c", "d", "d", "x", "y"]):
            log.append(key, i)
        LogCompactor(clock=clock).compact(log)
        offsets = [m.offset for m in log.all_messages()]
        assert offsets == sorted(offsets)
        assert set(offsets) <= set(range(10))

    def test_active_segment_never_compacted(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=100), clock=clock)
        for i in range(10):
            log.append("same-key", i)
        result = LogCompactor(clock=clock).compact(log)
        assert result.messages_removed == 0
        assert log.message_count == 10

    def test_latest_value_readable_after_compaction(self):
        clock = SimClock()
        log = keyed_log(clock, updates=30, keys=3)
        LogCompactor(clock=clock).compact(log)
        values = {m.key: m.value["rev"] for m in log.all_messages()}
        assert values == {"k0": 27, "k1": 28, "k2": 29}

    def test_bytes_reclaimed_reported(self):
        clock = SimClock()
        log = keyed_log(clock)
        before = log.size_bytes
        result = LogCompactor(clock=clock).compact(log)
        assert result.bytes_reclaimed == before - log.size_bytes
        assert result.bytes_reclaimed > 0

    def test_no_sealed_segments_noop(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(), clock=clock)
        log.append("k", "v")
        result = LogCompactor(clock=clock).compact(log)
        assert not result.ran

    def test_idempotent(self):
        clock = SimClock()
        log = keyed_log(clock)
        LogCompactor(clock=clock).compact(log)
        second = LogCompactor(clock=clock).compact(log)
        assert second.messages_removed == 0


class TestTombstones:
    def test_tombstone_supersedes_older_values(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=2), clock=clock)
        log.append("k", "v1", timestamp=0.0)
        log.append("k", "v2", timestamp=0.0)
        log.append("k", None, timestamp=0.0)  # tombstone
        log.append("other", "x", timestamp=0.0)
        log.append("pad", "y", timestamp=0.0)  # seals the tombstone segment
        compactor = LogCompactor(
            CompactionConfig(tombstone_retention_seconds=100.0), clock=clock
        )
        compactor.compact(log)
        sealed_keys = {
            m.key: m.value for s in log.sealed_segments() for m in s.messages()
        }
        assert "v1" not in sealed_keys.values()
        assert sealed_keys.get("k") is None  # tombstone retained (young)

    def test_old_tombstones_dropped_entirely(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=2), clock=clock)
        log.append("k", "v1", timestamp=0.0)
        log.append("k", None, timestamp=0.0)
        log.append("pad1", "x", timestamp=0.0)
        log.append("pad2", "y", timestamp=0.0)
        log.append("pad3", "z", timestamp=0.0)
        clock.advance(1000.0)
        compactor = LogCompactor(
            CompactionConfig(tombstone_retention_seconds=10.0), clock=clock
        )
        result = compactor.compact(log)
        assert result.tombstones_dropped == 1
        assert "k" not in {m.key for m in log.all_messages()}


class TestTransactionsBoundTheCleaner:
    """A committed value survives every write a ``read_committed`` reader
    cannot see (regression: an open or aborted transaction's tombstone made
    the cleaner drop the committed value it shadowed)."""

    @staticmethod
    def log_with_a_shadowing_tombstone(clock):
        log = PartitionLog("t-0", LogConfig(segment_max_messages=2), clock=clock)
        log.append("k", 0)  # offset 0
        log.append("k", 1)  # offset 1, committed: seals the first segment
        log.append("k", None)  # offset 2, the transaction's tombstone
        return log

    def test_an_open_transaction_shadows_nothing(self):
        clock = SimClock()
        log = self.log_with_a_shadowing_tombstone(clock)
        LogCompactor(clock=clock).compact(log, bounds=lambda: (2, []))
        assert [(m.offset, m.value) for m in log.all_messages()] == [
            (1, 1), (2, None)
        ]

    def test_an_aborted_transaction_shadows_nothing(self):
        clock = SimClock()
        log = self.log_with_a_shadowing_tombstone(clock)
        LogCompactor(clock=clock).compact(log, bounds=lambda: (None, [(2, 2)]))
        assert [(m.offset, m.value) for m in log.all_messages()] == [
            (1, 1), (2, None)
        ]

    def test_without_transactions_the_tombstone_wins(self):
        clock = SimClock()
        log = self.log_with_a_shadowing_tombstone(clock)
        LogCompactor(clock=clock).compact(log)
        assert [(m.offset, m.value) for m in log.all_messages()] == [(2, None)]
