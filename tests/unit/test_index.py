"""Unit tests for the offset index (§4.1).

The index is each segment's dense offset array beside the records' byte
positions: every record is an entry, and a fetch bisects it to the byte
position its first record starts at.
"""

from array import array

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import StoredMessage
from repro.storage.log import LogConfig, PartitionLog


def record(offset: int, value: str = "v") -> StoredMessage:
    return StoredMessage(key="k", value=value, timestamp=0.0, offset=offset)


def log_of(*records: StoredMessage, per_segment: int = 10) -> PartitionLog:
    log = PartitionLog(
        "p-0", LogConfig(segment_max_messages=per_segment), clock=SimClock()
    )
    log.append_stored_batch(list(records), array("q", [r.offset for r in records]))
    return log


def start_position(segment, offset: int) -> int:
    """The byte position a one-record read of ``segment`` at ``offset``
    starts at."""
    _taken, _found, start, _nbytes = segment.read_into(
        [], array("q"), offset, 1, 1 << 62, True
    )
    return start


class TestMaybeAdd:
    def test_first_record_always_indexed(self):
        # Dense: the first record, and every one after it, is an entry.
        log = log_of(*(record(i, "v" * i) for i in range(7)), per_segment=3)
        for segment in log.segments():
            offsets = [m.offset for m in segment.messages()]
            assert list(segment._offsets) == offsets
            assert segment._offsets[0] == segment.base_offset

    def test_offsets_must_increase(self):
        log = log_of(record(5))
        with pytest.raises(ConfigError):
            log.append_stored_batch([record(5)], array("q", [5]))
        assert list(log.active_segment()._offsets) == [5]


class TestLookup:
    def test_exact_hit(self):
        records = [record(i, "v" * (i + 1)) for i in range(0, 20, 2)]
        segment = log_of(*records).active_segment()
        position = 0
        for r in records:
            assert start_position(segment, r.offset) == position
            position += r.stored_size

    def test_before_first_entry_returns_zero(self):
        # A follower's first segment starts at the leader's first offset.
        segment = log_of(record(100)).active_segment()
        assert start_position(segment, 50) == 0


class TestRebuild:
    def test_rebuild_replaces_entries(self):
        log = log_of(*(record(i, "v" * (i + 1)) for i in range(4)), per_segment=2)
        sealed = log.sealed_segments()[0]
        survivor = list(sealed.messages())[1]
        log.rewrite_segment(sealed, [survivor])
        assert list(sealed._offsets) == [1]
        assert list(sealed._positions) == [0]
        assert start_position(sealed, 0) == 0
        assert log.read(0).messages[0] == survivor
