"""Unit tests for log segments."""

from array import array

import pytest

from repro.common.errors import ConfigError
from repro.common.records import StoredMessage
from repro.storage.segment import LogSegment, run_of


def msg(offset: int, key="k", value="v", timestamp=None) -> StoredMessage:
    return StoredMessage(
        key=key,
        value=value,
        timestamp=timestamp if timestamp is not None else float(offset),
        offset=offset,
    )


def append(segment: LogSegment, *messages: StoredMessage) -> None:
    """Land ``messages`` as :meth:`PartitionLog._append_run` does: each
    record starts where the segment's bytes end."""
    position = segment.size_bytes
    positions = []
    for message in messages:
        positions.append(position)
        position += message.stored_size
    segment.extend(
        list(messages), array("q", [m.offset for m in messages]), positions, position
    )


def read(segment: LogSegment, offset: int, max_messages: int):
    """Records with offset >= ``offset``, at most ``max_messages``, read
    into an empty run, and the byte position the read starts at."""
    pieces, offsets = [], array("q")
    taken, _found, start, _nbytes = segment.read_into(
        pieces, offsets, offset, max_messages, 1 << 62, True
    )
    return run_of(pieces, offsets, taken), start


class TestAppend:
    def test_append_returns_byte_positions(self):
        segment = LogSegment(0)
        append(segment, msg(0), msg(1))
        assert list(segment._positions) == [0, msg(0).stored_size]

    def test_size_accumulates(self):
        segment = LogSegment(0)
        append(segment, msg(0))
        append(segment, msg(1))
        assert segment.size_bytes == msg(0).stored_size + msg(1).stored_size

    def test_sealed_rejects_append(self):
        segment = LogSegment(0)
        segment.seal()
        with pytest.raises(ConfigError):
            append(segment, msg(0))
        assert segment.is_empty

    def test_gaps_allowed(self):
        # Compacted upstream segments replicate with offset gaps.
        segment = LogSegment(0)
        append(segment, msg(0))
        append(segment, msg(7))
        assert [m.offset for m in segment.messages()] == [0, 7]

    def test_negative_base_offset_rejected(self):
        with pytest.raises(ConfigError):
            LogSegment(-1)


class TestRead:
    def test_read_from_start(self):
        segment = LogSegment(0)
        for i in range(5):
            append(segment, msg(i))
        got, _start = read(segment, 0, max_messages=3)
        assert [m.offset for m in got] == [0, 1, 2]

    def test_read_from_middle(self):
        segment = LogSegment(0)
        for i in range(5):
            append(segment, msg(i))
        got, _start = read(segment, 3, max_messages=10)
        assert [m.offset for m in got] == [3, 4]

    def test_read_skips_compacted_hole(self):
        segment = LogSegment(0)
        append(segment, msg(0))
        append(segment, msg(4))
        got, _start = read(segment, 2, max_messages=10)
        assert [m.offset for m in got] == [4]

    def test_read_past_end_empty(self):
        segment = LogSegment(0)
        append(segment, msg(0))
        assert read(segment, 1, max_messages=10) == ([], segment.size_bytes)

    def test_position_of(self):
        # A read starts at its first record's byte position, or at the
        # segment's end when it finds none.
        segment = LogSegment(0)
        append(segment, msg(0))
        append(segment, msg(1))
        assert read(segment, 1, 1)[1] == msg(0).stored_size
        assert read(segment, 99, 1)[1] == segment.size_bytes


class TestTimestampLookup:
    def test_offset_for_timestamp(self):
        segment = LogSegment(0)
        for i in range(5):
            append(segment, msg(i, timestamp=float(i) * 10))
        assert segment.offset_for_timestamp(0.0) == 0
        assert segment.offset_for_timestamp(15.0) == 2
        assert segment.offset_for_timestamp(40.0) == 4

    def test_offset_for_timestamp_beyond_end(self):
        segment = LogSegment(0)
        append(segment, msg(0, timestamp=1.0))
        assert segment.offset_for_timestamp(2.0) is None


class TestRewrite:
    def _sealed_segment(self) -> LogSegment:
        segment = LogSegment(0)
        for i in range(4):
            append(segment, msg(i, key=f"k{i % 2}"))
        segment.seal()
        return segment

    def test_replace_reclaims_bytes(self):
        segment = self._sealed_segment()
        removed_bytes = sum(
            m.stored_size for m in segment.messages() if m.offset < 2
        )
        survivors = [m for m in segment.messages() if m.offset >= 2]
        reclaimed = segment.replace_messages(survivors)
        assert reclaimed == removed_bytes
        assert [m.offset for m in segment.messages()] == [2, 3]

    def test_replace_recomputes_positions(self):
        segment = self._sealed_segment()
        survivors = list(segment.messages())[2:]
        segment.replace_messages(survivors)
        assert list(segment._positions) == [0, survivors[0].stored_size]
        assert read(segment, 2, 1)[1] == 0

    def test_replace_requires_sealed(self):
        segment = LogSegment(0)
        append(segment, msg(0))
        with pytest.raises(ConfigError):
            segment.replace_messages([])

    def test_replace_requires_ordered(self):
        segment = self._sealed_segment()
        messages = list(segment.messages())
        with pytest.raises(ConfigError):
            segment.replace_messages([messages[1], messages[0]])

    def test_replace_to_empty(self):
        segment = self._sealed_segment()
        segment.replace_messages([])
        assert segment.is_empty
        assert segment.size_bytes == 0
        assert segment.first_offset is None


class TestIntrospection:
    def test_len(self):
        segment = LogSegment(0)
        append(segment, msg(0))
        assert len(segment) == 1

    def test_first_last_offsets(self):
        segment = LogSegment(10)
        append(segment, msg(10))
        append(segment, msg(12))
        assert segment.first_offset == 10
        assert segment.last_offset == 12
