"""Unit tests for log segments."""

from itertools import accumulate

import pytest

from repro.common.errors import ConfigError
from repro.common.records import StoredMessage
from repro.storage.segment import LogSegment


def msg(offset: int, key="k", value="v", timestamp=None) -> StoredMessage:
    return StoredMessage(
        key=key,
        value=value,
        timestamp=timestamp if timestamp is not None else float(offset),
        offset=offset,
    )


class TestAppend:
    def test_append_returns_byte_positions(self):
        segment = LogSegment(0, created_at=0.0)
        p0 = segment.append(msg(0), now=0.0)
        p1 = segment.append(msg(1), now=0.0)
        assert p0 == 0
        assert p1 == msg(0).stored_size

    def test_size_accumulates(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        segment.append(msg(1), now=0.0)
        assert segment.size_bytes == msg(0).stored_size + msg(1).stored_size

    def test_sealed_rejects_append(self):
        segment = LogSegment(0, created_at=0.0)
        segment.seal()
        with pytest.raises(ConfigError):
            segment.append(msg(0), now=0.0)

    def test_non_monotonic_offset_rejected(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(5), now=0.0)
        with pytest.raises(ConfigError):
            segment.append(msg(5), now=0.0)
        with pytest.raises(ConfigError):
            segment.append(msg(3), now=0.0)

    def test_gaps_allowed(self):
        # Compacted upstream segments replicate with offset gaps.
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        segment.append(msg(7), now=0.0)
        assert [m.offset for m in segment.messages()] == [0, 7]

    def test_negative_base_offset_rejected(self):
        with pytest.raises(ConfigError):
            LogSegment(-1, created_at=0.0)

    def test_last_append_at_tracked(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=4.2)
        assert segment.last_append_at == 4.2


class TestBulkAppend:
    def _run(self) -> list[StoredMessage]:
        # Gapped offsets, differing sizes.
        return [
            msg(offset, value="v" * n)
            for offset, n in ((4, 1), (5, 50), (9, 7))
        ]

    def test_extend_trusted_equals_append_bulk(self):
        run = self._run()
        bulk, trusted = LogSegment(0, 0.0), LogSegment(0, 0.0)
        for segment in (bulk, trusted):
            segment.append(msg(2), now=0.0)  # runs land after existing data
        start = bulk.append_bulk(run, now=3.0)
        assert start == msg(2).stored_size
        cum = list(accumulate((m.stored_size for m in run), initial=start))
        positions, end = cum[:-1], cum[-1]
        trusted._extend_trusted(
            run, [m.offset for m in run], positions, end, now=3.0
        )
        assert list(trusted.messages()) == list(bulk.messages())
        assert trusted._offsets == bulk._offsets == [2, 4, 5, 9]
        assert trusted._positions == bulk._positions
        assert trusted.size_bytes == bulk.size_bytes == end
        assert trusted.last_append_at == bulk.last_append_at == 3.0

    def test_append_bulk_rejects_unordered_run(self):
        segment = LogSegment(0, created_at=0.0)
        with pytest.raises(ConfigError):
            segment.append_bulk([msg(1), msg(1)], now=0.0)
        assert segment.is_empty

    def test_sealed_rejects_both(self):
        segment = LogSegment(0, created_at=0.0)
        segment.seal()
        with pytest.raises(ConfigError):
            segment.append_bulk(self._run(), now=0.0)
        with pytest.raises(ConfigError):
            segment._extend_trusted(self._run(), [4, 5, 9], [0, 1, 2], 3, 0.0)
        assert segment.is_empty


class TestRead:
    def test_read_from_start(self):
        segment = LogSegment(0, created_at=0.0)
        for i in range(5):
            segment.append(msg(i), now=0.0)
        got = segment.read_from(0, max_messages=3)
        assert [m.offset for m in got] == [0, 1, 2]

    def test_read_from_middle(self):
        segment = LogSegment(0, created_at=0.0)
        for i in range(5):
            segment.append(msg(i), now=0.0)
        got = segment.read_from(3, max_messages=10)
        assert [m.offset for m in got] == [3, 4]

    def test_read_skips_compacted_hole(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        segment.append(msg(4), now=0.0)
        got = segment.read_from(2, max_messages=10)
        assert [m.offset for m in got] == [4]

    def test_read_past_end_empty(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        assert segment.read_from(1, max_messages=10) == []

    def test_position_of(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        segment.append(msg(1), now=0.0)
        assert segment.position_of(1) == msg(0).stored_size
        assert segment.position_of(99) == segment.size_bytes


class TestTimestampLookup:
    def test_offset_for_timestamp(self):
        segment = LogSegment(0, created_at=0.0)
        for i in range(5):
            segment.append(msg(i, timestamp=float(i) * 10), now=0.0)
        assert segment.offset_for_timestamp(0.0) == 0
        assert segment.offset_for_timestamp(15.0) == 2
        assert segment.offset_for_timestamp(40.0) == 4

    def test_offset_for_timestamp_beyond_end(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0, timestamp=1.0), now=0.0)
        assert segment.offset_for_timestamp(2.0) is None


class TestRewrite:
    def _sealed_segment(self) -> LogSegment:
        segment = LogSegment(0, created_at=0.0)
        for i in range(4):
            segment.append(msg(i, key=f"k{i % 2}"), now=0.0)
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
        assert segment.position_of(2) == 0

    def test_replace_requires_sealed(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
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
    def test_keys(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0, key="a"), now=0.0)
        segment.append(msg(1, key="b"), now=0.0)
        segment.append(msg(2, key="a"), now=0.0)
        assert segment.keys() == {"a", "b"}

    def test_len(self):
        segment = LogSegment(0, created_at=0.0)
        segment.append(msg(0), now=0.0)
        assert len(segment) == 1

    def test_first_last_offsets(self):
        segment = LogSegment(10, created_at=0.0)
        segment.append(msg(10), now=0.0)
        segment.append(msg(12), now=0.0)
        assert segment.first_offset == 10
        assert segment.last_offset == 12
