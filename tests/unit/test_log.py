"""Unit tests for the partition log."""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import ConfigError, OffsetOutOfRangeError
from repro.common.records import RECORD_FRAMING_BYTES, StoredMessage
from repro.storage.log import LogConfig, PartitionLog


def make_log(**config_kwargs) -> tuple[SimClock, PartitionLog]:
    clock = SimClock()
    config = LogConfig(**{"segment_max_messages": 10, **config_kwargs})
    return clock, PartitionLog("test-0", config, clock=clock)


class TestAppend:
    def test_offsets_sequential_from_zero(self):
        _clock, log = make_log()
        offsets = [log.append("k", i).offset for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]
        assert log.log_end_offset == 5

    def test_append_uses_clock_timestamp(self):
        clock, log = make_log()
        clock.advance(7.0)
        log.append("k", "v")
        assert log.all_messages()[0].timestamp == 7.0

    def test_explicit_timestamp_kept(self):
        _clock, log = make_log()
        log.append("k", "v", timestamp=3.5)
        assert log.all_messages()[0].timestamp == 3.5

    def test_rolls_segments_by_message_count(self):
        _clock, log = make_log(segment_max_messages=3)
        for i in range(10):
            log.append("k", i)
        assert log.segment_count == 4
        assert all(s.sealed for s in log.segments()[:-1])
        assert not log.active_segment().sealed

    def test_rolls_segments_by_bytes(self):
        _clock, log = make_log(segment_max_messages=10_000, segment_max_bytes=100)
        for i in range(10):
            log.append("k", "x" * 30)
        assert log.segment_count > 1

    def test_oversized_message_rejected(self):
        _clock, log = make_log(max_message_bytes=50)
        with pytest.raises(ConfigError):
            log.append("k", "x" * 100)

    def test_append_latency_positive(self):
        _clock, log = make_log()
        assert log.append("k", "v").latency > 0


class TestAppendStored:
    def test_preserves_offsets(self):
        _clock, log = make_log()
        log.append_stored(StoredMessage("k", "v", 0.0, offset=5))
        assert log.log_end_offset == 6
        assert log.all_messages()[0].offset == 5

    def test_rejects_regression(self):
        _clock, log = make_log()
        log.append_stored(StoredMessage("k", "v", 0.0, offset=5))
        with pytest.raises(ConfigError):
            log.append_stored(StoredMessage("k", "v", 0.0, offset=4))


class TestRead:
    def _filled(self, n=25) -> PartitionLog:
        _clock, log = make_log(segment_max_messages=10)
        for i in range(n):
            log.append(f"k{i}", {"i": i})
        return log

    def test_read_from_start(self):
        log = self._filled()
        result = log.read(0, max_messages=5)
        assert [m.offset for m in result.messages] == [0, 1, 2, 3, 4]

    def test_read_spans_segments(self):
        log = self._filled()
        result = log.read(8, max_messages=5)
        assert [m.offset for m in result.messages] == [8, 9, 10, 11, 12]

    def test_read_at_end_returns_empty(self):
        log = self._filled()
        result = log.read(25, max_messages=5)
        assert result.messages == []
        assert result.log_end_offset == 25

    def test_read_past_end_raises(self):
        log = self._filled()
        with pytest.raises(OffsetOutOfRangeError) as excinfo:
            log.read(26)
        assert excinfo.value.log_end == 25

    def test_read_below_start_raises_after_retention(self):
        log = self._filled()
        log.drop_segment(log.sealed_segments()[0])
        assert log.log_start_offset == 10
        with pytest.raises(OffsetOutOfRangeError):
            log.read(5)

    def test_byte_budget_limits_batch(self):
        log = self._filled()
        one = log.read(0, max_messages=100, max_bytes=1).messages
        assert len(one) == 1  # always at least one (anti-wedge rule)
        size2 = sum(m.stored_size for m in log.read(0, max_messages=2).messages)
        batch = log.read(0, max_messages=100, max_bytes=size2).messages
        assert len(batch) == 2

    def test_zero_max_messages(self):
        log = self._filled()
        assert log.read(0, max_messages=0).messages == []

    def test_read_latency_grows_with_bytes(self):
        log = self._filled()
        small = log.read(0, max_messages=1).latency
        large = log.read(0, max_messages=20).latency
        assert large > small

    @pytest.mark.parametrize("start, k", [(7, 1), (4, 2), (1, 3), (0, 3)])
    def test_read_charges_one_probe_per_segment_plus_its_pages(self, start, k):
        # Three segments of three small records, each on one page that the
        # append left resident: a read touching k segments costs k offset
        # probes and k hot page reads, folded in the order the log reads.
        _clock, log = make_log(segment_max_messages=3)
        for i in range(9):
            log.append("k", i)
        model = DEFAULT_COST_MODEL
        expected = 0.0
        for _ in range(k):
            expected += model.request_overhead / 10
            expected += model.ram_read(model.page_size)
        result = log.read(start, max_messages=9)
        assert [m.offset for m in result.messages] == list(range(start, 9))
        assert result.latency == expected


class TestTimestampLookup:
    def test_finds_first_at_or_after(self):
        _clock, log = make_log()
        for i in range(10):
            log.append("k", i, timestamp=float(i))
        assert log.offset_for_timestamp(0.0) == 0
        assert log.offset_for_timestamp(4.5) == 5
        assert log.offset_for_timestamp(9.0) == 9

    def test_beyond_end_returns_none(self):
        _clock, log = make_log()
        log.append("k", "v", timestamp=1.0)
        assert log.offset_for_timestamp(2.0) is None

    def test_spans_segments(self):
        _clock, log = make_log(segment_max_messages=3)
        for i in range(9):
            log.append("k", i, timestamp=float(i))
        assert log.offset_for_timestamp(7.0) == 7


class TestTruncate:
    def test_truncate_drops_tail(self):
        _clock, log = make_log(segment_max_messages=5)
        for i in range(12):
            log.append("k", i)
        removed = log.truncate_to(7)
        assert removed == 5
        assert log.log_end_offset == 7
        assert [m.offset for m in log.all_messages()] == list(range(7))

    def test_truncate_to_zero(self):
        _clock, log = make_log()
        for i in range(3):
            log.append("k", i)
        log.truncate_to(0)
        assert log.log_end_offset == 0
        assert log.all_messages() == []

    def test_append_after_truncate_continues_from_cut(self):
        _clock, log = make_log()
        for i in range(5):
            log.append("k", i)
        log.truncate_to(3)
        result = log.append("k", "new")
        assert result.offset == 3

    def test_truncate_below_log_start_rejected(self):
        _clock, log = make_log(segment_max_messages=5)
        for i in range(12):
            log.append("k", i)
        log.drop_segment(log.sealed_segments()[0])
        with pytest.raises(ConfigError):
            log.truncate_to(2)

    def test_truncate_noop_beyond_end(self):
        _clock, log = make_log()
        for i in range(3):
            log.append("k", i)
        assert log.truncate_to(10) == 0
        assert log.log_end_offset == 3


class TestSegmentManagement:
    def test_drop_segment_advances_log_start(self):
        _clock, log = make_log(segment_max_messages=5)
        for i in range(12):
            log.append("k", i)
        first = log.sealed_segments()[0]
        freed = log.drop_segment(first)
        assert freed > 0
        assert log.log_start_offset == 5

    def test_drop_active_segment_rejected(self):
        _clock, log = make_log()
        log.append("k", "v")
        with pytest.raises(ConfigError):
            log.drop_segment(log.active_segment())

    def test_drop_foreign_segment_rejected(self):
        _clock, log = make_log(segment_max_messages=2)
        for i in range(5):
            log.append("k", i)
        _clock2, other = make_log(segment_max_messages=2)
        for i in range(5):
            other.append("k", i)
        with pytest.raises(ConfigError):
            log.drop_segment(other.sealed_segments()[0])

    def test_rewrite_segment_preserves_reads(self):
        _clock, log = make_log(segment_max_messages=5)
        for i in range(12):
            log.append(f"k{i % 2}", i)
        segment = log.sealed_segments()[0]
        survivors = [m for m in segment.messages() if m.offset >= 3]
        log.rewrite_segment(segment, survivors)
        result = log.read(0, max_messages=4)
        assert [m.offset for m in result.messages] == [3, 4, 5, 6]

    def test_size_and_count(self):
        _clock, log = make_log()
        for i in range(4):
            log.append("k", i)
        assert log.message_count == 4
        assert log.size_bytes == sum(m.stored_size for m in log.all_messages())
        # A record's size is its payload; the log charges it with framing.
        assert all(
            m.stored_size == m.size + RECORD_FRAMING_BYTES for m in log.all_messages()
        )
