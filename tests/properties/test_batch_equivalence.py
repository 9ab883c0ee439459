"""The batch append path must land records exactly as the per-record rule says.

``PartitionLog`` has one implementation of "land records in a log"
(``_append_run`` → ``LogSegment.extend`` / ``PageCache.write_batch``),
and it works on whole segment-contiguous chunks.  The rule it implements is
per record (DESIGN.md §8), so the reference
(:class:`~tests.reference.log.ReferenceLog`) is that rule written out the
slow way, one record at a time, sharing no code with ``repro.storage``.
The properties drive the log and the reference side by side over random
workloads — byte- and message-triggered segment rolls, offset gaps,
oversized and out-of-order records — and require exact equality: offsets,
segment layout and roll points, record positions, simulated latency to the
last ulp, and the commit-prefix-then-raise error behaviour.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import StoredMessage, estimate_size
from repro.storage.log import LogConfig, PartitionLog
from tests.reference.log import ReferenceLog

keys = st.one_of(st.none(), st.text(alphabet="abcde", min_size=1, max_size=3))
values = st.one_of(
    st.integers(),
    st.text(alphabet="xyz", min_size=0, max_size=40),
    st.none(),
)
headers = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(alphabet="hk", min_size=1, max_size=2), st.integers(), max_size=2
    ),
)
entries = st.lists(st.tuples(keys, values, st.none(), headers), max_size=80)
configs = st.builds(
    LogConfig,
    segment_max_bytes=st.integers(min_value=30, max_value=400),
    segment_max_messages=st.integers(min_value=1, max_value=15),
)


def fresh_log(config: LogConfig) -> PartitionLog:
    return PartitionLog("p-0", config, clock=SimClock())


def chunked(data, draw):
    """Split ``data`` into random contiguous chunks (drawn sizes)."""
    chunks = []
    i = 0
    while i < len(data):
        size = draw.draw(st.integers(min_value=1, max_value=len(data) - i))
        chunks.append(data[i : i + size])
        i += size
    return chunks


def layout(log: PartitionLog) -> dict:
    """Everything an append decides about a log, in :meth:`ReferenceLog.layout`
    shape: records, segment layout and seal flags, positions, end offset."""
    segments = [
        {
            "base": s.base_offset, "sealed": s.sealed,
            "records": list(s.messages()), "offsets": list(s._offsets),
            "positions": list(s._positions), "bytes": s.size_bytes,
        }
        for s in log.segments()
    ]
    return {
        "leo": log.log_end_offset,
        "start": log.log_start_offset,
        "segments": segments,
    }


def offsets_of(records) -> array:
    """The offset column a leader's read hands a follower with ``records``."""
    return array("q", [r.offset for r in records])


def raised(call, *args) -> str | None:
    """The ConfigError text ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except ConfigError as exc:
        return str(exc)
    return None


class TestAppendBatchEquivalence:
    @given(entries, configs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_record_loop_exactly(self, data, config, draw):
        reference, batched = ReferenceLog(config), fresh_log(config)
        for chunk in chunked(data, draw):
            offsets, latency = reference.append(chunk)
            result = batched.append_batch(chunk)
            # Exact float equality: the batch folds per record, left to
            # right, so not even the last ulp may differ.
            assert result.latency == latency
            assert result.count == len(chunk)
            assert result.base_offset == offsets[0]
            assert result.last_offset == offsets[-1]
            assert layout(batched) == reference.layout()

    @given(entries, configs)
    @settings(max_examples=50, deadline=None)
    def test_single_batch_equals_one_big_loop(self, data, config):
        reference, batched = ReferenceLog(config), fresh_log(config)
        _offsets, latency = reference.append(data)
        assert batched.append_batch(data).latency == latency
        assert layout(batched) == reference.layout()

    @given(entries, configs, st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_chunking_equals_one_batch(self, data, config, draw):
        # How entries are cut into batches never shows in the log.
        whole, pieces = fresh_log(config), fresh_log(config)
        whole.append_batch(data)
        for chunk in chunked(data, draw):
            pieces.append_batch(chunk)
        assert layout(pieces) == layout(whole)

    @given(entries, configs, st.data())
    @settings(max_examples=50, deadline=None)
    def test_oversized_record_commits_prefix_then_raises(
        self, data, config, draw
    ):
        # Plant an oversized record at a random position: everything before
        # it must be appended, then the error raised.
        pos = draw.draw(st.integers(min_value=0, max_value=len(data)))
        self.check_oversized(data, config, pos, draw.draw(st.booleans()))

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_oversized_record_under_a_supplied_sizes_column(self, pos):
        # First, middle, last: the one max() over the column trips and the
        # batch is cut exactly where the per-record loop stopped.
        data = [(f"k{i}", "v" * i, None, {"h": i}) for i in range(4)]
        self.check_oversized(data, LogConfig(segment_max_messages=3), pos, True)

    @staticmethod
    def check_oversized(data, config, pos, with_sizes):
        big = "z" * (config.max_message_bytes + 1)
        poisoned = data[:pos] + [("k", big, None, None)] + data[pos:]
        sizes = None
        if with_sizes:  # the produce path's column: payload, framing excluded
            sizes = [
                estimate_size(k) + estimate_size(v) + estimate_size(h)
                for k, v, _ts, h in poisoned
            ]
        reference, batched = ReferenceLog(config), fresh_log(config)
        expected = raised(reference.append, poisoned)
        assert expected is not None
        assert raised(batched.append_batch, poisoned, None, sizes) == expected
        assert batched.log_end_offset == pos
        assert layout(batched) == reference.layout()


def gapped_messages(data, draw):
    """StoredMessages with strictly increasing, possibly gapped offsets —
    what a follower sees fetching from a compacted leader."""
    messages = []
    offset = 0
    for key, value, _ts, hdr in data:
        offset += draw.draw(st.integers(min_value=1, max_value=4))
        messages.append(
            StoredMessage(
                key=key, value=value, timestamp=0.0, offset=offset,
                headers=hdr if hdr is not None else {},
            )
        )
    return messages


class TestAppendStoredBatchEquivalence:
    @given(entries, configs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_record_loop_exactly(self, data, config, draw):
        messages = gapped_messages(data, draw)
        reference, batched = ReferenceLog(config), fresh_log(config)
        for chunk in chunked(messages, draw):
            latency = reference.append_stored(chunk)
            result = batched.append_stored_batch(chunk, offsets_of(chunk))
            assert result.latency == latency
            assert (result.base_offset, result.last_offset, result.count) == (
                chunk[0].offset, chunk[-1].offset, len(chunk)
            )
            assert layout(batched) == reference.layout()

    @given(entries, configs, st.data())
    @settings(max_examples=50, deadline=None)
    def test_out_of_order_commits_prefix_then_raises(self, data, config, draw):
        messages = gapped_messages(data, draw)
        if len(messages) < 2:
            return
        # Repeat the first message at an already-used offset somewhere later.
        bad_after = draw.draw(
            st.integers(min_value=1, max_value=len(messages) - 1)
        )
        poisoned = messages[:bad_after] + [messages[0]] + messages[bad_after:]
        reference, batched = ReferenceLog(config), fresh_log(config)
        expected = raised(reference.append_stored, poisoned)
        assert expected is not None
        assert raised(
            batched.append_stored_batch, poisoned, offsets_of(poisoned)
        ) == expected
        assert batched.log_end_offset == messages[bad_after - 1].offset + 1
        assert layout(batched) == reference.layout()


class TestReadEquivalence:
    @given(entries, configs, st.data())
    @settings(max_examples=50, deadline=None)
    def test_reads_agree_between_batch_and_loop_built_logs(
        self, data, config, draw
    ):
        # One-record batches vs. random chunking: reads cannot tell.
        looped, batched = fresh_log(config), fresh_log(config)
        for key, value, ts, hdr in data:
            looped.append(key, value, ts, hdr)
        for chunk in chunked(data, draw):
            batched.append_batch(chunk)
        end = looped.log_end_offset
        for _ in range(4):
            start = draw.draw(st.integers(min_value=0, max_value=end))
            max_messages = draw.draw(st.integers(min_value=0, max_value=end + 1))
            max_bytes = draw.draw(
                st.one_of(st.none(), st.integers(min_value=1, max_value=600))
            )
            got_a = looped.read(start, max_messages, max_bytes)
            got_b = batched.read(start, max_messages, max_bytes)
            assert got_a.messages == got_b.messages
            assert got_a.latency == got_b.latency
            assert got_a.next_offset == got_b.next_offset
            assert got_a.log_end_offset == got_b.log_end_offset
