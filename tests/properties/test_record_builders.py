"""A batch's records are built in one C pass, and equal the constructor's.

The log's ``append_batch``, a kept frame's ``StoredFrame.records`` and the
fetch buffer's ``FetchBatch.inflate`` each build a whole batch with one
``map(new_record, repeat(cls), zip(*columns))``, with no Python code per
record.  The per-record construction they replaced lives on only here, as
the reference model: each record a builder makes must equal, one by one, the
one the public constructor builds from the same fields — same type, same
eight ``ConsumerRecord`` fields, same ``stored_size``, and the shared
``EMPTY_HEADERS`` object exactly where the constructor puts it.  Equality of
records ignores ``stored_size`` and plain tuples, so the comparison is of
the fields themselves.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.compression import compress_entries, payload_sizes
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import ConfigError
from repro.common.records import (
    EMPTY_HEADERS,
    RECORD_FRAMING_BYTES,
    ConsumerRecord,
    StoredMessage,
    TopicPartition,
)
from repro.common.serde import JsonSerde, StringSerde
from repro.messaging.fetchbuffer import FetchBatch
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.segment import StoredFrame

TP = TopicPartition("t", 3)

#: Examples per property: 100 in tier-1, as deep as the profile asks under
#: ``--hypothesis-profile=deep`` (CI's ``determinism`` job).
EXAMPLES = max(100, settings.default.max_examples)

texts = st.text(max_size=6)
scalars = st.one_of(
    st.none(), texts, st.binary(max_size=6), st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
)
keys = st.one_of(st.none(), texts, st.binary(max_size=4), st.integers(0, 9))
values = st.one_of(scalars, st.dictionaries(texts, scalars, max_size=3))
timestamps = st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False))
# ``None`` and ``EMPTY_HEADERS`` both mean "no headers"; ``{}`` is a dict of
# the caller's own, which the constructor keeps.
header_names = st.text(min_size=1, max_size=4).filter(lambda name: name[0] != "_")
headers = st.one_of(
    st.none(), st.just(EMPTY_HEADERS), st.builds(dict),
    st.dictionaries(header_names, st.integers(0, 9), min_size=1, max_size=2),
)
entries = st.lists(st.tuples(keys, values, timestamps, headers), max_size=12)


def assert_same(built, reference):
    """``built`` equals ``reference`` record by record: type, every field
    (``stored_size`` too) and ``EMPTY_HEADERS`` identity."""
    assert len(built) == len(reference)
    for record, expected in zip(built, reference):
        assert type(record) is type(expected)
        assert tuple(record) == tuple(expected)
        assert (record.headers is EMPTY_HEADERS) == (expected.headers is EMPTY_HEADERS)


class TestBatchBuildersMatchTheConstructors:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        entries=entries,
        sized=st.booleans(),
        max_message_bytes=st.one_of(st.just(1 << 20), st.integers(26, 60)),
        earlier=st.integers(0, 3),
    )
    def test_append_batch(self, entries, sized, max_message_bytes, earlier):
        """Including ``None`` timestamps and headers, and a batch cut at
        an oversized record: the records before it are appended."""
        clock = SimClock()
        clock.advance(7.5)
        log = PartitionLog(
            "t-3", LogConfig(max_message_bytes=max_message_bytes),
            clock=clock, partition=TP,
        )
        for _ in range(earlier):
            log.append("k", "v")  # a base offset other than 0
        sizes = payload_sizes(entries)
        base = log.log_end_offset
        try:
            log.append_batch(entries, sizes=sizes if sized else None)
        except ConfigError:
            pass
        now = clock.now()
        reference = []
        for offset, ((key, value, timestamp, held), size) in enumerate(
            zip(entries, sizes), base
        ):
            if size + RECORD_FRAMING_BYTES > max_message_bytes:
                break
            reference.append(StoredMessage(
                key, value, now if timestamp is None else timestamp, offset,
                held, size, None, TP.topic, TP.partition,
            ))
        assert_same(log.all_messages()[base:], reference)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        entries=entries.filter(bool),
        base=st.integers(0, 50),
        cut=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    )
    def test_stored_frame_slices(self, entries, base, cut):
        frame = compress_entries(entries, "zlib", 6)
        stored = StoredFrame(frame, base, 7.5, 9.0, TP)
        start, stop = sorted(min(c, len(entries)) for c in cut)
        decoded = frame.entries()[start:stop]
        reference = [
            StoredMessage(
                key, value, 7.5 if timestamp is None else timestamp, base + i,
                held, frame.sizes[i], frame.stored_sizes()[i],
                TP.topic, TP.partition,
            )
            for i, (key, value, timestamp, _), held in zip(
                range(start, stop), decoded, frame.headers(decoded, start)
            )
        ]
        assert_same(stored.records(start, stop), reference)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        texts=st.lists(
            st.tuples(
                st.one_of(st.none(), texts),
                st.dictionaries(texts, st.integers(-5, 5), max_size=3),
                timestamps,
                headers,
            ),
            min_size=1, max_size=12,
        ),
        framed=st.booleans(),
        serdes=st.sampled_from(["none", "key", "value", "both"]),
        cut=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    )
    def test_fetch_batch_inflate(self, texts, framed, serdes, cut):
        """Framed and plain batches, with and without key and value serdes:
        a plain batch without serdes hands out the log's own records."""
        key_serde = StringSerde() if serdes in ("key", "both") else None
        value_serde = JsonSerde() if serdes in ("value", "both") else None
        entries = [
            (
                key if key is None or key_serde is None else key_serde.serialize(key),
                value if value_serde is None else value_serde.serialize(value),
                timestamp,
                held,
            )
            for key, value, timestamp, held in texts
        ]
        start, stop = sorted(min(c, len(entries)) for c in cut)
        if framed:
            frame = compress_entries(entries, "zlib", 6)
            batch = FetchBatch(TP.topic, TP.partition, frame=frame, base_offset=4)
            decoded = frame.entries()[start:stop]
            fields = [
                (4 + i, key, value, timestamp, held, frame.sizes[i])
                for i, (key, value, timestamp, _), held in zip(
                    range(start, stop), decoded, frame.headers(decoded, start)
                )
            ]
        else:
            log = PartitionLog("t-3", clock=SimClock(), partition=TP)
            log.append_batch(entries)
            messages = log.all_messages()
            batch = FetchBatch(TP.topic, TP.partition, messages)
            fields = [
                (m.offset, m.key, m.value, m.timestamp, m.headers, m.size)
                for m in messages[start:stop]
            ]
        built, _latency = batch.inflate(
            DEFAULT_COST_MODEL, start, stop, key_serde, value_serde
        )
        if not framed and key_serde is None and value_serde is None:
            assert all(r is m for r, m in zip(built, messages[start:stop]))
            assert len(built) == stop - start
            return
        reference = [
            ConsumerRecord(
                TP.topic, TP.partition, offset,
                key if key is None or key_serde is None else key_serde.deserialize(key),
                value if value_serde is None else value_serde.deserialize(value),
                timestamp, held, size,
            )
            for offset, key, value, timestamp, held, size in fields
        ]
        assert_same(built, reference)
