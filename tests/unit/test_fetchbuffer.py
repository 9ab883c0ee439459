"""Unit tests for the lazy fetch buffer: a plain fetch delivers the log's
own records.

A fetch response holds the log's ``StoredMessage`` runs and the producer's
``BatchFrame`` objects.  A ``StoredMessage`` is a ``ConsumerRecord``, so a
plain batch drained without serdes hands out the log's objects and builds
nothing; ``ConsumerRecord`` instances come into being only in
``FetchBatch.inflate`` for frames and serdes, once per delivered record,
each slice in one pass of ``records.new_record`` over its columns.
"""

import gc
import sys
from array import array

import pytest

from repro.common.clock import SimClock
from repro.common.compression import BatchFrame
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.records import (
    EMPTY_HEADERS,
    TRACE_HEADER,
    ConsumerRecord,
    StoredMessage,
    TopicPartition,
    new_record,
)
from repro.common.serde import JsonSerde
from repro.messaging import fetchbuffer
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.fetchbuffer import FetchBuffer, build_fetch_batches
from repro.messaging.producer import Producer
from repro.observability.trace import TraceContext

TP = TopicPartition("t", 0)


def stored_run(count=12, linger=4, compression="zlib:6", **producer_options):
    """Produce ``count`` records; returns the leader log's records + batch
    index."""
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=1)
    producer = Producer(
        cluster,
        ProducerConfig(
            linger_messages=linger, compression=compression, **producer_options
        ),
    )
    for i in range(count):
        headers = {"h": i}
        if i % 3 == 0:
            headers[TRACE_HEADER] = TraceContext(f"trace-{i}", i)
        producer.send("t", {"n": i, "pad": "x" * 40}, key=f"k{i}", headers=headers)
    producer.flush()
    log = cluster.broker(cluster.leader_of("t", 0)).replica(TP).log
    messages = log.all_messages()
    return messages, log.batches_between(0, messages[-1].offset)


def offsets_of(messages) -> array:
    return array("q", [m.offset for m in messages])


def materialise(batches):
    return [r for batch in batches for r in batch.inflate(DEFAULT_COST_MODEL)[0]]


@pytest.fixture
def built(monkeypatch):
    """Offsets of every record the fetch buffer builds, counted through the
    C builder it maps over a batch's columns."""
    offsets = []

    def counting(cls, fields):
        offsets.append(fields[2])
        return new_record(cls, fields)

    monkeypatch.setattr(fetchbuffer, "new_record", counting)
    return offsets


class TestLazyDrain:
    def test_partial_take_leaves_later_frames_compressed_and_uncharged(self, built):
        messages, frames = stored_run()
        batches = build_fetch_batches("t", 0, messages, offsets_of(messages), frames)
        assert [b.count for b in batches] == [4, 4, 4]
        assert all(b.messages is None and not b.inflated for b in batches)
        cost = DEFAULT_COST_MODEL
        charge = [cost.decompress(frame.payload_bytes) for *_entry, frame in frames]
        buffer = FetchBuffer(batches, 12, latency=0.0, broker=0, issued_at=0.0)

        records, latency = buffer.take(5, cost)
        assert [r.offset for r in records] == built == [0, 1, 2, 3, 4]
        assert latency == charge[0] + charge[1]
        assert [b.inflated for b in batches] == [True, True, False]
        assert batches[2].decoded is None  # payload never decoded

        records, latency = buffer.take(100, cost)
        assert [r.offset for r in records] == list(range(5, 12))
        assert latency == charge[2]  # the half-drained frame is not re-charged
        assert built == list(range(12))  # each delivered record built once
        assert buffer.take(100, cost) == ([], 0.0)

    def test_plain_take_builds_nothing(self, built):
        messages, _frames = stored_run(compression="none")
        (batch,) = build_fetch_batches("t", 0, messages, offsets_of(messages), [])
        assert batch.messages is messages  # the log's run itself, no copy
        buffer = FetchBuffer([batch], 12, latency=0.0, broker=0, issued_at=0.0)
        records, latency = buffer.take(5, DEFAULT_COST_MODEL)
        assert (len(records), latency) == (5, 0.0)
        assert all(r is m for r, m in zip(records, messages[:5]))
        rest, _latency = buffer.take(100, DEFAULT_COST_MODEL)
        assert all(r is m for r, m in zip(rest, messages[5:]))
        assert len(rest) == 7 and built == []
        # The records are shared, the lists are not.
        (whole,) = build_fetch_batches("t", 0, messages, offsets_of(messages), [])
        delivered, _latency = whole.inflate(DEFAULT_COST_MODEL)
        assert delivered == messages and delivered is not messages

    def test_consumer_poll_stops_mid_response(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=4, compression="zlib:6")
        )
        for i in range(12):
            producer.send("t", {"n": i})
        consumer = Consumer(cluster, ConsumerConfig(prefetch=True))
        consumer.assign([TP])
        # The first poll drains its one-record response, so the rest of the
        # log is fetched ahead: the tail of frame 0, then frames 1 and 2.
        assert len(consumer.poll(1)) == 1
        buffer = consumer._buffers[TP]
        assert [(b.frame is not None, b.count) for b in buffer.batches] == [
            (False, 3), (True, 4), (True, 4),
        ]
        assert len(consumer.poll(5)) == 5
        assert consumer._buffers[TP] is buffer
        assert [b.inflated for b in buffer.batches] == [True, True, False]
        assert buffer.batches[2].decoded is None
        assert consumer.position(TP) == 6
        assert [r.offset for r in consumer.poll(100)] == list(range(6, 12))


@pytest.fixture
def decoded(monkeypatch):
    """Every ``BatchFrame`` whose payload is decoded, once per decode."""
    frames = []
    entries = BatchFrame.entries

    def counting(frame):
        frames.append(frame)
        return entries(frame)

    monkeypatch.setattr(BatchFrame, "entries", counting)
    return frames


def reachable_from(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, short
    of classes (which reach the whole program)."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(seen.values())


class TestDecodedBatchLivesOnTheResponse:
    def test_a_response_drained_over_three_polls_decodes_each_frame_once(
        self, decoded
    ):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=4, compression="zlib:6")
        )
        for i in range(12):
            producer.send("t", {"n": i})
        consumer = Consumer(cluster, ConsumerConfig(prefetch=True))
        consumer.assign([TP])
        first = cluster.broker(0).replica(TP).log.batches()[0][5]
        # The one-record response cuts frame 0, so it is served plain; the
        # response fetched ahead is frame 0's tail, then frames 1 and 2.  The
        # log holds frame 0 as its frame, so each of the two cuts is built
        # from one decode of it, on the broker.
        assert len(consumer.poll(1)) == 1
        assert decoded == [first, first]
        buffer = consumer._buffers[TP]
        frames = [b.frame for b in buffer.batches if b.frame is not None]
        assert len(frames) == 2
        offsets = []
        for limit in (5, 3, 100):
            offsets.extend(r.offset for r in consumer.poll(limit))
            if limit != 100:
                assert consumer._buffers[TP] is buffer
        assert offsets == list(range(1, 12))
        # Frame 1 is drained by two polls and frame 2 by two: one decode each.
        assert decoded == [first, first, *frames]

    def test_two_consumers_decode_a_frame_each_and_the_frame_keeps_neither(
        self, decoded
    ):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=4, compression="zlib:6")
        )
        values = [{"n": i, "pad": "x" * 40} for i in range(4)]
        for i, value in enumerate(values):
            producer.send("t", value, key=f"k{i}")
        ((*_entry, frame),) = cluster.broker(0).replica(TP).log.batches()
        for _ in range(2):
            consumer = Consumer(cluster, ConsumerConfig())
            consumer.assign([TP])
            assert [r.value for r in consumer.poll()] == values
        assert decoded == [frame, frame]
        # The frame reaches its payload, size column and scalars; no decoded
        # entry, list of entries or value dict.
        reachable = reachable_from(frame)
        assert frame.payload in reachable and frame.sizes in reachable
        assert not [o for o in reachable if type(o) in (list, dict)]


class TestPosition:
    def test_before_mid_and_after_with_trailing_skipped_markers(self):
        messages, _frames = stored_run(count=4, compression="none")
        batches = build_fetch_batches("t", 0, messages, offsets_of(messages), [])
        # Offsets 4 and 5 were control markers the broker filtered out.
        buffer = FetchBuffer(batches, 6, latency=0.0, broker=0, issued_at=0.0)
        assert buffer.position() is None
        buffer.take(3, DEFAULT_COST_MODEL)
        assert not buffer.exhausted
        assert buffer.position() == 3
        buffer.take(3, DEFAULT_COST_MODEL)
        assert buffer.exhausted
        assert buffer.position() == 6

    def test_empty_response_steps_over_what_was_scanned(self):
        buffer = FetchBuffer([], 9, latency=0.0, broker=0, issued_at=0.0)
        assert buffer.exhausted
        assert buffer.position() == 9


class TestFramedEqualsPlain:
    @pytest.mark.parametrize("idempotent", [False, True])
    def test_same_records_either_way(self, idempotent):
        messages, frames = stored_run(idempotent=idempotent)
        framed = build_fetch_batches("t", 0, messages, offsets_of(messages), frames)
        plain = build_fetch_batches("t", 0, messages, offsets_of(messages), [])
        assert [b.frame is not None for b in framed] == [True] * 3
        from_frames = materialise(framed)
        from_log = materialise(plain)
        assert from_frames == from_log
        assert all(r is m for r, m in zip(from_log, messages))
        for record, message in zip(from_frames, messages):
            assert type(record) is not type(message)
            assert record.size == message.size
            # Framed or plain, idempotent or not: the headers that were sent.
            sent = {"h": record.offset}
            if record.offset % 3 == 0:
                sent[TRACE_HEADER] = TraceContext(f"trace-{record.offset}", record.offset)
            assert record.headers == sent
        assert from_frames[3].headers[TRACE_HEADER] == TraceContext("trace-3", 3)

    def test_headerless_frame_record_equals_and_hashes_like_the_logs(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        producer = Producer(
            cluster, ProducerConfig(linger_messages=4, compression="zlib:6")
        )
        for i in range(8):
            producer.send("t", ("n", i), key=f"k{i}")
        log = cluster.broker(0).replica(TP).log
        messages = log.all_messages()
        framed = materialise(
            build_fetch_batches("t", 0, messages, offsets_of(messages), log.batches())
        )
        assert len(framed) == 8
        for record, message in zip(framed, messages):
            assert type(record) is not type(message)
            assert record.headers is message.headers is EMPTY_HEADERS
            assert record == message and hash(record) == hash(message)
        assert set(framed) == set(messages)

    def test_frame_with_partial_visibility_falls_back_to_the_log(self):
        messages, frames = stored_run()
        visible = messages[:6]
        batches = build_fetch_batches("t", 0, visible, offsets_of(visible), frames)
        assert [(b.frame is not None, b.count) for b in batches] == [
            (True, 4), (False, 2),
        ]
        records = materialise(batches)
        assert [r.offset for r in records] == list(range(6))


class TestSerdesAppliedInTheOneConstruction:
    @pytest.mark.parametrize("compression", ["none", "zlib:6"])
    def test_one_record_per_delivery_and_wire_size_kept(self, built, compression):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        producer = Producer(
            cluster,
            ProducerConfig(
                linger_messages=4, compression=compression, value_serde=JsonSerde()
            ),
        )
        values = [{"payload": "x" * 64, "n": [i, 2, 3]} for i in range(8)]
        for i, value in enumerate(values):
            producer.send("t", value, key=None if i == 0 else f"k{i}")
        raw = cluster.fetch("t", 0, 0).records
        del built[:]
        consumer = Consumer(
            cluster, ConsumerConfig(max_poll_messages=3, value_serde=JsonSerde())
        )
        consumer.assign([TP])
        typed = []
        while len(typed) < 8:
            typed.extend(consumer.poll())
        assert built == list(range(8))
        assert [r.value for r in typed] == values
        assert [r.key for r in typed] == [None] + [f"k{i}" for i in range(1, 8)]
        assert all(isinstance(r.value, bytes) for r in raw)
        assert [r.size for r in typed] == [r.size for r in raw]
        assert all(r.size > 0 for r in typed)


def rewound_consumer(count, partitions=1, replication_factor=1):
    """A cluster holding ``count`` plain records on topic ``t``, replicated,
    and a serde-less consumer assigned every partition at offset 0."""
    cluster = MessagingCluster(num_brokers=replication_factor, clock=SimClock())
    cluster.create_topic(
        "t", num_partitions=partitions, replication_factor=replication_factor
    )
    producer = Producer(cluster, ProducerConfig(linger_messages=200))
    for i in range(count):
        producer.send("t", i, key=f"k{i % 50}")
    producer.flush()
    cluster.run_until_replicated()
    consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=500))
    consumer.assign([TopicPartition("t", p) for p in range(partitions)])
    return cluster, consumer


class TestZeroCopyDelivery:
    def test_plain_poll_returns_the_leader_logs_records(self):
        cluster, consumer = rewound_consumer(60, partitions=2, replication_factor=3)
        delivered = []
        while batch := consumer.poll():
            delivered.extend(batch)
        assert len(delivered) == 60
        for p in range(2):
            tp = TopicPartition("t", p)
            leader = cluster.broker(cluster.leader_of("t", p)).replica(tp).log
            mine = [r for r in delivered if r.partition == p]
            assert [r.offset for r in mine] == [m.offset for m in leader.all_messages()]
            assert all(r is m for r, m in zip(mine, leader.all_messages()))
            # Every replica holds those same objects.
            for broker in cluster.brokers():
                held = broker.replica(tp).log.all_messages()
                assert all(r is m for r, m in zip(mine, held))
        assert all(isinstance(r, StoredMessage) for r in delivered)
        assert all(isinstance(r, ConsumerRecord) for r in delivered)

    def test_a_delivered_record_and_its_empty_headers_refuse_mutation(self):
        _cluster, consumer = rewound_consumer(3)
        record = consumer.poll()[0]
        assert isinstance(record, StoredMessage)
        for name in ("value", "offset", "headers", "size", "stored_size"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record.headers is EMPTY_HEADERS
        with pytest.raises(TypeError):
            record.headers["h"] = 1
        assert record.headers == {}

    def test_a_held_rewind_allocates_per_poll_not_per_record(self):
        _cluster, consumer = rewound_consumer(10_000)
        tp = TopicPartition("t", 0)

        def rewind():
            consumer.seek(tp, 0)
            held = []
            while len(held) < 20 and (records := consumer.poll()):
                held.append(records)
            return held

        rewind()  # warm: lazy state, metrics instruments, page cache
        gc.collect()
        before = sys.getallocatedblocks()
        held = rewind()
        grown = sys.getallocatedblocks() - before
        assert sum(len(records) for records in held) == 10_000
        # 20 polls of 500: the parent built a record per delivery (>= 10 000
        # blocks); delivering the log's own records costs a few per poll.
        assert grown < 1_000
