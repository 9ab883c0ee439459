"""Unit tests for the lazy fetch buffer: one materialisation, at the poll
boundary.

A fetch response holds the log's ``StoredMessage`` runs and the producer's
``BatchFrame`` objects; ``ConsumerRecord`` instances come into being only in
``FetchBuffer.take`` / ``FetchBatch.inflate``, once per delivered record.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.records import (
    RECORD_FRAMING_BYTES,
    TRACE_HEADER,
    ConsumerRecord,
    TopicPartition,
)
from repro.common.serde import JsonSerde, StringSerde
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


def materialise(batches):
    return [r for batch in batches for r in batch.inflate(DEFAULT_COST_MODEL)[0]]


@pytest.fixture
def built(monkeypatch):
    """Offsets of every ``ConsumerRecord`` the fetch buffer constructs."""
    offsets = []

    def counting(*args):
        offsets.append(args[2])
        return ConsumerRecord(*args)

    monkeypatch.setattr(fetchbuffer, "ConsumerRecord", counting)
    return offsets


class TestLazyDrain:
    def test_partial_take_leaves_later_frames_compressed_and_uncharged(self, built):
        messages, frames = stored_run()
        batches = build_fetch_batches("t", 0, messages, frames)
        assert [b.count for b in batches] == [4, 4, 4]
        assert all(b.messages is None and not b.inflated for b in batches)
        cost = DEFAULT_COST_MODEL
        charge = [cost.decompress(frame.payload_bytes) for *_entry, frame in frames]
        buffer = FetchBuffer(batches, 12, latency=0.0, issued_at=0.0)

        records, latency = buffer.take(5, cost)
        assert [r.offset for r in records] == built == [0, 1, 2, 3, 4]
        assert latency == charge[0] + charge[1]
        assert [b.inflated for b in batches] == [True, True, False]
        assert not batches[2].frame.inflated  # payload never decoded

        records, latency = buffer.take(100, cost)
        assert [r.offset for r in records] == list(range(5, 12))
        assert latency == charge[2]  # the half-drained frame is not re-charged
        assert built == list(range(12))  # each delivered record built once
        assert buffer.take(100, cost) == ([], 0.0)

    def test_partial_take_materialises_only_what_it_delivers(self, built):
        messages, _frames = stored_run(compression="none")
        (batch,) = build_fetch_batches("t", 0, messages, [])
        assert batch.messages is messages  # the log's run itself, no copy
        buffer = FetchBuffer([batch], 12, latency=0.0, issued_at=0.0)
        records, latency = buffer.take(5, DEFAULT_COST_MODEL)
        assert (len(records), latency) == (5, 0.0)
        assert built == [0, 1, 2, 3, 4]
        buffer.take(3, DEFAULT_COST_MODEL)
        assert built == list(range(8))

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
        assert not buffer.batches[2].frame.inflated
        assert consumer.position(TP) == 6
        assert [r.offset for r in consumer.poll(100)] == list(range(6, 12))


class TestPosition:
    def test_before_mid_and_after_with_trailing_skipped_markers(self):
        messages, _frames = stored_run(count=4, compression="none")
        batches = build_fetch_batches("t", 0, messages, [])
        # Offsets 4 and 5 were control markers the broker filtered out.
        buffer = FetchBuffer(batches, 6, latency=0.0, issued_at=0.0)
        assert buffer.position() is None
        buffer.take(3, DEFAULT_COST_MODEL)
        assert not buffer.exhausted
        assert buffer.position() == 3
        buffer.take(3, DEFAULT_COST_MODEL)
        assert buffer.exhausted
        assert buffer.position() == 6

    def test_empty_response_steps_over_what_was_scanned(self):
        buffer = FetchBuffer([], 9, latency=0.0, issued_at=0.0)
        assert buffer.exhausted
        assert buffer.position() == 9


class TestFramedEqualsPlain:
    @pytest.mark.parametrize("idempotent", [False, True])
    def test_same_records_either_way(self, idempotent):
        messages, frames = stored_run(idempotent=idempotent)
        framed = build_fetch_batches("t", 0, messages, frames)
        plain = build_fetch_batches("t", 0, messages, [])
        assert [b.frame is not None for b in framed] == [True] * 3
        from_frames = materialise(framed)
        from_log = materialise(plain)
        assert from_frames == from_log
        for record, message in zip(from_frames, messages):
            assert record.size == message.size - RECORD_FRAMING_BYTES
            # Framed or plain, idempotent or not: the headers that were sent.
            sent = {"h": record.offset}
            if record.offset % 3 == 0:
                sent[TRACE_HEADER] = TraceContext(f"trace-{record.offset}", record.offset)
            assert record.headers == sent
        assert from_frames[3].headers[TRACE_HEADER] == TraceContext("trace-3", 3)

    def test_frame_with_partial_visibility_falls_back_to_the_log(self):
        messages, frames = stored_run()
        batches = build_fetch_batches("t", 0, messages[:6], frames)
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
        serdes = {"key_serde": StringSerde(), "value_serde": JsonSerde()}
        producer = Producer(
            cluster,
            ProducerConfig(linger_messages=4, compression=compression, **serdes),
        )
        values = [{"payload": "x" * 64, "n": [i, 2, 3]} for i in range(8)]
        for i, value in enumerate(values):
            producer.send("t", value, key=None if i == 0 else f"k{i}")
        raw = cluster.fetch("t", 0, 0).records
        del built[:]
        consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=3, **serdes))
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
