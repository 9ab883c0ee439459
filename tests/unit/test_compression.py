"""Unit tests for the compressed batch wire format.

Covers the codec spec parser, frame construction/round-trip, stored-size
apportionment, the page-cache footprint of compressed segments, and the
observability surface (metric names + AdminClient snapshot).
"""

import pytest

from repro.common.clock import SimClock
from repro.common.compression import (
    BATCH_FRAME_HEADER_BYTES,
    BatchFrame,
    compress_entries,
    decompress_entries,
    parse_compression,
)
from repro.common.errors import ConfigError
from repro.common.records import TRACE_HEADER, TopicPartition, estimate_size
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.pagecache import PageCache
from repro.tools.admin import AdminClient


def entries(n, fanout=1, payload="x" * 120):
    return [(f"k{i % fanout}", f"{payload}-{i}", float(i), {}) for i in range(n)]


class TestParseCompression:
    def test_none(self):
        assert parse_compression("none") == ("none", 0)

    def test_zlib_default_level(self):
        assert parse_compression("zlib") == ("zlib", 6)

    def test_zlib_explicit_levels(self):
        for level in range(1, 10):
            assert parse_compression(f"zlib:{level}") == ("zlib", level)

    @pytest.mark.parametrize(
        "bad", ["gzip", "zlib:0", "zlib:10", "zlib:x", "none:3", "", 6]
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_compression(bad)


class TestBatchFrame:
    def test_none_codec_builds_no_frame(self):
        assert compress_entries(entries(5), "none", 0) is None

    def test_empty_batch_builds_no_frame(self):
        assert compress_entries([], "zlib", 6) is None

    def test_unpicklable_payload_falls_back(self):
        bad = [("k", lambda: None, 0.0, {})]
        assert compress_entries(bad, "zlib", 6) is None

    def test_round_trip(self):
        batch = entries(10)
        frame = compress_entries(batch, "zlib", 6)
        assert frame is not None
        assert decompress_entries(frame) == batch

    def test_payload_bytes_match_uncompressed_accounting(self):
        batch = entries(7)
        frame = compress_entries(batch, "zlib", 6)
        expected = sum(
            estimate_size(k) + estimate_size(v) + estimate_size(h)
            for k, v, _ts, h in batch
        )
        assert frame.payload_bytes == expected
        assert frame.sizes == tuple(
            estimate_size(k) + estimate_size(v) + estimate_size(h)
            for k, v, _ts, h in batch
        )

    def test_wire_bytes_include_header(self):
        frame = compress_entries(entries(10), "zlib", 6)
        assert frame.wire_bytes == len(frame.payload) + BATCH_FRAME_HEADER_BYTES

    def test_compressible_batch_wins(self):
        frame = compress_entries(entries(50), "zlib", 6)
        assert frame.wire_bytes < frame.payload_bytes
        assert frame.ratio > 1.0

    def test_trace_headers_do_not_change_the_payload(self):
        plain = entries(5)
        traced = [
            (k, v, ts, {TRACE_HEADER: f"ctx-{i}"})
            for i, (k, v, ts, _h) in enumerate(plain)
        ]
        frame_plain = compress_entries(plain, "zlib", 6)
        frame_traced = compress_entries(traced, "zlib", 6)
        assert frame_traced.payload == frame_plain.payload
        assert frame_traced.wire_bytes == frame_plain.wire_bytes
        assert frame_traced.trace_contexts == tuple(
            f"ctx-{i}" for i in range(5)
        )
        assert frame_plain.trace_contexts == ()

    def test_stored_sizes_sum_and_floor(self):
        frame = compress_entries(entries(9), "zlib", 6)
        shares = frame.stored_sizes()
        assert len(shares) == frame.count
        assert sum(shares) == max(frame.wire_bytes, frame.count)
        assert all(s >= 1 for s in shares)
        assert max(shares) - min(shares) <= 1


class TestPageCacheFootprint:
    def test_compressed_segment_occupies_fewer_pages(self):
        """Identical records land as fewer pages when stored compressed."""

        def build(with_frame):
            clock = SimClock()
            cache = PageCache(clock=clock, capacity_bytes=64 * 1024 * 1024)
            log = PartitionLog(
                "twin-0",
                LogConfig(segment_max_messages=1000),
                clock=clock,
                page_cache=cache,
            )
            # Large enough that the uncompressed twin spans several 64 KiB
            # pages while the (highly repetitive) compressed frame fits in
            # far fewer.
            batch = entries(400, payload="compressible " * 60)
            frame = compress_entries(batch, "zlib", 6) if with_frame else None
            log.append_batch(batch, frame=frame)
            return cache, log

        plain_cache, plain_log = build(with_frame=False)
        packed_cache, packed_log = build(with_frame=True)
        assert packed_cache.resident_bytes() < plain_cache.resident_bytes()
        # The logical view is unchanged: same records, same logical sizes.
        plain = plain_log.read(0, 1000).messages
        packed = packed_log.read(0, 1000).messages
        assert [(m.key, m.value, m.size) for m in plain] == [
            (m.key, m.value, m.size) for m in packed
        ]
        assert sum(m.stored_size for m in packed) < sum(
            m.stored_size for m in plain
        )


def _drive_compressed_cluster():
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=3)
    producer = Producer(
        cluster,
        config=ProducerConfig(compression="zlib:6", linger_messages=10),
    )
    for i in range(60):
        producer.send("t", {"payload": "y" * 80, "i": i}, key=f"k{i % 3}")
    producer.flush()
    for _ in range(5):
        cluster.tick()
    consumer = Consumer(
        cluster,
        config=ConsumerConfig(
            auto_offset_reset="earliest", prefetch=True, max_poll_messages=16
        ),
    )
    consumer.assign([TopicPartition("t", 0)])
    drained = []
    for _ in range(50):
        batch = consumer.poll()
        if not batch:
            break
        drained.extend(batch)
        cluster.clock.advance(0.01)
    return cluster, drained


class TestObservability:
    def test_metric_names_and_values(self):
        cluster, drained = _drive_compressed_cluster()
        assert len(drained) == 60
        snapshot = cluster.metrics.snapshot()
        ratio = snapshot["messaging.producer.compression_ratio"]
        assert ratio["count"] > 0 and ratio["mean"] > 1.0
        assert snapshot["messaging.broker.bytes_saved"] > 0
        assert snapshot["messaging.cluster.bytes_on_wire"] > 0
        assert snapshot["messaging.consumer.prefetch_hits"] > 0

    def test_admin_surfaces_compression_stats(self):
        cluster, _drained = _drive_compressed_cluster()
        admin = AdminClient(cluster)
        stats = admin.compression_stats()
        assert sorted(stats) == [
            "bytes_on_wire",
            "bytes_saved",
            "compressed_batches",
            "mean_compression_ratio",
            "prefetch_hits",
        ]
        assert stats["mean_compression_ratio"] > 1.0
        assert stats["bytes_saved"] > 0
        assert stats["prefetch_hits"] > 0
        described = admin.describe_cluster()
        assert described["compression"] == stats

    def test_admin_stats_zero_on_quiet_cluster(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        stats = AdminClient(cluster).compression_stats()
        assert stats["mean_compression_ratio"] == 0.0
        assert stats["compressed_batches"] == 0.0
        assert stats["bytes_saved"] == 0.0
        assert stats["prefetch_hits"] == 0.0


def tracking_event(i: int) -> dict:
    """A typical tracking event: repetitive field names, enum-ish values."""
    return {
        "event_type": "page_view" if i % 3 else "click",
        "member_id": f"member-{i % 500:06d}",
        "session_id": f"session-{i % 50:08d}",
        "page_key": f"/feed/updates/{i % 20}",
        "user_agent": "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36",
        "locale": "en_US",
        "properties": {"position": i % 10, "channel": "web", "treatment": "A"},
    }


class TestWireReduction:
    EVENTS = 2000

    def _bytes_on_wire(self, compression: str) -> float:
        """Produce (linger 200, rf=3) -> replicate -> consume; every hop's
        simulated bytes land in ``messaging.cluster.bytes_on_wire``."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        producer = Producer(
            cluster,
            config=ProducerConfig(
                acks=ACKS_LEADER, linger_messages=200, compression=compression
            ),
        )
        for i in range(self.EVENTS):
            producer.send("t", tracking_event(i), key=f"member-{i % 500:06d}")
        producer.flush()
        cluster.run_until_replicated()
        consumer = Consumer(
            cluster,
            config=ConsumerConfig(
                auto_offset_reset="earliest", max_poll_messages=500
            ),
        )
        consumer.assign([TopicPartition("t", 0)])
        consumed = 0
        while consumed < self.EVENTS:
            consumed += len(consumer.poll())
        return cluster.metrics.counter("messaging.cluster.bytes_on_wire").value

    def test_json_ish_events_at_least_halve_bytes_on_wire(self):
        # The W1 acceptance floor (EXPERIMENTS.md); measured ~26x.
        plain = self._bytes_on_wire("none")
        assert plain >= 2.0 * self._bytes_on_wire("zlib:6")
