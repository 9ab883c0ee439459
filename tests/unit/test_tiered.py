"""Unit tests for tiered log storage (archive-before-delete, §2.2/§4.1)."""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import (
    ConfigError,
    ObjectNotFoundError,
    OffsetOutOfRangeError,
)
from repro.common.records import TopicPartition
from repro.baselines.dfs import SimulatedDFS
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.topic import CLEANUP_COMPACT, TopicConfig
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.pagecache import PageCache
from repro.storage.retention import RetentionConfig, RetentionEnforcer
from repro.storage.tiered import (
    COLD_FILE_PREFIX,
    ArchivedSegment,
    ColdReader,
    ColdTier,
    DfsObjectStore,
    SegmentArchiver,
    TierManifest,
    TieredConfig,
)
from repro.tools.admin import AdminClient


def entry(first, last, key=None, ts0=0.0, ts1=None, size=100):
    return ArchivedSegment(
        base_offset=first,
        first_offset=first,
        last_offset=last,
        message_count=last - first + 1,
        size_bytes=size,
        object_key=key if key is not None else f"t/0/{first:020d}",
        first_timestamp=ts0,
        last_timestamp=ts1 if ts1 is not None else float(last),
        archived_at=100.0,
    )


def filled_log(clock, n=20, per_segment=5, page_cache=None):
    log = PartitionLog(
        "t-0",
        LogConfig(segment_max_messages=per_segment),
        clock=clock,
        page_cache=page_cache,
    )
    for i in range(n):
        log.append(f"k{i}", f"v{i}", timestamp=clock.now())
        clock.advance(1.0)
    return log


def cold_store(clock):
    """The cold store a cluster builds: objects as files in a batch DFS."""
    return DfsObjectStore(SimulatedDFS(clock))


def tiered_fixture(clock=None, n=20, per_segment=5, **tier_kwargs):
    """A log whose sealed segments were archived then retention-deleted."""
    clock = clock if clock is not None else SimClock()
    log = filled_log(clock, n=n, per_segment=per_segment)
    store = cold_store(clock)
    tier = ColdTier(log, store, namespace="t/0", config=TieredConfig(**tier_kwargs))
    enforcer = RetentionEnforcer(
        RetentionConfig(retention_seconds=1.0), clock, archiver=tier.archiver
    )
    result = enforcer.enforce(log)
    return log, store, tier, result


class TestConfig:
    def test_defaults(self):
        assert TieredConfig().hydration_cache_bytes > 0

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ConfigError):
            TieredConfig(hydration_cache_bytes=0)

    def test_tiered_compacted_topic_rejected(self):
        with pytest.raises(ConfigError):
            TopicConfig(
                name="t",
                cleanup_policy=CLEANUP_COMPACT,
                tiered=TieredConfig(),
            )


class TestManifest:
    def test_add_and_lookup(self):
        m = TierManifest()
        m.add(entry(0, 4))
        m.add(entry(5, 9))
        assert m.entry_for(0).first_offset == 0
        assert m.entry_for(3).first_offset == 0
        assert m.entry_for(5).first_offset == 5
        assert m.entry_for(9).first_offset == 5
        assert m.entry_for(10) is None

    def test_lookup_in_hole_returns_next_forward(self):
        m = TierManifest()
        m.add(entry(0, 4))
        m.add(entry(8, 12))  # compaction punched offsets 5..7
        assert m.entry_for(6).first_offset == 8

    def test_lookup_before_start_returns_first(self):
        m = TierManifest()
        m.add(entry(10, 14))
        assert m.entry_for(3).first_offset == 10

    def test_rejects_out_of_order_ranges(self):
        m = TierManifest()
        m.add(entry(5, 9))
        with pytest.raises(ConfigError):
            m.add(entry(0, 4))
        with pytest.raises(ConfigError):
            m.add(entry(9, 12))  # overlaps

    def test_rejects_duplicate_object_key(self):
        m = TierManifest()
        m.add(entry(0, 4, key="dup"))
        with pytest.raises(ConfigError):
            m.add(entry(5, 9, key="dup"))

    def test_totals(self):
        m = TierManifest()
        assert m.is_empty
        assert m.start_offset is None and m.end_offset is None
        m.add(entry(0, 4, size=10))
        m.add(entry(5, 9, size=20))
        assert (m.start_offset, m.end_offset) == (0, 10)
        assert m.segment_count == 2
        assert m.total_bytes == 30
        assert m.total_messages == 10

    def test_timestamp_lookup(self):
        m = TierManifest()
        m.add(entry(0, 4, ts0=0.0, ts1=4.0))
        m.add(entry(5, 9, ts0=5.0, ts1=9.0))
        assert m.entry_for_timestamp(3.0).first_offset == 0
        assert m.entry_for_timestamp(6.0).first_offset == 5
        assert m.entry_for_timestamp(100.0) is None

    def test_invalid_entry_rejected(self):
        with pytest.raises(ConfigError):
            ArchivedSegment(
                base_offset=5,
                first_offset=4,
                last_offset=9,
                message_count=5,
                size_bytes=1,
                object_key="k",
                first_timestamp=0.0,
                last_timestamp=1.0,
                archived_at=0.0,
            )


class TestObjectStores:
    @pytest.fixture
    def store(self):
        return cold_store(SimClock())

    def test_put_get_roundtrip(self, store):
        put = store.put("a/1", ["r0", "r1"], 64)
        assert put.created and put.size_bytes > 0 and put.latency > 0
        got = store.get("a/1")
        assert got.records == ["r0", "r1"]
        assert got.latency >= DEFAULT_COST_MODEL.cold_fetch_overhead

    def test_idempotent_put_is_free_noop(self, store):
        store.put("a/1", ["r0"], 32)
        again = store.put("a/1", ["DIFFERENT"], 32)
        assert not again.created
        assert again.latency == 0.0
        assert store.get("a/1").records == ["r0"]  # first write wins

    def test_missing_key_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("nope")


class TestArchiver:
    def test_archives_sealed_segments(self):
        clock = SimClock()
        log = filled_log(clock)
        store = cold_store(clock)
        manifest = TierManifest()
        archiver = SegmentArchiver(store, manifest, "t/0", clock)
        for segment in log.sealed_segments():
            result = archiver.archive(segment)
            assert result.archived and not result.deduplicated
            assert result.latency > 0
        assert manifest.segment_count == 3
        assert (manifest.start_offset, manifest.end_offset) == (0, 15)
        dfs = store.dfs
        paths = dfs.list_dir(store.root)
        assert len(paths) == 3
        assert sum(map(dfs.file_size, paths)) == manifest.total_bytes

    def test_replica_duplicate_upload_dedupes(self):
        """Two replicas archiving the same segment upload it once."""
        clock = SimClock()
        store = cold_store(clock)
        logs = [filled_log(SimClock()) for _ in range(2)]
        results = []
        for log in logs:  # same namespace: keys carry no broker id
            archiver = SegmentArchiver(store, TierManifest(), "t/0", clock)
            results.append(archiver.archive(log.sealed_segments()[0]))
        assert results[0].archived and not results[0].deduplicated
        assert results[1].archived and results[1].deduplicated
        assert results[1].latency == 0.0
        assert len(store.dfs.list_dir(store.root)) == 1

    def test_empty_segment_skipped(self):
        clock = SimClock()
        log = filled_log(clock)
        segment = log.sealed_segments()[0]
        segment.replace_messages([])  # fully compacted away
        archiver = SegmentArchiver(cold_store(clock), TierManifest(), "t/0", clock)
        result = archiver.archive(segment)
        assert not result.archived


class TestRetentionArchiving:
    def test_archive_before_delete(self):
        log, store, tier, result = tiered_fixture()
        assert result.segments_archived == result.segments_deleted == 3
        assert result.bytes_archived == result.bytes_deleted
        assert result.archive_latency > 0
        assert log.log_start_offset == 15
        assert tier.manifest.end_offset == 15  # no gap between tiers

    def test_without_archiver_data_is_simply_deleted(self):
        clock = SimClock()
        log = filled_log(clock)
        enforcer = RetentionEnforcer(RetentionConfig(retention_seconds=1.0), clock)
        result = enforcer.enforce(log)
        assert result.segments_archived == 0
        assert result.bytes_archived == 0

    def test_empty_sealed_segment_expired_by_policy(self):
        """A sealed segment with last_timestamp None is immediately expired
        (nothing to retain) and never archived (nothing to archive)."""
        clock = SimClock()
        log = filled_log(clock, n=10, per_segment=5)
        log.sealed_segments()[0].replace_messages([])
        store = cold_store(clock)
        tier = ColdTier(log, store, namespace="t/0")
        # Huge window: only the empty husk is expired.
        enforcer = RetentionEnforcer(
            RetentionConfig(retention_seconds=1e9), clock, archiver=tier.archiver
        )
        result = enforcer.enforce(log)
        assert result.segments_deleted == 1
        assert result.messages_deleted == 0
        assert result.segments_archived == 0
        assert store.dfs.list_dir(store.root) == []

    def test_empty_segment_does_not_block_head_scan(self):
        clock = SimClock()
        log = filled_log(clock, n=15, per_segment=5)
        clock.advance(1000.0)
        log.sealed_segments()[0].replace_messages([])
        enforcer = RetentionEnforcer(RetentionConfig(retention_seconds=1.0), clock)
        result = enforcer.enforce(log)
        # The empty head husk AND the expired segments behind it all go.
        assert result.segments_deleted == 2
        assert log.log_start_offset == 10


class TestColdReader:
    def test_reads_archived_history(self):
        log, store, tier, _ = tiered_fixture()
        result = tier.reader.read(0, max_messages=100)
        assert [m.offset for m in result.messages] == list(range(15))
        assert [m.value for m in result.messages] == [f"v{i}" for i in range(15)]
        assert result.next_offset == 15

    def test_first_touch_pays_cold_fetch(self):
        log, store, tier, _ = tiered_fixture()
        first = tier.reader.read(0, max_messages=5)
        assert first.latency >= DEFAULT_COST_MODEL.cold_fetch_overhead
        again = tier.reader.read(0, max_messages=5)
        assert again.latency < DEFAULT_COST_MODEL.cold_fetch_overhead
        assert tier.reader.hits == 1 and tier.reader.misses == 1
        assert tier.reader.hit_ratio == 0.5

    def test_byte_budget_delivers_at_least_one_record(self):
        log, store, tier, _ = tiered_fixture()
        result = tier.reader.read(0, max_messages=100, max_bytes=1)
        assert len(result.messages) == 1
        assert result.messages[0].offset == 0

    def test_read_below_archive_start_raises(self):
        log, store, tier, _ = tiered_fixture()
        # Simulate an archive that itself was trimmed: rebuild from offset 5.
        reader = tier.reader
        reader.manifest._entries = reader.manifest._entries[1:]
        reader.manifest._firsts = reader.manifest._firsts[1:]
        with pytest.raises(OffsetOutOfRangeError):
            reader.read(0)

    def test_hydration_cache_evicts_lru_under_cap(self):
        # Cap below two segments: the oldest hydration is evicted.
        log, store, tier, _ = tiered_fixture(hydration_cache_bytes=1)
        tier.reader.read(0, max_messages=5)
        assert tier.reader.hydrated_segments == 1
        tier.reader.read(5, max_messages=5)
        assert tier.reader.hydrated_segments == 1  # segment 0 evicted
        tier.reader.read(0, max_messages=5)  # re-fetches: a miss again
        assert tier.reader.misses == 3

    def test_eviction_keeps_segment_being_served(self):
        log, store, tier, _ = tiered_fixture(hydration_cache_bytes=1)
        result = tier.reader.read(0, max_messages=100)
        assert len(result.messages) == 15  # scan completes despite tiny cap
        assert tier.reader.hydrated_segments == 1

    def test_drop_cache(self):
        log, store, tier, _ = tiered_fixture()
        tier.reader.read(0, max_messages=100)
        assert tier.reader.hydrated_bytes > 0
        tier.reader.drop_cache()
        assert tier.reader.hydrated_segments == 0
        assert tier.reader.hydrated_bytes == 0

    def test_offset_for_timestamp(self):
        log, store, tier, _ = tiered_fixture()
        assert tier.reader.offset_for_timestamp(0.0) == 0
        assert tier.reader.offset_for_timestamp(7.5) == 8
        assert tier.reader.offset_for_timestamp(1e9) is None


class TestHydrationPageCache:
    def test_install_records_residency_without_charge(self):
        cache = PageCache(clock=SimClock(), capacity_bytes=1 << 20)
        inserted = cache.install("!cold/t/0", 0, 10_000)
        assert inserted > 0
        assert cache.is_resident("!cold/t/0", 0, 10_000)
        # Resident pages serve at RAM speed.
        latency = cache.read("!cold/t/0", 0, 10_000)
        assert latency < DEFAULT_COST_MODEL.disk_seek_time

    def test_install_is_idempotent(self):
        cache = PageCache(clock=SimClock(), capacity_bytes=1 << 20)
        cache.install("f", 0, 8192)
        assert cache.install("f", 0, 8192) == 0

    def test_cold_pages_evicted_before_hot_ones(self):
        """Anti-caching: '!cold/...' sorts before hot file ids, so backfill
        pages are the first casualties when the cache fills."""
        model = DEFAULT_COST_MODEL
        cache = PageCache(
            clock=SimClock(), capacity_bytes=4 * model.page_size
        )
        cache.install(COLD_FILE_PREFIX + "t/0", 0, 2 * model.page_size)
        cache.write("broker-0/t-0/5", 0, 4 * model.page_size)
        assert cache.resident_pages_of(COLD_FILE_PREFIX + "t/0") == 0
        assert cache.resident_pages_of("broker-0/t-0/5") == 4


class TestColdTier:
    def test_read_through_stitches_cold_into_hot(self):
        log, store, tier, _ = tiered_fixture()
        result = tier.read_through(0, max_messages=1000)
        assert [m.offset for m in result.messages] == list(range(20))
        assert result.log_end_offset == 20
        assert result.next_offset == 20

    def test_read_through_hot_only_path(self):
        log, store, tier, _ = tiered_fixture()
        result = tier.read_through(16, max_messages=10)
        assert [m.offset for m in result.messages] == [16, 17, 18, 19]
        assert tier.reader.misses == 0  # archive untouched

    def test_read_through_below_earliest_raises_typed_error(self):
        log, store, tier, _ = tiered_fixture()
        with pytest.raises(OffsetOutOfRangeError) as exc_info:
            tier.read_through(-1)
        assert exc_info.value.requested == -1
        assert exc_info.value.log_start == 0

    def test_earliest_offset_spans_tiers(self):
        log, store, tier, _ = tiered_fixture()
        assert log.log_start_offset == 15
        assert tier.earliest_offset == 0

    def test_offset_for_timestamp_spans_tiers(self):
        log, store, tier, _ = tiered_fixture()
        assert tier.offset_for_timestamp(2.0) == 2  # archived
        assert tier.offset_for_timestamp(17.0) == 17  # hot

    def test_timestamp_lookup_with_duplicates_and_past_the_end(self):
        """Three records share each timestamp: the lookup lands on the first
        of a run in either tier, and past the newest record finds nothing."""
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=5), clock=clock)
        for i in range(20):
            log.append(f"k{i}", f"v{i}", timestamp=float(i // 3))
        clock.advance(8.0)
        tier = ColdTier(
            log,
            cold_store(clock),
            namespace="t/0",
            config=TieredConfig(),
        )
        RetentionEnforcer(
            RetentionConfig(retention_seconds=3.5), clock, archiver=tier.archiver
        ).enforce(log)
        assert log.log_start_offset == 15  # offsets 0-14 archived, 15-19 hot
        for timestamp in (0.0, 0.5, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0):
            want = next(i for i in range(20) if i // 3 >= timestamp)
            assert tier.offset_for_timestamp(timestamp) == want
        assert tier.reader.offset_for_timestamp(4.0) == 12
        assert tier.reader.offset_for_timestamp(4.5) is None  # archive ends at 4.0
        assert log.offset_for_timestamp(5.0) == 15
        assert tier.offset_for_timestamp(6.5) is None
        segment = log.segments()[0]
        assert segment.offset_for_timestamp(6.0) == 18
        assert segment.offset_for_timestamp(6.5) is None

    def test_stats(self):
        log, store, tier, _ = tiered_fixture()
        tier.read_through(0, max_messages=1000)
        stats = tier.stats()
        assert stats["archived_segments"] == 3
        assert stats["archived_bytes"] > 0
        assert stats["archived_start_offset"] == 0
        assert stats["archived_end_offset"] == 15
        assert stats["cold_misses"] == 3


def make_tiered_cluster(retention_seconds=5.0, tiered=True, num_brokers=3):
    cluster = MessagingCluster(num_brokers=num_brokers, maintenance_interval=1.0)
    cluster.create_topic(
        TopicConfig(
            name="events",
            num_partitions=1,
            replication_factor=num_brokers,
            retention=RetentionConfig(retention_seconds=retention_seconds),
            log=LogConfig(segment_max_messages=5),
            tiered=TieredConfig() if tiered else None,
        )
    )
    return cluster


def produce_and_expire(cluster, n=23):
    for i in range(n):
        cluster.produce("events", 0, [(f"k{i}", f"v{i}", None, {})], acks="all")
        cluster.tick(1.0)
    cluster.run_until_replicated()
    for _ in range(10):
        cluster.tick(1.0)
    return TopicPartition("events", 0)


class TestClusterIntegration:
    def test_fetch_below_log_start_serves_from_archive(self):
        cluster = make_tiered_cluster()
        tp = produce_and_expire(cluster)
        leader = cluster._leader_replica(tp)
        assert leader.log.log_start_offset > 0  # retention really truncated
        result = cluster.fetch("events", 0, 0, max_messages=1000)
        assert [r.offset for r in result.records] == list(range(23))
        assert [r.value for r in result.records] == [f"v{i}" for i in range(23)]

    def test_beginning_offset_reaches_into_archive(self):
        cluster = make_tiered_cluster()
        tp = produce_and_expire(cluster)
        assert cluster.beginning_offset(tp) == 0
        assert cluster._leader_replica(tp).log.log_start_offset > 0

    def test_untiered_fetch_below_log_start_raises(self):
        cluster = make_tiered_cluster(tiered=False)
        tp = produce_and_expire(cluster)
        log_start = cluster.beginning_offset(tp)
        assert log_start > 0
        with pytest.raises(OffsetOutOfRangeError) as exc_info:
            cluster.fetch("events", 0, 0, max_messages=10)
        assert exc_info.value.requested == 0
        assert exc_info.value.log_start == log_start

    def test_consumer_rewind_reads_full_history(self):
        cluster = make_tiered_cluster()
        tp = produce_and_expire(cluster)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        consumer.seek_to_beginning(tp)
        assert consumer.position(tp) == 0
        records = []
        while True:
            batch = consumer.poll(max_messages=7)
            if not batch:
                break
            records.extend(batch)
        assert [r.offset for r in records] == list(range(23))

    def test_consumer_auto_reset_earliest_without_cold_tier(self):
        cluster = make_tiered_cluster(tiered=False)
        tp = produce_and_expire(cluster)
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="earliest"))
        consumer.assign([tp])
        consumer.seek(tp, 0)  # below the truncated log start
        first_poll = consumer.poll()  # hits OffsetOutOfRange, resets
        second_poll = consumer.poll()
        records = first_poll + second_poll
        assert records
        assert records[0].offset == cluster.beginning_offset(tp)

    def test_consumer_auto_reset_latest_without_cold_tier(self):
        cluster = make_tiered_cluster(tiered=False)
        tp = produce_and_expire(cluster)
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="latest"))
        consumer.assign([tp])
        consumer.seek(tp, 0)
        consumer.poll()
        assert consumer.position(tp) == cluster.end_offset(tp)

    def test_seek_to_timestamp_spans_tiers(self):
        cluster = make_tiered_cluster()
        tp = produce_and_expire(cluster)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        offset = consumer.seek_to_timestamp(tp, 0.0)
        assert offset == 0

    def test_broker_crash_drops_hydration_cache(self):
        cluster = make_tiered_cluster()
        tp = produce_and_expire(cluster)
        cluster.fetch("events", 0, 0, max_messages=1000)
        leader_id = cluster.leader_of("events", 0)
        leader = cluster.broker(leader_id).replica(tp)
        assert leader.cold_tier.reader.hydrated_segments > 0
        cluster.kill_broker(leader_id)
        assert leader.cold_tier.reader.hydrated_segments == 0

    def test_tiered_topic_without_store_rejected_at_broker(self):
        from repro.messaging.broker import Broker

        broker = Broker(0, SimClock())
        with pytest.raises(ConfigError):
            broker.host_partition(
                TopicPartition("t", 0),
                TopicConfig(name="t", tiered=TieredConfig()),
            )

    def test_admin_surfaces_tiered_stats(self):
        cluster = make_tiered_cluster()
        produce_and_expire(cluster)
        cluster.fetch("events", 0, 0, max_messages=1000)
        admin = AdminClient(cluster)
        info = admin.describe_topic("events")[0]
        assert info.tiered is not None
        assert info.archived_bytes > 0
        assert info.cold_hit_ratio is not None
        rendered = admin.format_topic("events")
        assert "tiered: archived=" in rendered
        assert "cold_hit_ratio=" in rendered

    def test_admin_untiered_partition_has_no_tiered_stats(self):
        cluster = make_tiered_cluster(tiered=False)
        produce_and_expire(cluster)
        admin = AdminClient(cluster)
        info = admin.describe_topic("events")[0]
        assert info.tiered is None
        assert info.archived_bytes == 0
        assert info.cold_hit_ratio is None


class TestColdCostModel:
    def test_cold_fetch_and_put_costs(self):
        model = CostModel()
        assert model.cold_fetch(0) == model.cold_fetch_overhead
        assert model.cold_fetch(80_000_000) == pytest.approx(
            model.cold_fetch_overhead + 1.0
        )
        assert model.cold_put(60_000_000) == pytest.approx(
            model.cold_fetch_overhead + 1.0
        )

    def test_describe_includes_cold_params(self):
        desc = CostModel().describe()
        assert "cold_fetch_overhead_ms" in desc
        assert "cold_read_mbps" in desc
