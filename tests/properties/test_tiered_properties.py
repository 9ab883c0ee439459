"""Property-based tests for tiered storage equivalence (§2.2 rewindability).

The headline invariant: a retention-truncated log *with archiving* is
observationally identical to an unbounded log — every read, from any offset,
returns byte-identical records at identical offsets, no matter how produces,
retention passes and rewinds interleave.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.dfs import SimulatedDFS
from repro.common.clock import SimClock
from repro.common.compression import compress_entries
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.retention import RetentionConfig, RetentionEnforcer
from repro.storage.tiered import ColdTier, DfsObjectStore, TieredConfig

# An interleaving step: produce a batch, let time pass + run retention, or
# rewind-read from a chosen point of the history.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("retain"), st.floats(min_value=0.5, max_value=30.0)),
        st.tuples(st.just("read"), st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=1,
    max_size=40,
)
segment_sizes = st.integers(min_value=1, max_value=7)
cache_caps = st.integers(min_value=1, max_value=1 << 20)


def build_pair(per_segment, cache_bytes):
    clock = SimClock()
    tiered_log = PartitionLog(
        "t-0", LogConfig(segment_max_messages=per_segment), clock=clock
    )
    reference = PartitionLog(
        "ref-0", LogConfig(segment_max_messages=per_segment), clock=clock
    )
    tier = ColdTier(
        tiered_log,
        DfsObjectStore(SimulatedDFS(clock)),
        namespace="t/0",
        config=TieredConfig(hydration_cache_bytes=cache_bytes),
    )
    return clock, tiered_log, reference, tier


def read_all(reader, start, end):
    """Drain ``reader`` from ``start`` with small batches (exercises paging)."""
    out = []
    offset = start
    while offset < end:
        result = reader(offset, 7)
        if not result.messages:
            break
        out.extend(result.messages)
        offset = result.next_offset
    return out


class TestTieredEquivalence:
    @given(steps, segment_sizes, cache_caps)
    @settings(max_examples=40, deadline=None)
    def test_archived_log_is_byte_identical_to_unbounded(
        self, script, per_segment, cache_bytes
    ):
        clock, tiered_log, reference, tier = build_pair(per_segment, cache_bytes)
        produced = 0
        for op, arg in script:
            if op == "produce":
                for _ in range(arg):
                    now = clock.now()
                    tiered_log.append(f"k{produced}", f"v{produced}", timestamp=now)
                    reference.append(f"k{produced}", f"v{produced}", timestamp=now)
                    produced += 1
                    clock.advance(1.0)
            elif op == "retain":
                enforcer = RetentionEnforcer(
                    RetentionConfig(retention_seconds=arg),
                    clock,
                    archiver=tier.archiver,
                )
                enforcer.enforce(tiered_log)
            else:  # rewind-read from a fractional point of the history
                if produced == 0:
                    continue
                start = min(int(arg * produced), produced - 1)
                got = read_all(tier.read_through, start, produced)
                want = read_all(reference.read, start, produced)
                assert [m.offset for m in got] == [m.offset for m in want]
                assert [(m.key, m.value, m.timestamp, m.size) for m in got] == [
                    (m.key, m.value, m.timestamp, m.size) for m in want
                ]
        # Final full-history rewind must always reproduce the reference.
        got = read_all(tier.read_through, 0, produced)
        want = read_all(reference.read, 0, produced)
        assert [m.offset for m in got] == list(range(produced))
        assert [(m.key, m.value) for m in got] == [
            (m.key, m.value) for m in want
        ]

    @given(steps, segment_sizes, cache_caps)
    @settings(max_examples=25, deadline=None)
    def test_archived_log_is_byte_identical_with_compressed_frames(
        self, script, per_segment, cache_bytes
    ):
        """Tiered equivalence with the wire format armed: batches land as
        compressed frames, the archiver ships the frames' stored footprint,
        and rewinds through the cold tier still reproduce the unbounded
        reference record-for-record (offsets, payloads, stored sizes)."""
        clock, tiered_log, reference, tier = build_pair(per_segment, cache_bytes)
        produced = 0
        for op, arg in script:
            if op == "produce":
                now = clock.now()
                entries = [
                    (f"k{produced + i}", f"v{produced + i}" * 4, now, {})
                    for i in range(arg)
                ]
                frame = compress_entries(entries, "zlib", 6)
                tiered_log.append_batch(entries, frame=frame)
                # The reference gets its own (identical) frame object: batch
                # indexes are per-log, byte accounting must still agree.
                reference.append_batch(
                    entries, frame=compress_entries(entries, "zlib", 6)
                )
                produced += arg
                clock.advance(float(arg))
            elif op == "retain":
                RetentionEnforcer(
                    RetentionConfig(retention_seconds=arg),
                    clock,
                    archiver=tier.archiver,
                ).enforce(tiered_log)
            else:
                if produced == 0:
                    continue
                start = min(int(arg * produced), produced - 1)
                got = read_all(tier.read_through, start, produced)
                want = read_all(reference.read, start, produced)
                assert [m.offset for m in got] == [m.offset for m in want]
                assert [
                    (m.key, m.value, m.timestamp, m.size, m.stored_size)
                    for m in got
                ] == [
                    (m.key, m.value, m.timestamp, m.size, m.stored_size)
                    for m in want
                ]
        got = read_all(tier.read_through, 0, produced)
        want = read_all(reference.read, 0, produced)
        assert [m.offset for m in got] == list(range(produced))
        assert [(m.key, m.value, m.stored_size) for m in got] == [
            (m.key, m.value, m.stored_size) for m in want
        ]
        # Compression actually engaged somewhere in the run.
        if produced:
            assert any(m.stored_size != m.size for m in want)

    @given(steps, segment_sizes)
    @settings(max_examples=40, deadline=None)
    def test_manifest_bookkeeping_invariants(self, script, per_segment):
        clock, tiered_log, reference, tier = build_pair(per_segment, 1 << 20)
        produced = 0
        for op, arg in script:
            if op == "produce":
                for _ in range(arg):
                    tiered_log.append(f"k{produced}", produced, timestamp=clock.now())
                    produced += 1
                    clock.advance(1.0)
            elif op == "retain":
                RetentionEnforcer(
                    RetentionConfig(retention_seconds=arg),
                    clock,
                    archiver=tier.archiver,
                ).enforce(tiered_log)
            entries = tier.manifest.entries()
            # Ordered, disjoint, contiguous with the hot tier.
            for a, b in zip(entries, entries[1:]):
                assert a.last_offset < b.first_offset
            if entries:
                assert tier.manifest.start_offset == entries[0].first_offset
                assert tier.manifest.end_offset == entries[-1].last_offset + 1
                # Archive ends exactly where the hot log begins: no record is
                # ever in both tiers, and none falls in between.
                assert tier.manifest.end_offset == tiered_log.log_start_offset
            assert tier.manifest.total_messages == sum(
                e.message_count for e in entries
            )
            assert tier.manifest.total_bytes == sum(e.size_bytes for e in entries)

    @given(steps, segment_sizes, st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_hydration_cache_respects_cap(self, script, per_segment, cache_bytes):
        clock, tiered_log, reference, tier = build_pair(per_segment, cache_bytes)
        produced = 0
        for op, arg in script:
            if op == "produce":
                for _ in range(arg):
                    tiered_log.append(f"k{produced}", produced, timestamp=clock.now())
                    produced += 1
                    clock.advance(1.0)
            elif op == "retain":
                RetentionEnforcer(
                    RetentionConfig(retention_seconds=arg),
                    clock,
                    archiver=tier.archiver,
                ).enforce(tiered_log)
            elif produced:
                tier.read_through(min(int(arg * produced), produced - 1), 7)
            # The cache may exceed the cap only by the one segment currently
            # being served (eviction never drops the segment in use).
            reader = tier.reader
            assert reader.hydrated_segments <= max(
                1, reader.manifest.segment_count
            )
            if reader.hydrated_segments > 1:
                assert reader.hydrated_bytes <= cache_bytes + max(
                    e.size_bytes for e in tier.manifest.entries()
                )
