"""Unit tests for the sparse offset index."""

import random

import pytest

from repro.common.errors import ConfigError
from repro.storage.index import SparseOffsetIndex


class TestMaybeAdd:
    def test_first_record_always_indexed(self):
        index = SparseOffsetIndex(interval_bytes=1000)
        assert index.maybe_add(0, 0, 100) is True

    def test_entries_respect_interval(self):
        index = SparseOffsetIndex(interval_bytes=250)
        added = [index.maybe_add(i, i * 100, 100) for i in range(10)]
        # First always; then one every ceil(250/100)=3 records.
        assert added[0] is True
        assert sum(added) == pytest.approx(1 + 3)

    def test_offsets_must_increase(self):
        index = SparseOffsetIndex()
        index.maybe_add(5, 0, 10)
        with pytest.raises(ConfigError):
            index.maybe_add(5, 10, 10)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigError):
            SparseOffsetIndex(interval_bytes=0)


class TestLookup:
    def _filled(self) -> SparseOffsetIndex:
        index = SparseOffsetIndex(interval_bytes=200)
        position = 0
        for offset in range(0, 20, 2):
            index.maybe_add(offset, position, 100)
            position += 100
        return index

    def test_exact_hit(self):
        index = self._filled()
        assert index.lookup(0) == 0

    def test_between_entries_returns_floor(self):
        index = self._filled()
        floor_for_1 = index.lookup(1)
        assert floor_for_1 == index.lookup(0)

    def test_before_first_entry_returns_zero(self):
        index = SparseOffsetIndex(interval_bytes=10)
        index.maybe_add(100, 5000, 10)
        assert index.lookup(50) == 0

    def test_past_last_entry_returns_last(self):
        index = self._filled()
        assert index.lookup(10_000) == index.lookup(18)


class TestRebuild:
    def test_rebuild_replaces_entries(self):
        index = SparseOffsetIndex(interval_bytes=100)
        index.maybe_add(0, 0, 100)
        index.maybe_add(1, 100, 100)
        index.rebuild([(10, 0, 100), (11, 100, 100)])
        assert index.lookup(10) == 0
        assert index.lookup(11) == 100

    def test_size_bytes(self):
        index = SparseOffsetIndex(interval_bytes=1)
        index.maybe_add(0, 0, 10)
        index.maybe_add(1, 10, 10)
        assert index.size_bytes() == 32
        assert index.entry_count == 2


class TestExtendRun:
    @pytest.mark.parametrize("interval", [1, 64, 4096])
    def test_matches_maybe_add_loop_over_carried_state(self, interval):
        rng = random.Random(interval)
        for _trial in range(50):
            looped = SparseOffsetIndex(interval)
            bulk = SparseOffsetIndex(interval)
            offset = position = 0
            # Several runs into the same index: _bytes_since_entry carries.
            for _run in range(rng.randint(1, 6)):
                offsets, positions = [], []
                for _ in range(rng.randint(0, 40)):
                    offset += rng.randint(1, 3)  # gaps, as after compaction
                    size = rng.choice([1, 17, 63, 64, 65, 300, 5000])
                    looped.maybe_add(offset, position, size)
                    offsets.append(offset)
                    positions.append(position)
                    position += size
                before = bulk.entry_count
                added = bulk.extend_run(offsets, positions, position)
                assert added == bulk.entry_count - before
                assert bulk._offsets == looped._offsets
                assert bulk._positions == looped._positions
                assert bulk._bytes_since_entry == looped._bytes_since_entry

    def test_run_must_follow_the_last_entry(self):
        index = SparseOffsetIndex(interval_bytes=1)
        index.extend_run([3, 4], [0, 10], 20)
        with pytest.raises(ConfigError):
            index.extend_run([4], [20], 30)
