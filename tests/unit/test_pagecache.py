"""Unit tests for the anti-caching page cache (§4.1)."""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import CostModel
from repro.common.errors import ConfigError
from repro.storage.pagecache import PageCache

PAGE = 64 * 1024


def make_cache(**kwargs) -> tuple[SimClock, PageCache]:
    clock = SimClock()
    defaults = dict(clock=clock, capacity_bytes=16 * PAGE, flush_timeout=5.0)
    defaults.update(kwargs)
    return clock, PageCache(**defaults)


class TestWrite:
    def test_write_returns_ram_latency(self):
        _clock, cache = make_cache()
        latency = cache.write("f", 0, PAGE)
        assert latency == pytest.approx(cache.cost_model.ram_write(PAGE))

    def test_written_pages_are_resident_and_dirty(self):
        _clock, cache = make_cache()
        cache.write("f", 0, 2 * PAGE)
        assert cache.is_resident("f", 0, 2 * PAGE)
        assert cache.dirty_pages() == 2

    def test_flush_timer_cleans_pages(self):
        clock, cache = make_cache(flush_timeout=5.0)
        cache.write("f", 0, PAGE)
        clock.advance(4.9)
        assert cache.dirty_pages() == 1
        clock.advance(0.2)
        assert cache.dirty_pages() == 0
        assert cache.is_resident("f", 0, PAGE)  # flushed but still cached

    def test_zero_timeout_flushes_immediately(self):
        _clock, cache = make_cache(flush_timeout=0.0)
        cache.write("f", 0, PAGE)
        assert cache.dirty_pages() == 0

    def test_zero_bytes_noop(self):
        _clock, cache = make_cache()
        assert cache.write("f", 0, 0) == 0.0

    def test_flush_all(self):
        _clock, cache = make_cache()
        cache.write("f", 0, 3 * PAGE)
        assert cache.flush_all() == 3
        assert cache.dirty_pages() == 0


class TestWriteBatch:
    # Three records starting 10 bytes before a page boundary: pages 0..2.
    START = PAGE - 10
    SIZES = [PAGE // 2, PAGE, 100]

    def _folded(self, cache: PageCache, sizes, base: float = 0.0) -> float:
        latency = base
        for size in sizes:
            latency += size / cache.cost_model.ram_bandwidth
        return latency

    def test_run_crossing_page_boundaries(self):
        clock, cache = make_cache(flush_timeout=5.0)
        latency = cache.write_batch("f", self.START, self.SIZES, 1e-3)
        assert latency == self._folded(cache, self.SIZES, 1e-3)  # to the ulp
        assert cache.is_resident("f", 0, 3 * PAGE)
        assert cache.resident_pages_of("f") == 3
        assert cache.dirty_pages() == 3
        written = cache.metrics.counter("storage.pagecache.bytes_written")
        assert written.value == sum(self.SIZES)
        # One flush timer for the whole run, not one per record or page.
        assert clock.pending_timers() == 1
        assert clock.advance(5.0) == 1
        assert cache.dirty_pages() == 0
        assert cache.is_resident("f", 0, 3 * PAGE)

    def test_zero_size_record_costs_and_dirties_nothing(self):
        clock, cache = make_cache()
        with_zero = [self.SIZES[0], 0, *self.SIZES[1:]]
        latency = cache.write_batch("f", self.START, with_zero)
        assert latency == self._folded(cache, self.SIZES)
        assert cache.dirty_pages() == 3
        assert clock.pending_timers() == 1
        # A run of only empty records touches nothing at all.
        assert cache.write_batch("g", 0, [0, 0], 2.5) == 2.5
        assert cache.resident_pages_of("g") == 0
        assert clock.pending_timers() == 1

    def test_zero_timeout_flushes_now_without_a_timer(self):
        clock, cache = make_cache(flush_timeout=0.0)
        latency = cache.write_batch("f", self.START, self.SIZES)
        assert latency == self._folded(cache, self.SIZES)
        assert cache.is_resident("f", 0, 3 * PAGE)
        assert cache.dirty_pages() == 0
        assert clock.pending_timers() == 0
        flushed = cache.metrics.counter("storage.pagecache.bytes_flushed")
        assert flushed.value == 3 * PAGE


class TestRead:
    def test_hit_is_ram_speed(self):
        _clock, cache = make_cache()
        cache.write("f", 0, PAGE)
        latency = cache.read("f", 0, PAGE)
        assert latency == pytest.approx(cache.cost_model.ram_read(PAGE))

    def test_cold_read_pays_seek(self):
        _clock, cache = make_cache(prefetch_pages=0)
        latency = cache.read("f", 0, PAGE)
        expected = cache.cost_model.disk_seek_time + (
            cache.cost_model.disk_sequential_read(PAGE)
        )
        assert latency == pytest.approx(expected)

    def test_sequential_cold_read_skips_seek(self):
        _clock, cache = make_cache(prefetch_pages=0, capacity_bytes=4 * PAGE)
        cache.read("f", 0, PAGE)            # cold: seek
        latency = cache.read("f", PAGE, PAGE)  # continues sequentially: no seek
        assert latency == pytest.approx(cache.cost_model.disk_sequential_read(PAGE))

    def test_random_cold_read_pays_seek_each_time(self):
        _clock, cache = make_cache(prefetch_pages=0)
        cache.read("f", 0, PAGE)
        latency = cache.read("f", 10 * PAGE, PAGE)  # jump: seek again
        assert latency >= cache.cost_model.disk_seek_time

    def test_prefetch_makes_subsequent_reads_hits(self):
        _clock, cache = make_cache(prefetch_pages=4)
        cache.read("f", 0, PAGE)  # miss; prefetches pages 1-4
        latency = cache.read("f", PAGE, PAGE)
        assert latency == pytest.approx(cache.cost_model.ram_read(PAGE))
        assert cache.metrics.counter("storage.pagecache.bytes_prefetched").value == 4 * PAGE

    def test_hit_miss_counters(self):
        _clock, cache = make_cache(prefetch_pages=0)
        cache.write("f", 0, PAGE)
        cache.read("f", 0, 2 * PAGE)
        assert cache.metrics.counter("storage.pagecache.hits").value == 1
        assert cache.metrics.counter("storage.pagecache.misses").value == 1


class TestEviction:
    def test_capacity_respected(self):
        _clock, cache = make_cache(capacity_bytes=4 * PAGE, flush_timeout=0.0)
        cache.write("f", 0, 10 * PAGE)
        assert cache.resident_bytes() <= 4 * PAGE

    def test_append_order_keeps_newest(self):
        """Anti-caching: the head (newest) of the log stays in RAM."""
        _clock, cache = make_cache(capacity_bytes=4 * PAGE, flush_timeout=0.0)
        for page_no in range(10):
            cache.write("f", page_no * PAGE, PAGE)
        # Newest 4 pages resident; oldest evicted.
        assert cache.is_resident("f", 6 * PAGE, 4 * PAGE)
        assert not cache.is_resident("f", 0, PAGE)

    def test_lru_keeps_recently_read(self):
        _clock, cache = make_cache(
            capacity_bytes=4 * PAGE, flush_timeout=0.0, eviction="lru",
            prefetch_pages=0,
        )
        for page_no in range(4):
            cache.write("f", page_no * PAGE, PAGE)
        cache.read("f", 0, PAGE)  # touch oldest: now most-recently-used
        cache.write("f", 4 * PAGE, PAGE)  # forces one eviction
        assert cache.is_resident("f", 0, PAGE)       # survived (recently read)
        assert not cache.is_resident("f", PAGE, PAGE)  # LRU victim

    def test_dirty_pages_force_flushed_not_lost(self):
        _clock, cache = make_cache(capacity_bytes=2 * PAGE, flush_timeout=100.0)
        cache.write("f", 0, 5 * PAGE)  # all dirty, over capacity
        assert cache.resident_bytes() <= 2 * PAGE
        assert cache.metrics.counter("storage.pagecache.forced_flushes").value > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_cache(eviction="mru")


class TestMaintenance:
    def test_forget_file(self):
        _clock, cache = make_cache()
        cache.write("a", 0, 2 * PAGE)
        cache.write("b", 0, PAGE)
        assert cache.forget_file("a") == 2
        assert not cache.is_resident("a", 0, PAGE)
        assert cache.is_resident("b", 0, PAGE)

    def test_resident_pages_of(self):
        _clock, cache = make_cache()
        cache.write("a", 0, 3 * PAGE)
        assert cache.resident_pages_of("a") == 3

    def test_negative_start_rejected(self):
        _clock, cache = make_cache()
        with pytest.raises(ConfigError):
            cache.read("f", -1, PAGE)

    @pytest.mark.parametrize(
        "kwargs", [
            {"capacity_bytes": 0},
            {"flush_timeout": -1},
            {"prefetch_pages": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            make_cache(**kwargs)


class TestAntiCachingSemantics:
    """Regression guard for the E6 fix: anti-caching evicts by LOG POSITION,
    not by cache-insertion time."""

    def test_scanned_old_pages_evicted_before_newer_data(self):
        _clock, cache = make_cache(
            capacity_bytes=4 * PAGE, flush_timeout=0.0, prefetch_pages=0
        )
        # Newest data: pages 10-12 written (and flushed clean).
        cache.write("f", 10 * PAGE, 3 * PAGE)
        # A scan drags OLD pages 0-1 into the cache afterwards.
        cache.read("f", 0, 2 * PAGE)
        # Capacity is 4 pages; the insertions above total 5: someone was
        # evicted.  Under anti-caching it must be an old page, never the
        # head-of-log pages.
        assert cache.is_resident("f", 10 * PAGE, 3 * PAGE)
        assert cache.resident_pages_of("f") <= 4

    def test_lru_sacrifices_the_head_instead(self):
        _clock, cache = make_cache(
            capacity_bytes=4 * PAGE, flush_timeout=0.0, prefetch_pages=0,
            eviction="lru",
        )
        cache.write("f", 10 * PAGE, 3 * PAGE)
        cache.read("f", 0, 2 * PAGE)
        # LRU evicts the least-recently-touched page, which is one of the
        # (untouched since write) head pages.
        head_resident = sum(
            1 for p in range(10, 13) if cache.is_resident("f", p * PAGE, PAGE)
        )
        assert head_resident < 3

    def test_dirty_head_survives_even_under_pressure(self):
        _clock, cache = make_cache(
            capacity_bytes=2 * PAGE, flush_timeout=100.0, prefetch_pages=0
        )
        cache.write("f", 5 * PAGE, PAGE)   # dirty head page
        cache.read("f", 0, PAGE)           # old page scanned in
        cache.read("f", 1 * PAGE, PAGE)    # another: forces eviction
        assert cache.is_resident("f", 5 * PAGE, PAGE)
