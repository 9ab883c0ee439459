"""Simulated OS page cache with "anti-caching" eviction (§4.1).

The paper's messaging layer does not manage its own buffer pool; it leans on
the OS file-system cache, configured so that freshly appended data stays in
RAM and is flushed to disk after a timeout.  Because the log is append-only,
the data most likely to be read (the *head* of the log, i.e. the newest
messages consumed by nearline systems) is exactly the data most recently
written — so flushing/evicting in append order keeps tail readers at RAM
speed while cold, historical data lives on disk.  This mirrors the
anti-caching idea of DeBrabant et al. the paper cites: RAM is the default
home of data, disk is where cold data is *evicted to*.

The cache models three effects the paper calls out explicitly:

* head-of-log reads hit RAM (fast path for nearline consumers);
* a cold random read ("rewind") pays a disk seek, then *prefetching* makes
  successive sequential reads fast "after typically a few seconds";
* sequential cold reads stream at disk bandwidth without per-read seeks.

Foreground latency is returned to the caller; background work (timed
flushes, readahead) is accounted in metrics but does not block clients.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Literal

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.metrics import MetricsRegistry, metric_name

EvictionPolicy = Literal["append_order", "lru"]

# Metric names precomputed once (layer.component.metric convention).
_M_BYTES_WRITTEN = metric_name("storage", "pagecache", "bytes_written")
_M_BYTES_FLUSHED = metric_name("storage", "pagecache", "bytes_flushed")
_M_BACKGROUND_DISK_SECONDS = metric_name(
    "storage", "pagecache", "background_disk_seconds"
)
_M_HITS = metric_name("storage", "pagecache", "hits")
_M_MISSES = metric_name("storage", "pagecache", "misses")
_M_BYTES_READ_DISK = metric_name("storage", "pagecache", "bytes_read_disk")
_M_BYTES_READ = metric_name("storage", "pagecache", "bytes_read")
_M_BYTES_INSTALLED = metric_name("storage", "pagecache", "bytes_installed")
_M_BYTES_PREFETCHED = metric_name("storage", "pagecache", "bytes_prefetched")
_M_FORCED_FLUSHES = metric_name("storage", "pagecache", "forced_flushes")
_M_EVICTIONS = metric_name("storage", "pagecache", "evictions")


class _Page:
    __slots__ = ("file_id", "page_no", "dirty")

    def __init__(self, file_id: str, page_no: int, dirty: bool) -> None:
        self.file_id = file_id
        self.page_no = page_no
        self.dirty = dirty


class PageCache:
    """Byte-addressed cache over named files, in fixed-size pages.

    ``eviction="append_order"`` is the paper's anti-caching behaviour: when
    capacity is exceeded, the *oldest-written* clean pages are dropped first,
    so the newest data survives.  ``eviction="lru"`` is the conventional
    policy, kept as the E6 ablation.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        capacity_bytes: int = 256 * 1024 * 1024,
        flush_timeout: float = 5.0,
        prefetch_pages: int = 8,
        eviction: EvictionPolicy = "append_order",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        if flush_timeout < 0:
            raise ConfigError(f"flush_timeout must be >= 0, got {flush_timeout}")
        if prefetch_pages < 0:
            raise ConfigError(f"prefetch_pages must be >= 0, got {prefetch_pages}")
        if eviction not in ("append_order", "lru"):
            raise ConfigError(f"unknown eviction policy {eviction!r}")
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = self.clock.cost_model
        self.capacity_bytes = capacity_bytes
        self.flush_timeout = flush_timeout
        self.prefetch_pages = prefetch_pages
        self.eviction = eviction
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._c_bytes_written = counter(_M_BYTES_WRITTEN)
        self._c_bytes_flushed = counter(_M_BYTES_FLUSHED)
        self._c_background_disk_seconds = counter(_M_BACKGROUND_DISK_SECONDS)
        self._c_hits = counter(_M_HITS)
        self._c_misses = counter(_M_MISSES)
        self._c_bytes_read_disk = counter(_M_BYTES_READ_DISK)
        self._c_bytes_read = counter(_M_BYTES_READ)
        self._c_bytes_installed = counter(_M_BYTES_INSTALLED)
        self._c_bytes_prefetched = counter(_M_BYTES_PREFETCHED)
        self._c_forced_flushes = counter(_M_FORCED_FLUSHES)
        self._c_evictions = counter(_M_EVICTIONS)
        self.page_size = self.cost_model.page_size
        # Iteration order of this dict is the eviction order.
        self._pages: OrderedDict[tuple[str, int], _Page] = OrderedDict()
        # Per-file end position of the last read, for sequential detection.
        self._last_read_end: dict[str, int] = {}

    # -- write path -----------------------------------------------------------

    def write(self, file_id: str, start: int, nbytes: int) -> float:
        """Write ``nbytes`` at ``start``; returns foreground latency."""
        return self.write_batch(file_id, start, [nbytes])

    def write_batch(
        self, file_id: str, start: int, sizes: list[int], base_latency: float = 0.0
    ) -> float:
        """Write a contiguous run of records starting at ``start``.

        Pages land dirty in RAM and are flushed to disk ``flush_timeout``
        seconds later by one scheduled background flush per call (at once
        when the timeout is 0), per the paper's configurable-timeout design.
        Latency is each positive size's ``size / ram_bandwidth`` (what
        :meth:`CostModel.ram_write` evaluates) folded onto ``base_latency``
        left to right, so simulated totals are bit-identical however a run
        is cut into calls.
        """
        latency = base_latency
        nbytes = 0
        bandwidth = self.cost_model.ram_bandwidth
        for size in sizes:
            if size > 0:
                latency += size / bandwidth
                nbytes += size
        if nbytes == 0:
            return latency
        touched = self._page_range(start, nbytes)
        pages = self._pages
        for page_no in touched:
            key = (file_id, page_no)
            page = pages.get(key)
            if page is None:
                pages[key] = _Page(file_id, page_no, dirty=True)
            else:
                page.dirty = True
                pages.move_to_end(key)  # rewritten pages are newest
        self._evict_to_capacity()
        keys = [(file_id, p) for p in touched]
        if self.flush_timeout > 0:
            self.clock.schedule(self.flush_timeout, self._flush_pages, keys)
        else:
            self._flush_pages(keys)
        self._c_bytes_written.increment(nbytes)
        return latency

    def _flush_pages(self, keys: list[tuple[str, int]]) -> None:
        """Background flush: dirty pages become clean, staying resident."""
        flushed = 0
        for key in keys:
            page = self._pages.get(key)
            if page is not None and page.dirty:
                page.dirty = False
                flushed += 1
        if flushed:
            nbytes = flushed * self.page_size
            self._c_bytes_flushed.increment(nbytes)
            self._c_background_disk_seconds.increment(
                self.cost_model.disk_sequential_write(nbytes)
            )

    def flush_all(self) -> int:
        """Force-flush every dirty page; returns pages flushed (tests/shutdown)."""
        dirty = [key for key, page in self._pages.items() if page.dirty]
        self._flush_pages(dirty)
        return len(dirty)

    # -- read path ------------------------------------------------------------

    def read(self, file_id: str, start: int, nbytes: int) -> float:
        """Read ``nbytes`` at ``start``; returns foreground latency.

        Resident pages cost RAM time.  A run of non-resident pages costs one
        seek (unless the read continues the previous one sequentially) plus
        sequential-disk time, and triggers readahead of the following pages.
        """
        if nbytes <= 0:
            return 0.0
        pages = self._page_range(start, nbytes)
        sequential = self._last_read_end.get(file_id) == start
        self._last_read_end[file_id] = start + nbytes

        # Classify pages, collecting runs of consecutive misses.
        hits = 0
        miss_runs: list[tuple[int, int]] = []  # (first_page, run_length)
        for page_no in pages:
            key = (file_id, page_no)
            page = self._pages.get(key)
            if page is not None:
                if self.eviction == "lru":
                    self._pages.move_to_end(key)
                hits += 1
            else:
                if miss_runs and miss_runs[-1][0] + miss_runs[-1][1] == page_no:
                    first, length = miss_runs[-1]
                    miss_runs[-1] = (first, length + 1)
                else:
                    miss_runs.append((page_no, 1))
                self._insert_clean(file_id, page_no)

        latency = hits * self.cost_model.ram_read(self.page_size)
        if hits:
            self._c_hits.increment(hits)
        for first, length in miss_runs:
            run_bytes = length * self.page_size
            cost = self.cost_model.disk_sequential_read(run_bytes)
            # A miss run starting where the previous read ended continues a
            # sequential scan: the disk head is already positioned.
            if not (sequential and first == pages[0]):
                cost += self.cost_model.disk_seek_time
            latency += cost
            self._c_misses.increment(length)
            self._c_bytes_read_disk.increment(run_bytes)
        if miss_runs:
            self._prefetch(file_id, pages[-1] + 1)
        self._c_bytes_read.increment(nbytes)
        return latency

    def _insert_clean(self, file_id: str, page_no: int) -> None:
        key = (file_id, page_no)
        self._pages[key] = _Page(file_id, page_no, dirty=False)
        self._evict_to_capacity()

    def install(self, file_id: str, start: int, nbytes: int) -> int:
        """Insert clean resident pages with no foreground read charge.

        Used by the cold tier after hydrating an archived segment: the bytes
        were already paid for by the cold fetch, so residency is recorded
        without charging a second (disk-priced) read.  Returns the number of
        pages newly inserted; existing pages are left untouched.
        """
        if nbytes <= 0:
            return 0
        inserted = 0
        for page_no in self._page_range(start, nbytes):
            key = (file_id, page_no)
            if key not in self._pages:
                self._pages[key] = _Page(file_id, page_no, dirty=False)
                inserted += 1
        if inserted:
            self._c_bytes_installed.increment(inserted * self.page_size)
            self._evict_to_capacity()
        return inserted

    def _prefetch(self, file_id: str, from_page: int) -> None:
        """Readahead: pull the next pages into cache in the background."""
        loaded = 0
        for page_no in range(from_page, from_page + self.prefetch_pages):
            key = (file_id, page_no)
            if key not in self._pages:
                self._pages[key] = _Page(file_id, page_no, dirty=False)
                loaded += 1
        if loaded:
            nbytes = loaded * self.page_size
            self._c_bytes_prefetched.increment(nbytes)
            self._c_background_disk_seconds.increment(
                self.cost_model.disk_sequential_read(nbytes)
            )
            self._evict_to_capacity()

    # -- eviction ---------------------------------------------------------------

    def _evict_to_capacity(self) -> None:
        capacity_pages = self.capacity_bytes // self.page_size
        while len(self._pages) > capacity_pages:
            if not self._evict_one():
                break

    def _evict_one(self) -> bool:
        """Evict one page according to the policy; force-flush if all dirty.

        * ``lru`` — evict the least-recently-used page (front of the
          access-ordered dict).
        * ``append_order`` — anti-caching: evict the page holding the OLDEST
          log data (smallest file position), regardless of when it entered
          the cache.  A scan that drags cold history into RAM therefore
          cannot displace the head of the log.
        """
        victim = self._pick_victim(require_clean=True)
        if victim is None:
            victim = self._pick_victim(require_clean=False)
            if victim is None:
                return False
            self._pages[victim].dirty = False
            self._c_forced_flushes.increment()
            self._c_background_disk_seconds.increment(
                self.cost_model.disk_sequential_write(self.page_size)
            )
        del self._pages[victim]
        self._c_evictions.increment()
        return True

    def _pick_victim(self, require_clean: bool) -> tuple[str, int] | None:
        candidates = (
            key
            for key, page in self._pages.items()
            if not (require_clean and page.dirty)
        )
        if self.eviction == "append_order":
            # Oldest log position first; file ids embed zero-padded base
            # offsets, so lexicographic order is append order.
            return min(candidates, default=None)
        return next(candidates, None)

    # -- maintenance --------------------------------------------------------------

    def forget_file(self, file_id: str) -> int:
        """Drop all pages of a deleted file (segment removed by retention)."""
        victims = [key for key in self._pages if key[0] == file_id]
        for key in victims:
            del self._pages[key]
        self._last_read_end.pop(file_id, None)
        return len(victims)

    # -- introspection --------------------------------------------------------------

    def is_resident(self, file_id: str, start: int, nbytes: int) -> bool:
        """True iff every page of the byte range is in cache."""
        return all(
            (file_id, p) in self._pages for p in self._page_range(start, nbytes)
        )

    def resident_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def resident_pages_of(self, file_id: str) -> int:
        return sum(1 for key in self._pages if key[0] == file_id)

    def dirty_pages(self) -> int:
        return sum(1 for page in self._pages.values() if page.dirty)

    def _page_range(self, start: int, nbytes: int) -> list[int]:
        if start < 0:
            raise ConfigError(f"start must be >= 0, got {start}")
        first = start // self.page_size
        last = (start + nbytes - 1) // self.page_size
        return list(range(first, last + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageCache({len(self._pages)} pages, {self.dirty_pages()} dirty, "
            f"policy={self.eviction})"
        )
