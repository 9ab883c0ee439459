"""Cold reads: lazily hydrate archived segments and serve them at RAM speed.

A rewinding consumer that drops below the hot log's start offset lands here.
The reader locates the archived segment through the manifest, *hydrates* it
(one whole-object cold fetch, charged to the cold cost model — the expensive
step), then serves records out of a bounded local cache:

* the **hydration cache** holds the fetched record runs, LRU-evicted under a
  byte cap, so one backfill does not hold unbounded history in memory;
* hydrated pages are also **installed into the shared page cache** (clean,
  with no extra read charge — the cold fetch already paid for the transfer),
  so repeat reads of the same history cost RAM time, and under the
  anti-caching eviction policy cold pages are the first to go when the hot
  head needs the space (cold file ids sort before hot segment files).

This is the paper's §4.1 rewind story ("a few seconds" of seek-then-stream,
then fast sequential reads) extended across the tier boundary: the first
touch of archived history pays the cold fetch, the rest of the scan streams.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import accumulate
from operator import attrgetter

from repro.common.clock import SimClock
from repro.common.errors import OffsetOutOfRangeError
from repro.common.metrics import MetricsRegistry, metric_name
from repro.common.records import StoredMessage
from repro.storage.log import ReadResult
from repro.storage.pagecache import PageCache
from repro.storage.tiered.manifest import ArchivedSegment, TierManifest
from repro.storage.tiered.objectstore import DfsObjectStore

# Metric names precomputed once (layer.component.metric convention).
_M_COLD_HITS = metric_name("storage", "tiered", "cold_hits")
_M_COLD_FETCHES = metric_name("storage", "tiered", "cold_fetches")
_M_BYTES_HYDRATED = metric_name("storage", "tiered", "bytes_hydrated")
_M_HYDRATION_LATENCY = metric_name("storage", "tiered", "hydration_latency")
_M_HYDRATION_EVICTIONS = metric_name("storage", "tiered", "hydration_evictions")
_M_COLD_RECORDS_READ = metric_name("storage", "tiered", "cold_records_read")

#: Cold page-cache file ids start with "!" so they sort *before* every hot
#: segment file: the append-order ("anti-caching") eviction policy evicts the
#: oldest data first, and archived history is by definition the oldest data
#: in the system — a backfill can never displace the hot head of the log.
COLD_FILE_PREFIX = "!cold/"


class _HydratedSegment:
    """One archived segment's records, resident in the hydration cache."""

    __slots__ = ("records", "offsets", "positions", "size_bytes")

    def __init__(self, records: list[StoredMessage], size_bytes: int) -> None:
        self.records = records
        # From a list, which array converts in one pass.
        self.offsets = array("q", [r.offset for r in records])
        # positions[i] = byte offset of record i; final element = total size,
        # so served byte ranges are prefix-sum arithmetic as in LogSegment,
        # and machine words as there.  Physical (stored) sizes: compressed
        # archives hydrate and serve at their compressed footprint, matching
        # entry.size_bytes.
        self.positions = array(
            "q", list(accumulate((r.stored_size for r in records), initial=0))
        )
        self.size_bytes = size_bytes


class ColdReader:
    """Reads archived offset ranges through a bounded hydration cache."""

    def __init__(
        self,
        store: DfsObjectStore,
        manifest: TierManifest,
        clock: SimClock,
        page_cache: PageCache | None = None,
        hydration_cache_bytes: int = 64 * 1024 * 1024,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.manifest = manifest
        self.clock = clock
        self.cost_model = clock.cost_model
        self.page_cache = page_cache
        self.hydration_cache_bytes = hydration_cache_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_cold_hits = self.metrics.counter(_M_COLD_HITS)
        self._c_cold_fetches = self.metrics.counter(_M_COLD_FETCHES)
        self._c_bytes_hydrated = self.metrics.counter(_M_BYTES_HYDRATED)
        self._h_hydration_latency = self.metrics.histogram(_M_HYDRATION_LATENCY)
        self._c_hydration_evictions = self.metrics.counter(_M_HYDRATION_EVICTIONS)
        self._c_cold_records_read = self.metrics.counter(_M_COLD_RECORDS_READ)
        self._hydrated: OrderedDict[str, _HydratedSegment] = OrderedDict()
        self._hydrated_bytes = 0
        self.hits = 0
        self.misses = 0

    # -- hydration cache ---------------------------------------------------------

    def _file_id(self, object_key: str) -> str:
        return COLD_FILE_PREFIX + object_key

    def _hydrate(self, entry: ArchivedSegment) -> tuple[_HydratedSegment, float]:
        """Return the hydrated segment, fetching from the cold store on miss."""
        cached = self._hydrated.get(entry.object_key)
        if cached is not None:
            self._hydrated.move_to_end(entry.object_key)
            self.hits += 1
            self._c_cold_hits.increment()
            return cached, 0.0
        self.misses += 1
        self._c_cold_fetches.increment()
        got = self.store.get(entry.object_key)
        hydrated = _HydratedSegment(got.records, entry.size_bytes)
        self._hydrated[entry.object_key] = hydrated
        self._hydrated_bytes += entry.size_bytes
        if self.page_cache is not None:
            self.page_cache.install(
                self._file_id(entry.object_key), 0, entry.size_bytes
            )
        self._evict_to_cap()
        self._c_bytes_hydrated.increment(entry.size_bytes)
        self._h_hydration_latency.observe(got.latency)
        return hydrated, got.latency

    def _evict_to_cap(self) -> None:
        while (
            self._hydrated_bytes > self.hydration_cache_bytes
            and len(self._hydrated) > 1  # keep the segment being served
        ):
            key, victim = self._hydrated.popitem(last=False)
            self._hydrated_bytes -= victim.size_bytes
            if self.page_cache is not None:
                self.page_cache.forget_file(self._file_id(key))
            self._c_hydration_evictions.increment()

    # -- read path ------------------------------------------------------------------

    def read(
        self,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
    ) -> ReadResult:
        """Read archived records with offset >= ``offset``.

        Stops at the end of the archive (``next_offset`` then equals the
        archive's end offset, which is where the hot log picks up).  Raises
        :class:`OffsetOutOfRangeError` when ``offset`` precedes the oldest
        archived record.
        """
        start = self.manifest.start_offset
        end = self.manifest.end_offset
        if start is None or end is None or offset < start:
            raise OffsetOutOfRangeError(offset, start if start is not None else 0, end if end is not None else 0)
        collected: list[StoredMessage] = []
        offsets = array("q")
        latency = 0.0
        stored_bytes = 0
        byte_budget = max_bytes if max_bytes is not None else 1 << 62
        cursor = offset
        entry = self.manifest.entry_for(offset)
        while entry is not None and len(collected) < max_messages:
            hydrated, fetch_latency = self._hydrate(entry)
            latency += fetch_latency
            idx = bisect_left(hydrated.offsets, cursor)
            stop = min(len(hydrated.records), idx + max_messages - len(collected))
            positions = hydrated.positions
            # Largest prefix whose bytes fit the budget: a bisect over the
            # cumulative positions, as LogSegment.read_into does.
            keep = (
                bisect_right(
                    positions, positions[idx] + byte_budget, idx + 1, stop + 1
                )
                - 1
            )
            if keep == idx and idx < stop and not collected:
                keep = idx + 1  # Kafka semantics: always deliver >= 1 record
            if keep > idx:
                nbytes = positions[keep] - positions[idx]
                stored_bytes += nbytes
                byte_budget -= nbytes
                latency += self._charge_read(
                    entry.object_key, positions[idx], nbytes
                )
                # Most reads stay in one segment: its slices are the read's
                # lists, not copied again into empty ones.
                if collected:
                    collected += hydrated.records[idx:keep]
                    offsets += hydrated.offsets[idx:keep]
                else:
                    collected = hydrated.records[idx:keep]
                    offsets = hydrated.offsets[idx:keep]
                cursor = offsets[-1] + 1
                self._c_cold_records_read.increment(keep - idx)
            if keep < stop or byte_budget <= 0:
                break  # byte budget exhausted mid-segment
            entry = self.manifest.next_entry(entry)
            if entry is not None:
                cursor = max(cursor, entry.first_offset)
        next_offset = offsets[-1] + 1 if offsets else offset
        if entry is None and len(collected) < max_messages and byte_budget > 0:
            # Ran off the end of the archive: the hot log continues at `end`.
            next_offset = max(next_offset, end)
        return ReadResult(
            collected, offsets, latency, end, next_offset, stored_bytes
        )

    def _charge_read(self, object_key: str, position: int, nbytes: int) -> float:
        """Cost of copying served bytes out of the hydrated segment."""
        if self.page_cache is not None:
            return self.page_cache.read(self._file_id(object_key), position, nbytes)
        return self.cost_model.ram_read(nbytes)

    def drop_cache(self) -> None:
        """Discard all hydrated segments (e.g. the hosting machine crashed —
        the hydration cache is RAM and does not survive)."""
        if self.page_cache is not None:
            for key in self._hydrated:
                self.page_cache.forget_file(self._file_id(key))
        self._hydrated.clear()
        self._hydrated_bytes = 0

    # -- timestamp lookup -------------------------------------------------------------

    def offset_for_timestamp(self, timestamp: float) -> int | None:
        """Earliest archived offset with record timestamp >= ``timestamp``.

        A metadata operation (no latency channel), but it may hydrate the
        covering segment to answer exactly; the hydration stays cached for
        the rewind read that almost always follows.
        """
        entry = self.manifest.entry_for_timestamp(timestamp)
        if entry is None:
            return None
        hydrated, _latency = self._hydrate(entry)
        idx = bisect_left(hydrated.records, timestamp, key=attrgetter("timestamp"))
        if idx >= len(hydrated.records):
            return None
        return hydrated.records[idx].offset

    # -- introspection ----------------------------------------------------------------

    @property
    def hydrated_segments(self) -> int:
        return len(self._hydrated)

    @property
    def hydrated_bytes(self) -> int:
        return self._hydrated_bytes

    @property
    def hit_ratio(self) -> float | None:
        total = self.hits + self.misses
        return self.hits / total if total else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColdReader(hydrated={len(self._hydrated)}, "
            f"{self._hydrated_bytes}B, hits={self.hits}, misses={self.misses})"
        )
