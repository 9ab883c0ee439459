"""The cold tier of one partition: manifest + archiver + reader, stitched.

:class:`ColdTier` is what the messaging layer holds per tiered partition
replica.  It bundles the three tiered-storage pieces around the partition's
hot :class:`~repro.storage.log.PartitionLog` and provides the one read
operation the broker needs: :meth:`read_through`, which serves an offset
range that may start in the archive and continue seamlessly into the hot
log — the §2.2 rewindability claim made real after retention has truncated
the hot tier.
"""

from __future__ import annotations

from repro.common.errors import OffsetOutOfRangeError
from repro.common.metrics import MetricsRegistry, metric_name
from repro.storage.log import PartitionLog, ReadResult
from repro.storage.tiered.archiver import SegmentArchiver
from repro.storage.tiered.coldreader import ColdReader
from repro.storage.tiered.config import TieredConfig
from repro.storage.tiered.manifest import TierManifest
from repro.storage.tiered.objectstore import DfsObjectStore

# Metric names precomputed once (layer.component.metric convention).
_M_COLD_READS = metric_name("storage", "tiered", "cold_reads")
_M_COLD_READ_LATENCY = metric_name("storage", "tiered", "cold_read_latency")


class ColdTier:
    """Cold-tier state and read path for one partition replica."""

    def __init__(
        self,
        log: PartitionLog,
        store: DfsObjectStore,
        namespace: str,
        config: TieredConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.log = log
        self.config = config if config is not None else TieredConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_cold_reads = self.metrics.counter(_M_COLD_READS)
        self._h_cold_read_latency = self.metrics.histogram(_M_COLD_READ_LATENCY)
        self.manifest = TierManifest()
        self.archiver = SegmentArchiver(
            store, self.manifest, namespace, log.clock, self.metrics
        )
        self.reader = ColdReader(
            store,
            self.manifest,
            log.clock,
            page_cache=log.page_cache,
            hydration_cache_bytes=self.config.hydration_cache_bytes,
            metrics=self.metrics,
        )

    # -- offsets ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.manifest.is_empty

    @property
    def earliest_offset(self) -> int:
        """Oldest readable offset across both tiers."""
        start = self.manifest.start_offset
        if start is None:
            return self.log.log_start_offset
        return min(start, self.log.log_start_offset)

    # -- read path ---------------------------------------------------------------

    def read_through(
        self,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
    ) -> ReadResult:
        """Read from the archive, continuing into the hot log if budget remains.

        ``log_end_offset`` of the result is the *hot* log's end offset, so
        callers see the same sequencing surface as a pure hot read.  Raises
        :class:`OffsetOutOfRangeError` (with the full tiered range) when
        ``offset`` precedes the oldest archived record.
        """
        # Both tiers' bounds, read once per request.
        log = self.log
        log_start = log.log_start_offset
        start = self.manifest.start_offset
        end = self.manifest.end_offset
        earliest = log_start if start is None or log_start < start else start
        if offset < earliest:
            raise OffsetOutOfRangeError(offset, earliest, log.log_end_offset)
        if start is None or not start <= offset < end:
            # Past the archive's last record, but maybe below the hot log's
            # start: offsets compaction removed before their segment was
            # archived.  The read resumes at the next surviving record
            # (Kafka fetch semantics), as it does within a tier.
            return log.read(
                offset if offset > log_start else log_start, max_messages, max_bytes
            )
        result = self.reader.read(offset, max_messages, max_bytes)
        self._c_cold_reads.increment()
        self._h_cold_read_latency.observe(result.latency)
        log_end = result.log_end_offset = log.log_end_offset
        remaining = max_messages - len(result.offsets)
        byte_budget = None
        if max_bytes is not None:
            byte_budget = max_bytes - result.stored_bytes
        # The archive ended at or before the hot log's start; continue the
        # scan in the hot tier when the caller's budgets are not exhausted.
        if (
            remaining > 0
            and (byte_budget is None or byte_budget > 0)
            and log_start <= result.next_offset < log_end
        ):
            result.extend(log.read(result.next_offset, remaining, byte_budget))
        return result

    def offset_for_timestamp(self, timestamp: float) -> int | None:
        """Tier-spanning timestamp lookup: archive first, then hot log."""
        found = self.reader.offset_for_timestamp(timestamp)
        if found is not None:
            return found
        return self.log.offset_for_timestamp(timestamp)

    # -- operational stats --------------------------------------------------------

    def stats(self) -> dict[str, float | int | None]:
        """Per-partition snapshot for the admin surface."""
        return {
            "archived_segments": self.manifest.segment_count,
            "archived_bytes": self.manifest.total_bytes,
            "archived_messages": self.manifest.total_messages,
            "archived_start_offset": self.manifest.start_offset,
            "archived_end_offset": self.manifest.end_offset,
            "hydrated_segments": self.reader.hydrated_segments,
            "hydrated_bytes": self.reader.hydrated_bytes,
            "cold_hits": self.reader.hits,
            "cold_misses": self.reader.misses,
            "cold_hit_ratio": self.reader.hit_ratio,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColdTier({self.archiver.namespace!r}, "
            f"archived=[{self.manifest.start_offset}, "
            f"{self.manifest.end_offset}), hot_start="
            f"{self.log.log_start_offset})"
        )
