"""Segment offload: copy sealed segments to the cold store before deletion.

The archiver is the write side of the tiered log.  Retention calls it on
every sealed segment it is about to drop; the archiver uploads the segment's
records as one immutable object, records the offset range in the partition's
:class:`~repro.storage.tiered.manifest.TierManifest`, and returns what it
moved so :class:`~repro.storage.retention.RetentionResult` can report both
halves (archived, then deleted) of the offload.

Object keys embed only the partition namespace and base offset — never the
broker id — so when several replicas of the same partition run retention,
the second and third ``put`` of the same segment are idempotent no-ops
(every replica holds byte-identical sealed segments below the high
watermark, which is what replication guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import Clock
from repro.common.metrics import MetricsRegistry, metric_name
from repro.storage.segment import LogSegment
from repro.storage.tiered.manifest import ArchivedSegment, TierManifest
from repro.storage.tiered.objectstore import DfsObjectStore

# Metric names precomputed once (layer.component.metric convention).
_M_SEGMENTS_ARCHIVED = metric_name("storage", "tiered", "segments_archived")
_M_BYTES_ARCHIVED = metric_name("storage", "tiered", "bytes_archived")


@dataclass
class ArchiveResult:
    """Outcome of archiving one segment."""

    archived: bool
    object_key: str = ""
    size_bytes: int = 0
    message_count: int = 0
    latency: float = 0.0
    deduplicated: bool = False  # another replica uploaded this object first


class SegmentArchiver:
    """Uploads sealed segments to the :class:`DfsObjectStore` and indexes them."""

    def __init__(
        self,
        store: DfsObjectStore,
        manifest: TierManifest,
        namespace: str,
        clock: Clock,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.manifest = manifest
        self.namespace = namespace
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_segments_archived = self.metrics.counter(_M_SEGMENTS_ARCHIVED)
        self._c_bytes_archived = self.metrics.counter(_M_BYTES_ARCHIVED)

    def object_key(self, segment: LogSegment) -> str:
        return f"{self.namespace}/{segment.base_offset:020d}"

    def archive(self, segment: LogSegment) -> ArchiveResult:
        """Offload one sealed segment; empty segments are skipped.

        A sealed segment whose records were all compacted away carries no
        data, so there is nothing to archive — retention deletes it directly
        (see the explicit empty-segment policy in
        :mod:`repro.storage.retention`).
        """
        records = list(segment.messages())
        if not records:
            return ArchiveResult(archived=False)
        key = self.object_key(segment)
        put = self.store.put(key, records, segment.size_bytes)
        entry = ArchivedSegment(
            base_offset=segment.base_offset,
            first_offset=records[0].offset,
            last_offset=records[-1].offset,
            message_count=len(records),
            size_bytes=segment.size_bytes,
            object_key=key,
            first_timestamp=records[0].timestamp,
            last_timestamp=records[-1].timestamp,
            archived_at=self.clock.now(),
        )
        self.manifest.add(entry)
        self._c_segments_archived.increment()
        self._c_bytes_archived.increment(segment.size_bytes)
        return ArchiveResult(
            archived=True,
            object_key=key,
            size_bytes=segment.size_bytes,
            message_count=len(records),
            latency=put.latency,
            deduplicated=not put.created,
        )
