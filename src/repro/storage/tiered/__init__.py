"""Tiered log storage: offload sealed segments to an offline cold store.

The hot tier (:class:`~repro.storage.log.PartitionLog`) keeps a bounded
window of recent history at RAM/disk speed; this package provides the cold
tier that makes the rest of the history *rewindable* instead of deleted:

* :class:`DfsObjectStore` — the immutable object store, over the batch DFS,
  holding archived segments;
* :class:`TierManifest` / :class:`ArchivedSegment` — the per-partition index
  of archived offset ranges;
* :class:`SegmentArchiver` — copies sealed segments to the store before
  retention deletes them (wired through
  :class:`~repro.storage.retention.RetentionEnforcer`);
* :class:`ColdReader` — lazily hydrates archived segments under a bounded
  cache and serves them through the page cache;
* :class:`ColdTier` — the per-replica bundle with the stitched
  archive-into-hot-log read path.
"""

from repro.storage.tiered.archiver import ArchiveResult, SegmentArchiver
from repro.storage.tiered.coldreader import COLD_FILE_PREFIX, ColdReader
from repro.storage.tiered.config import TieredConfig
from repro.storage.tiered.manifest import ArchivedSegment, TierManifest
from repro.storage.tiered.objectstore import (
    DfsObjectStore,
    ObjectGetResult,
    ObjectPutResult,
)
from repro.storage.tiered.tier import ColdTier

__all__ = [
    "ArchiveResult",
    "ArchivedSegment",
    "COLD_FILE_PREFIX",
    "ColdReader",
    "ColdTier",
    "DfsObjectStore",
    "ObjectGetResult",
    "ObjectPutResult",
    "SegmentArchiver",
    "TierManifest",
    "TieredConfig",
]
