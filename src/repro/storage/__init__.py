"""Storage engine: segmented append-only logs with simulated page cache."""

from repro.storage.compaction import CompactionConfig, CompactionResult, LogCompactor
from repro.storage.log import AppendResult, LogConfig, PartitionLog, ReadResult
from repro.storage.pagecache import PageCache
from repro.storage.retention import (
    RetentionConfig,
    RetentionEnforcer,
    RetentionResult,
)
from repro.storage.segment import LogSegment
from repro.storage.tiered import (
    ColdReader,
    ColdTier,
    DfsObjectStore,
    SegmentArchiver,
    TierManifest,
    TieredConfig,
)

__all__ = [
    "LogSegment",
    "PageCache",
    "PartitionLog",
    "LogConfig",
    "AppendResult",
    "ReadResult",
    "RetentionConfig",
    "RetentionEnforcer",
    "RetentionResult",
    "CompactionConfig",
    "CompactionResult",
    "LogCompactor",
    "ColdReader",
    "ColdTier",
    "DfsObjectStore",
    "SegmentArchiver",
    "TierManifest",
    "TieredConfig",
]
