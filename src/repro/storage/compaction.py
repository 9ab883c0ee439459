"""Log compaction: keep only the newest record per key (§4.1).

"The log is scanned asynchronously, de-duplicating messages with the same
key and keeping only the most recent data for each key."

Compaction is what makes changelog feeds (the processing layer's state
checkpoints, §3.2) both small and fast to replay: after compaction the
changelog holds one record per live state key instead of one per update —
E4 measures exactly this.

Semantics reproduced from Kafka:

* only *sealed* segments are compacted; the active segment is the "dirty"
  region and is never rewritten;
* a record survives iff no record with the same key and a higher offset
  exists anywhere in the log (including the active segment — a newer value
  still in the dirty region supersedes older sealed copies);
* surviving records keep their original offsets;
* a ``None`` value is a *tombstone*: it supersedes earlier values and is
  itself dropped once older than ``tombstone_retention_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.clock import Clock
from repro.common.errors import ConfigError
from repro.storage.log import PartitionLog


@dataclass(frozen=True)
class CompactionConfig:
    """Compaction knobs."""

    tombstone_retention_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.tombstone_retention_seconds < 0:
            raise ConfigError("tombstone_retention_seconds must be >= 0")


@dataclass
class CompactionResult:
    """What one compaction pass achieved."""

    ran: bool = False
    segments_rewritten: int = 0
    segments_merged: int = 0
    messages_removed: int = 0
    bytes_reclaimed: int = 0
    tombstones_dropped: int = 0


class LogCompactor:
    """Compacts a :class:`PartitionLog` in place."""

    def __init__(self, config: CompactionConfig | None = None, clock: Clock | None = None) -> None:
        self.config = config if config is not None else CompactionConfig()
        self._clock = clock

    def compact(self, log: PartitionLog, now: float | None = None) -> CompactionResult:
        """Run one compaction pass over the log's sealed segments."""
        if now is None:
            now = self._clock.now() if self._clock is not None else 0.0
        result = CompactionResult()
        sealed = log.sealed_segments()
        if not sealed:
            return result

        latest_offset_per_key = self._build_offset_map(log)
        result.ran = True
        horizon = now - self.config.tombstone_retention_seconds
        for segment in sealed:
            survivors = []
            removed = 0
            tombstones = 0
            for message in segment.messages():
                if message.offset != latest_offset_per_key.get(message.key):
                    removed += 1
                    continue
                is_tombstone = message.value is None
                if is_tombstone and message.timestamp < horizon:
                    tombstones += 1
                    removed += 1
                    continue
                survivors.append(message)
            if removed:
                result.bytes_reclaimed += log.rewrite_segment(segment, survivors)
                result.segments_rewritten += 1
                result.messages_removed += removed
                result.tombstones_dropped += tombstones
        if result.segments_rewritten:
            result.segments_merged = log.merge_sealed_segments()
        return result

    def _build_offset_map(self, log: PartitionLog) -> dict[Any, int]:
        """Highest offset per key across the whole log (sealed + active)."""
        latest: dict[Any, int] = {}
        for segment in log.segments():
            for message in segment.messages():
                latest[message.key] = message.offset
        return latest
