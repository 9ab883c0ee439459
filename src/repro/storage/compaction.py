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
  itself dropped once older than ``tombstone_retention_seconds``;
* the cleaner stops at the first unstable offset (the first record of the
  earliest open transaction): from there on no record supersedes another or
  is removed, and a record of an aborted transaction supersedes nothing —
  so a committed value survives every write a ``read_committed`` reader
  cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.clock import Clock
from repro.common.errors import ConfigError
from repro.storage.log import PartitionLog

#: What a compaction pass must leave alone: the first unstable offset
#: (``None`` when no transaction is open) and the aborted ``(first, last)``
#: offset runs.
Bounds = tuple[int | None, Sequence[tuple[int, int]]]


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

    def compact(
        self,
        log: PartitionLog,
        now: float | None = None,
        bounds: Callable[[], Bounds] | None = None,
    ) -> CompactionResult:
        """Run one compaction pass over the log's sealed segments.

        ``bounds``, asked only when there is a sealed segment to clean,
        returns what the cleaner must leave alone: the first offset of the
        earliest open transaction (``None``: none is open) and the sorted
        ``(first, last)`` offset runs of aborted transactional batches.
        Without it the log holds no transactions.
        """
        if now is None:
            now = self._clock.now() if self._clock is not None else 0.0
        result = CompactionResult()
        sealed = log.sealed_segments()
        if not sealed:
            return result

        unstable, aborted = (None, ()) if bounds is None else bounds()
        limit = log.log_end_offset if unstable is None else unstable
        latest_offset_per_key = self._build_offset_map(log, limit, aborted)
        result.ran = True
        horizon = now - self.config.tombstone_retention_seconds
        for segment in sealed:
            survivors = []
            removed = 0
            tombstones = 0
            for message in segment.messages():
                if message.offset >= limit:
                    survivors.append(message)
                    continue
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

    def _build_offset_map(
        self,
        log: PartitionLog,
        limit: int,
        aborted: Sequence[tuple[int, int]],
    ) -> dict[Any, int]:
        """Highest offset per key across the whole log (sealed + active),
        below ``limit`` and outside the ``aborted`` runs."""
        latest: dict[Any, int] = {}
        runs = iter(aborted)
        run = next(runs, None)
        for segment in log.segments():
            for message in segment.messages():
                offset = message.offset
                if offset >= limit:
                    return latest
                while run is not None and run[1] < offset:
                    run = next(runs, None)
                if run is None or offset < run[0]:
                    latest[message.key] = offset
        return latest
