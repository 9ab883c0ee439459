"""Per-partition manifest of archived offset ranges.

The manifest is the cold tier's index: for each sealed segment offloaded to
the object store it records the offset range, byte size, timestamp span and
object key.  Lookups mirror the hot log's segment lookup (bisect on base
offsets), so locating an archived offset is O(log #archived-segments)
regardless of how much history has been offloaded — the tiered analogue of
the paper's "cost independent of log size" claim.

Entries are append-only and must arrive in offset order (retention always
drops — and therefore archives — from the head of the log), which keeps the
bookkeeping a sorted list rather than an interval tree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ArchivedSegment:
    """One sealed segment's footprint in the cold store."""

    base_offset: int
    first_offset: int
    last_offset: int
    message_count: int
    size_bytes: int
    object_key: str
    first_timestamp: float
    last_timestamp: float
    archived_at: float

    def __post_init__(self) -> None:
        if self.message_count <= 0:
            raise ConfigError("archived segment must hold at least one record")
        if not self.base_offset <= self.first_offset <= self.last_offset:
            raise ConfigError(
                f"inconsistent archived range: base={self.base_offset}, "
                f"first={self.first_offset}, last={self.last_offset}"
            )

    def covers(self, offset: int) -> bool:
        """True iff ``offset`` falls inside this segment's offset range.

        Compaction may have punched holes inside the range; ``covers`` is
        about *range* membership — readers skip to the next surviving record
        exactly as hot-log reads do.
        """
        return self.first_offset <= offset <= self.last_offset


class TierManifest:
    """Ordered, non-overlapping record of a partition's archived segments."""

    def __init__(self) -> None:
        self._entries: list[ArchivedSegment] = []
        self._firsts: list[int] = []  # first_offset of each entry (bisect key)
        #: Offset of the oldest archived record (the true log beginning), and
        #: one past the newest; ``None`` while nothing is archived.  Plain
        #: attributes, set by :meth:`add`, so a read looks them up without
        #: a call.
        self.start_offset: int | None = None
        self.end_offset: int | None = None

    # -- bookkeeping -----------------------------------------------------------

    def add(self, entry: ArchivedSegment) -> None:
        """Record a newly archived segment; must extend the archive forward."""
        if self._entries:
            newest = self._entries[-1]
            if entry.object_key == newest.object_key:
                raise ConfigError(
                    f"segment {entry.object_key} already archived"
                )
            if entry.first_offset <= newest.last_offset:
                raise ConfigError(
                    f"archived ranges must be disjoint and ordered: "
                    f"[{entry.first_offset}, {entry.last_offset}] after "
                    f"[{newest.first_offset}, {newest.last_offset}]"
                )
        self._entries.append(entry)
        self._firsts.append(entry.first_offset)
        self.start_offset = self._firsts[0]
        self.end_offset = entry.last_offset + 1

    # -- lookup -----------------------------------------------------------------

    def entry_for(self, offset: int) -> ArchivedSegment | None:
        """Entry holding the first archived record with offset >= ``offset``.

        Returns the covering entry, or the next one forward when ``offset``
        falls in a hole between archived ranges; ``None`` when the archive
        ends before ``offset``.
        """
        if not self._entries:
            return None
        idx = bisect_right(self._firsts, offset) - 1
        if idx < 0:
            return self._entries[0]
        if self._entries[idx].last_offset >= offset:
            return self._entries[idx]
        if idx + 1 < len(self._entries):
            return self._entries[idx + 1]
        return None

    def next_entry(self, entry: ArchivedSegment) -> ArchivedSegment | None:
        """The entry following ``entry`` in offset order, if any."""
        idx = bisect_right(self._firsts, entry.first_offset) - 1
        if 0 <= idx < len(self._entries) - 1:
            return self._entries[idx + 1]
        return None

    def entry_for_timestamp(self, timestamp: float) -> ArchivedSegment | None:
        """Earliest entry whose newest record is at/after ``timestamp``."""
        for entry in self._entries:
            if entry.last_timestamp >= timestamp:
                return entry
        return None

    # -- introspection ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def segment_count(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self._entries)

    @property
    def total_messages(self) -> int:
        return sum(e.message_count for e in self._entries)

    def entries(self) -> list[ArchivedSegment]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._entries:
            return "TierManifest(empty)"
        return (
            f"TierManifest([{self.start_offset}, {self.end_offset}), "
            f"segments={len(self._entries)}, bytes={self.total_bytes})"
        )
