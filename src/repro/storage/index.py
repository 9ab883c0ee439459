"""Sparse offset index, one per segment.

§4.1: "brokers maintain an incrementally-built index file that is used to
select the chunks of the log at which requested offsets are stored."  The
index maps offsets to byte positions at a configurable byte interval, so a
fetch at an arbitrary offset costs one index probe plus a bounded scan,
independent of log size — the mechanism behind E1's constant-throughput
claim.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.common.errors import ConfigError


class SparseOffsetIndex:
    """Maps offsets to byte positions at ``interval_bytes`` granularity."""

    def __init__(self, interval_bytes: int = 4096) -> None:
        if interval_bytes <= 0:
            raise ConfigError(f"interval_bytes must be > 0, got {interval_bytes}")
        self.interval_bytes = interval_bytes
        self._offsets: list[int] = []
        self._positions: list[int] = []
        self._bytes_since_entry = interval_bytes  # index the first record

    def maybe_add(self, offset: int, position: int, record_size: int) -> bool:
        """Record an index entry if at least ``interval_bytes`` accumulated
        since the last one.  Returns True if an entry was added."""
        if self._offsets and offset <= self._offsets[-1]:
            raise ConfigError(
                f"index offsets must increase: {offset} <= {self._offsets[-1]}"
            )
        added = False
        if self._bytes_since_entry >= self.interval_bytes:
            self._offsets.append(offset)
            self._positions.append(position)
            self._bytes_since_entry = 0
            added = True
        self._bytes_since_entry += record_size
        return added

    def extend_run(
        self, offsets: list[int], positions: list[int], end_position: int
    ) -> int:
        """Index a validated, offset-ordered run of appended records.

        ``offsets``/``positions`` are the run's parallel arrays (positions
        are absolute segment byte positions, strictly increasing);
        ``end_position`` is one past the run's last byte.  A record gets an
        entry ``(offset, position)`` when at least ``interval_bytes`` were
        appended since the previous entry (the first record of a segment
        always does); because entries are sparse, this jumps from entry to
        entry with a bisect over ``positions`` instead of touching every
        record.  Returns the number of entries added.

        The caller guarantees offsets strictly increase within the run; only
        the run's head is checked against the last existing entry.
        """
        if not offsets:
            return 0
        if self._offsets and offsets[0] <= self._offsets[-1]:
            raise ConfigError(
                f"index offsets must increase: {offsets[0]} <= "
                f"{self._offsets[-1]}"
            )
        interval = self.interval_bytes
        base = positions[0]
        # First record j with interval_bytes accumulated before it:
        # _bytes_since_entry + (positions[j] - base) >= interval.
        j = bisect_left(positions, base + interval - self._bytes_since_entry)
        n = len(offsets)
        added = 0
        while j < n:
            self._offsets.append(offsets[j])
            self._positions.append(positions[j])
            added += 1
            j = bisect_left(positions, positions[j] + interval, j + 1)
        if added:
            self._bytes_since_entry = end_position - self._positions[-1]
        else:
            self._bytes_since_entry += end_position - base
        return added

    def lookup(self, offset: int) -> int:
        """Byte position of the greatest indexed offset <= ``offset``.

        Returns 0 when the offset precedes the first entry (scan from the
        segment start).
        """
        idx = bisect_right(self._offsets, offset) - 1
        if idx < 0:
            return 0
        return self._positions[idx]

    def rebuild(self, entries: list[tuple[int, int, int]]) -> None:
        """Rebuild from ``(offset, position, size)`` triples after compaction."""
        self._offsets.clear()
        self._positions.clear()
        self._bytes_since_entry = self.interval_bytes
        for offset, position, size in entries:
            self.maybe_add(offset, position, size)

    @property
    def entry_count(self) -> int:
        return len(self._offsets)

    def size_bytes(self) -> int:
        """Approximate on-disk index size (16 bytes per entry)."""
        return 16 * len(self._offsets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SparseOffsetIndex(entries={len(self._offsets)})"
