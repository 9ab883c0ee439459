"""Log segments: the physical unit of the append-only commit log.

A partition's log is a sequence of segments (§4.1).  Only the last segment
(the *active* one) accepts appends; older segments are *sealed* and become
the units of retention (whole-segment deletion) and compaction (in-place
rewrite preserving offsets).

Offsets inside a segment are not necessarily contiguous: compaction removes
superseded records but survivors keep their original offsets, exactly as in
Kafka.  A segment is its records plus two columns parallel to them: each
record's ``offset`` and its start byte ``position``.  The offset column,
bisected, is §4.1's "index used to select the chunks of the log at which
requested offsets are stored": dense, so a fetch lands on its first record
without a scan, and byte accounting is prefix-sum arithmetic over the
positions.  The offsets are a list that shares each record's own
``offset`` object; the positions are an ``array('q')`` of machine words,
because no record carries its position and a list would hold a fresh
``int`` per record on every replica.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import attrgetter
from typing import Iterator, Sequence

from repro.common.errors import ConfigError
from repro.common.records import StoredMessage

_timestamp_of = attrgetter("timestamp")


class SegmentView:
    """A zero-copy read view over a contiguous run of segment records.

    Produced by :meth:`LogSegment.read_from`.  ``messages`` is the record
    slice; ``start_position`` is the first record's byte position in the
    segment; :meth:`prefix_bytes` returns the byte size of the first ``k``
    records in O(1) using the segment's positions (prefix-sum) array, so
    byte-budget accounting never re-sums record sizes.
    """

    __slots__ = ("messages", "start_position", "_end_positions")

    def __init__(
        self,
        messages: list[StoredMessage],
        start_position: int,
        end_positions: Sequence[int],
    ) -> None:
        self.messages = messages
        self.start_position = start_position
        # end_positions[i] is the byte position one past the view's record
        # i; a slice of the segment's positions array.
        self._end_positions = end_positions

    def prefix_bytes(self, count: int) -> int:
        """Total bytes of the first ``count`` records of the view."""
        if count <= 0:
            return 0
        return self._end_positions[count - 1] - self.start_position

    def prefix_within(self, byte_budget: int) -> int:
        """Largest record count whose total size fits in ``byte_budget``.

        O(log n) bisect over the cumulative positions instead of a
        per-record remaining-budget loop.
        """
        if not self.messages:
            return 0
        limit = self.start_position + byte_budget
        return bisect_left(self._end_positions, limit + 1)


class LogSegment:
    """One segment file of a partition log: its records and their offsets
    and byte positions."""

    def __init__(self, base_offset: int) -> None:
        if base_offset < 0:
            raise ConfigError(f"base_offset must be >= 0, got {base_offset}")
        self.base_offset = base_offset
        self.sealed = False
        self._messages: list[StoredMessage] = []
        self._offsets: list[int] = []  # offset of each record (bisect key)
        self._positions = array("q")  # start byte of each record
        self._size_bytes = 0

    # -- append path ----------------------------------------------------------

    def extend(
        self,
        messages: list[StoredMessage],
        offsets: list[int],
        positions: list[int],
        size_bytes: int,
    ) -> None:
        """Land a run of records at the tail of the active segment.

        The caller — :meth:`PartitionLog._append_run` — has already
        established that offsets strictly increase and follow the current
        tail, and supplies the parallel arrays plus the resulting segment
        size so nothing is recomputed per record.  Positions and sizes are
        *physical* bytes: a record's share of its (possibly compressed)
        batch frame, equal to the logical size when uncompressed.
        """
        if self.sealed:
            raise ConfigError(
                f"segment@{self.base_offset} is sealed; appends go to the "
                "active segment"
            )
        self._messages.extend(messages)
        self._offsets.extend(offsets)
        # fromlist converts in one pass; extend would grow the array per
        # item.
        self._positions.fromlist(positions)
        self._size_bytes = size_bytes

    def seal(self) -> None:
        """Mark the segment read-only; sealed segments are retention/compaction
        candidates."""
        self.sealed = True

    # -- read path ------------------------------------------------------------

    def read_from(self, offset: int, max_messages: int) -> SegmentView:
        """View of records with offset >= ``offset``, at most ``max_messages``.

        If ``offset`` was compacted away, reading resumes at the next
        surviving record (Kafka fetch semantics).  The view carries the byte
        position of its first record and a cumulative-size slice so callers
        do no per-record size arithmetic.
        """
        idx = bisect_left(self._offsets, offset)
        end = idx + max_messages
        batch = self._messages[idx:end]
        if not batch:
            return SegmentView([], self._size_bytes, [])
        end = idx + len(batch)
        end_positions = self._positions[idx + 1 : end]
        end_positions.append(
            self._positions[end] if end < len(self._positions) else self._size_bytes
        )
        return SegmentView(batch, self._positions[idx], end_positions)

    def offset_for_timestamp(self, timestamp: float) -> int | None:
        """Smallest offset whose record timestamp >= ``timestamp``."""
        idx = bisect_left(self._messages, timestamp, key=_timestamp_of)
        if idx >= len(self._messages):
            return None
        return self._messages[idx].offset

    # -- compaction support -----------------------------------------------------

    def replace_messages(self, survivors: list[StoredMessage]) -> int:
        """Rewrite the segment with the given (offset-ordered) survivors.

        Returns the number of bytes reclaimed.  Only sealed segments may be
        rewritten; the active segment is never compacted (§4.1).
        """
        if not self.sealed:
            raise ConfigError("cannot compact the active segment")
        offsets = [m.offset for m in survivors]
        if offsets != sorted(offsets):
            raise ConfigError("survivors must be offset-ordered")
        old_size = self._size_bytes
        # From a list, which array converts in one pass (an iterator it
        # grows per item).
        positions = array(
            "q", list(accumulate((m.stored_size for m in survivors), initial=0))
        )
        self._messages = list(survivors)
        self._offsets = offsets
        self._size_bytes = positions.pop()
        self._positions = positions
        return old_size - self._size_bytes

    # -- introspection ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def message_count(self) -> int:
        return len(self._messages)

    @property
    def is_empty(self) -> bool:
        return not self._messages

    @property
    def first_offset(self) -> int | None:
        return self._offsets[0] if self._offsets else None

    @property
    def last_offset(self) -> int | None:
        return self._offsets[-1] if self._offsets else None

    @property
    def last_timestamp(self) -> float | None:
        return self._messages[-1].timestamp if self._messages else None

    def messages(self) -> Iterator[StoredMessage]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self.sealed else "active"
        return (
            f"LogSegment(base={self.base_offset}, n={len(self)}, "
            f"{self._size_bytes}B, {state})"
        )
