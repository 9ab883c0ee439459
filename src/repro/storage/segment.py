"""Log segments: the physical unit of the append-only commit log.

A partition's log is a sequence of segments (§4.1).  Only the last segment
(the *active* one) accepts appends; older segments are *sealed* and become
the units of retention (whole-segment deletion) and compaction (in-place
rewrite preserving offsets).

Offsets inside a segment are not necessarily contiguous: compaction removes
superseded records but survivors keep their original offsets, exactly as in
Kafka.  A segment is its records plus two columns parallel to them, both
``array('q')`` machine words: each record's ``offset`` and its start byte
``position``.  The offset column, bisected, is §4.1's "index used to select
the chunks of the log at which requested offsets are stored": dense, so a
fetch lands on its first record without a scan, and byte accounting is
prefix-sum arithmetic over the positions.

A record is held one of two ways.  One that arrived on its own, or in a
batch the log did not keep whole, is a
:class:`~repro.common.records.StoredMessage`, built once at append and shared
by every replica.  One that arrived in a compressed batch the log kept is
held as that batch's frame (:class:`StoredFrame`): the segment notes, once
per framed run, which of its records the frame covers, and keeps nothing
else per record but the two columns, so no record object and no decoded
value.

Every segment is walked one way, whatever it holds.  A run is a list of
pieces (:data:`Piece`): record lists and frame slices.
:meth:`LogSegment.extend` lands a run's pieces, :meth:`LogSegment.read_into`
adds a read's pieces, and :func:`run_of` turns the pieces into the run a
caller gets: the records themselves when every piece is a record list, else
a :class:`FramedRun`.  Records are built from a frame only for a reader that
asks for them, once per read.  Rewrites (compaction, truncation) take
records, so a rewritten range is held as records from then on.

This module is the only one that knows which of the two a stretch of a run
is.  A read carries its run's offset column beside it, and everything
above the log works on that column and hands the run back here:
:func:`select` keeps index spans of a run (read_committed visibility, the
high watermark), :func:`join_runs` stitches two reads, :func:`records`
builds a range of records for a fetch response and :func:`copy_of` turns a
leader's read into what a follower's copy holds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate, repeat
from operator import attrgetter, itemgetter
from typing import Iterator, Union

from repro.common.compression import BatchFrame
from repro.common.errors import ConfigError
from repro.common.records import StoredMessage, TopicPartition, new_record

_timestamp_of = attrgetter("timestamp")
_stored_size_of = attrgetter("stored_size")
_first_of = itemgetter(0)


class StoredFrame:
    """A compressed batch at rest: the frame the producer shipped, plus what
    building its records takes besides.

    Built once, by the leader's log at append; every replica that copies the
    batch whole holds the same object, as it holds the same frame.  Record
    ``i`` of the batch has offset ``base_offset + i``.
    """

    __slots__ = ("frame", "base_offset", "stamp", "last_timestamp", "partition")

    def __init__(
        self,
        frame: BatchFrame,
        base_offset: int,
        stamp: float,
        last_timestamp: float,
        partition: TopicPartition | None,
    ) -> None:
        self.frame = frame
        self.base_offset = base_offset
        #: The timestamp of an entry sent without one: the leader's clock at
        #: append, as the log stamps an unframed record.
        self.stamp = stamp
        #: The last record's timestamp, so a segment that ends with the batch
        #: knows its own without a decode.
        self.last_timestamp = last_timestamp
        #: The partition the batch was appended to, as the log was told it.
        self.partition = partition

    def records(self, start: int, stop: int) -> list[StoredMessage]:
        """Records ``[start, stop)`` of the batch, from one decode of the
        frame: each equal to the one the log builds from the batch's entries,
        ``stored_size`` (its share of the frame) included."""
        frame = self.frame
        entries = frame.entries()[start:stop]
        if not entries:
            return []
        topic, partition = self.partition or (None, None)
        keys, values, timestamps, _ = zip(*entries)
        # One C pass, as the log builds a batch: a missing timestamp is
        # looked up as the batch's stamp.
        return list(map(new_record, repeat(StoredMessage), zip(
            repeat(topic), repeat(partition),
            range(self.base_offset + start, self.base_offset + stop),
            keys, values, map({None: self.stamp}.get, timestamps, timestamps),
            frame.headers(entries, start),
            frame.sizes[start:stop],
            frame.stored_sizes()[start:stop],
        )))


#: One stretch of a run: a list of records held as objects, or a frame
#: slice ``(stored, start, stop)``, records ``[start, stop)`` of the
#: :class:`StoredFrame` ``stored``.  A slice is a plain tuple, so cutting a
#: run builds no object per stretch beyond the tuple itself.
Piece = Union[list, tuple]

#: A run of a log's records as held: the records themselves, or a
#: :class:`FramedRun` where a frame stands for some of them.  Outside this
#: module a run is handled through the functions below and its offset
#: column, never by asking which of the two it is.
Run = Union[list[StoredMessage], "FramedRun"]


def _add_piece(pieces: list[Piece], piece: Piece) -> None:
    """Append ``piece`` to ``pieces``, joining it to the last one when both
    are slices of one frame that meet, so a frame a segment roll cut is one
    slice again.  Record lists are not joined: :func:`run_of` concatenates
    them once, where joining each to the last would copy the run so far."""
    if pieces and type(piece) is tuple:
        tail = pieces[-1]
        if type(tail) is tuple and piece[0] is tail[0] and piece[1] == tail[2]:
            pieces[-1] = (tail[0], tail[1], piece[2])
            return
    pieces.append(piece)


def _slice(pieces: list[Piece], start: int, stop: int, out: list[Piece]) -> None:
    """Add the stretches of ``pieces`` that hold the run's records ``[start,
    stop)`` to ``out``, as held."""
    at = 0  # index of the piece's first record
    for piece in pieces:
        if at >= stop:
            break
        listed = type(piece) is list
        count = len(piece) if listed else piece[2] - piece[1]
        lo = start - at if start > at else 0
        hi = stop - at if stop - at < count else count
        if lo < hi:
            if listed:
                _add_piece(out, piece if hi - lo == count else piece[lo:hi])
            else:
                _add_piece(out, (piece[0], piece[1] + lo, piece[1] + hi))
        at += count


def run_of(pieces: list[Piece], offsets: array, count: int) -> Run:
    """The run ``pieces`` hold: a :class:`FramedRun` when a frame slice is
    among them, else the records themselves (one list, not copied when it is
    the only piece)."""
    for piece in pieces:
        if type(piece) is tuple:
            return FramedRun(pieces, offsets, count)
    if len(pieces) == 1:
        return pieces[0]
    out: list[StoredMessage] = []
    for piece in pieces:
        out += piece
    return out


def join_runs(head: Run, tail: Run, offsets: array) -> Run:
    """``head`` then ``tail`` as one run, ``offsets`` the joined offset
    column; a frame the two cut between them is one slice again."""
    pieces: list[Piece] = []
    for run in (head, tail):
        for piece in [run] if type(run) is list else run.pieces:
            if piece:
                _add_piece(pieces, piece)
    return run_of(pieces, offsets, len(offsets))


def select(
    run: Run, offsets: array, spans: list[tuple[int, int]]
) -> tuple[Run, array, int] | None:
    """The records of ``run`` at the index ``spans`` — ascending, disjoint
    ``[lo, hi)`` ranges into ``offsets``, the run's offset column — as a
    run as held, with its offset column and its stored bytes; ``None`` when
    the spans keep every record, so the caller keeps the run it has."""
    kept = array("q")
    for lo, hi in spans:
        kept += offsets[lo:hi]
    if len(kept) == len(offsets):
        return None
    if type(run) is list:
        visible: list[StoredMessage] = []
        for lo, hi in spans:
            visible += run[lo:hi]
        return visible, kept, sum(map(_stored_size_of, visible))
    pieces: list[Piece] = []
    for lo, hi in spans:
        _slice(run.pieces, lo, hi, pieces)
    visible = run_of(pieces, kept, len(kept))
    return visible, kept, sum(stored_sizes(visible))


def records(run: Run, start: int = 0, stop: int | None = None) -> list[StoredMessage]:
    """Records ``[start, stop)`` of ``run`` (to its end when ``stop`` is
    ``None``) in a list, built from the frames for framed stretches: the run
    itself when it is a list and the range all of it."""
    if type(run) is list:
        return run[start:stop] if start or stop is not None else run
    pieces: list[Piece] = []
    _slice(run.pieces, start, run.count if stop is None else stop, pieces)
    out: list[StoredMessage] = []
    for piece in pieces:
        out += piece if type(piece) is list else piece[0].records(piece[1], piece[2])
    return out


def stored_sizes(run: Run) -> list[int]:
    """Each record's ``stored_size``, read off the frames for framed
    stretches."""
    out: list[int] = []
    for piece in [run] if type(run) is list else run.pieces:
        if type(piece) is list:
            out += map(_stored_size_of, piece)
        else:
            out += piece[0].frame.stored_sizes()[piece[1] : piece[2]]
    return out


def copy_of(run: Run) -> tuple[Run, list[int]]:
    """The run as a replica copy stores it, and its records' stored sizes.

    A frame the run holds only a cut of is held as those records (a frame
    stands for its whole batch only); a whole one stays its frame.
    """
    pieces = [run] if type(run) is list else run.pieces
    sizes: list[int] = []
    held: list[Piece] | None = None  # set at the first cut frame
    for i, piece in enumerate(pieces):
        if type(piece) is list:
            sizes += map(_stored_size_of, piece)
        else:
            stored, lo, hi = piece
            sizes += stored.frame.stored_sizes()[lo:hi]
            if lo or hi != stored.frame.count:
                if held is None:
                    held = pieces[:i]
                piece = stored.records(lo, hi)
        if held is not None:
            _add_piece(held, piece)
    if held is not None:
        run = run_of(held, run.offsets, run.count)
    return run, sizes


class FramedRun(Sequence):
    """An offset-ordered run of a log's records, at least one stretch of it
    held as its frame: what a read that reached a framed run returns.

    ``pieces`` are the stretches (:data:`Piece`), ``offsets`` every record's
    offset (an ``array('q')``) and ``count`` their number.  Length and
    slicing (which returns a run again) build no record.  Indexing,
    iterating or comparing builds the records, once, and keeps them on this
    run, which lives as long as the read that returned it.
    """

    __slots__ = ("pieces", "offsets", "count", "_records")

    def __init__(self, pieces: list[Piece], offsets: array, count: int) -> None:
        self.pieces = pieces
        self.offsets = offsets
        self.count = count
        self._records: list[StoredMessage] | None = None

    @classmethod
    def of_frame(cls, stored: StoredFrame) -> FramedRun:
        """The whole batch ``stored`` as a run."""
        count = stored.frame.count
        base = stored.base_offset
        return cls(
            [(stored, 0, count)], array("q", range(base, base + count)), count
        )

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        if type(index) is slice:
            start, stop, step = index.indices(self.count)
            if step != 1:
                raise ValueError("a run slices with step 1 only")
            pieces: list[Piece] = []
            _slice(self.pieces, start, stop, pieces)
            return run_of(pieces, self.offsets[start:stop], stop - start)
        return self.records()[index]

    def __iter__(self) -> Iterator[StoredMessage]:
        return iter(self.records())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, FramedRun)):
            return self.records() == list(other)
        return NotImplemented

    def records(self) -> list[StoredMessage]:
        """The run's records, built from the frames for framed stretches
        once and kept."""
        if self._records is None:
            self._records = records(self)
        return self._records

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FramedRun(n={self.count}, pieces={len(self.pieces)})"


def _sealed(segment: LogSegment) -> ConfigError:
    return ConfigError(
        f"segment@{segment.base_offset} is sealed; appends go to the active "
        "segment"
    )


class LogSegment:
    """One segment file of a partition log: its records and their offsets
    and byte positions."""

    __slots__ = (
        "base_offset",
        "file_id",
        "sealed",
        "_messages",
        "_offsets",
        "_positions",
        "framed",
        "_size_bytes",
        "_last_timestamp",
    )

    def __init__(self, base_offset: int, file_id: str = "") -> None:
        if base_offset < 0:
            raise ConfigError(f"base_offset must be >= 0, got {base_offset}")
        self.base_offset = base_offset
        #: The page-cache file the segment's bytes live in, named by the log
        #: that holds it.
        self.file_id = file_id
        self.sealed = False
        self._messages: list[StoredMessage] = []  # the records held as objects
        self._offsets = array("q")  # offset of each record (bisect key)
        self._positions = array("q")  # start byte of each record
        #: One ``(first, stop, plain, stored, lo)`` per framed run: records
        #: ``[first, stop)`` of the segment are records ``lo...`` of the
        #: StoredFrame ``stored``, and ``plain`` records held as objects come
        #: before them.  The shared empty tuple for a segment that holds no
        #: frame.
        self.framed: list[tuple[int, int, int, StoredFrame, int]] | tuple = ()
        self._size_bytes = 0
        self._last_timestamp: float | None = None

    # -- append path ----------------------------------------------------------

    def extend(
        self,
        run: Run,
        offsets: array,
        positions: list[int],
        size_bytes: int,
    ) -> None:
        """Land a non-empty run at the tail of the active segment, as held:
        records as records, and each frame slice noted as a framed run, with
        nothing kept per record of it but its offset and position.

        The caller — :meth:`PartitionLog._append_run` — has already
        established that offsets strictly increase and follow the current
        tail, and supplies the parallel columns plus the resulting segment
        size so nothing is recomputed per record.  Positions and sizes are
        *physical* bytes: a record's share of its (possibly compressed)
        batch frame, equal to the logical size when uncompressed.
        """
        if self.sealed:
            raise _sealed(self)
        index = len(self._offsets)
        for piece in [run] if type(run) is list else run.pieces:
            if type(piece) is list:
                self._messages += piece
                index += len(piece)
                continue
            stored, lo, hi = piece
            if not self.framed:
                self.framed = []
            self.framed.append(
                (index, index + hi - lo, len(self._messages), stored, lo)
            )
            index += hi - lo
        self._offsets += offsets
        # fromlist converts in one pass; extend would grow the array per
        # item.
        self._positions.fromlist(positions)
        self._size_bytes = size_bytes
        # ``piece`` is the run's last.
        if type(piece) is list:
            self._last_timestamp = piece[-1].timestamp
        else:
            stored, _lo, hi = piece
            self._last_timestamp = (
                stored.last_timestamp
                if hi == stored.frame.count
                # A segment roll cut the batch: one decode, once per roll.
                else stored.records(hi - 1, hi)[0].timestamp
            )

    def seal(self) -> None:
        """Mark the segment read-only; sealed segments are retention/compaction
        candidates."""
        self.sealed = True

    # -- read path ------------------------------------------------------------

    def run(self) -> Run:
        """The segment's records as held, for a reader that keeps none of
        them: a :class:`FramedRun` where a framed run is among them, else the
        segment's own record list, not copied (a timestamp lookup bisects
        it).  Never a read's run: a read's list is handed to a consumer,
        which owns it (see :class:`~repro.storage.log.ReadResult`)."""
        if not self.framed:
            return self._messages
        pieces: list[Piece] = []
        self.collect(pieces, 0, len(self._offsets))
        return run_of(pieces, self._offsets[:], len(self._offsets))

    def read_into(
        self,
        pieces: list[Piece],
        offsets: array,
        offset: int,
        max_messages: int,
        byte_budget: int,
        at_least_one: bool,
    ) -> tuple[int, int, int, int]:
        """Add the records with offset >= ``offset`` — at most
        ``max_messages``, and those whose bytes fit ``byte_budget`` (at least
        one when ``at_least_one``) — to the run ``pieces`` as held, and their
        offsets to ``offsets``.

        If ``offset`` was compacted away, reading resumes at the next
        surviving record (Kafka fetch semantics).  The byte budget is one
        bisect over the positions, so no record's size is summed.

        Returns ``(taken, found, start, nbytes)``: the records added, the
        ones ``max_messages`` allowed, the first one's byte position (the
        segment's end when none is found) and the bytes added.
        """
        held = self._offsets
        idx = bisect_left(held, offset)
        end = idx + max_messages
        if end > len(held):
            end = len(held)
        if idx >= end:
            return 0, 0, self._size_bytes, 0
        positions = self._positions
        start = positions[idx]
        ends = positions[idx + 1 : end]
        ends.append(positions[end] if end < len(held) else self._size_bytes)
        taken = bisect_left(ends, start + byte_budget + 1)
        if taken == 0 and at_least_one:
            taken = 1
        if not taken:
            return 0, end - idx, start, 0
        self.collect(pieces, idx, idx + taken)
        offsets += held[idx : idx + taken]
        return taken, end - idx, start, ends[taken - 1] - start

    def collect(self, pieces: list[Piece], start: int, stop: int) -> None:
        """Add records ``[start, stop)`` (a non-empty range), as held, to the
        run ``pieces``."""
        framed = self.framed
        if not framed:
            _add_piece(pieces, self._messages[start:stop])
            return
        # The framed runs that start at or before ``start``; the last of them
        # may hold it.
        k = bisect_right(framed, start, key=_first_of)
        if k and framed[k - 1][1] > start:
            k -= 1
        n = len(framed)
        # Only the first piece can continue the run's last one (a frame the
        # previous segment ended with); within the segment, framed runs and
        # the records between them alternate.
        i = start
        while i < stop:
            if k < n and framed[k][0] <= i:
                first, end, _plain, stored, lo = framed[k]
                j = end if end < stop else stop
                piece = (stored, lo + i - first, lo + j - first)
                k += 1
            else:
                j = framed[k][0] if k < n and framed[k][0] < stop else stop
                # Only records held as objects lie between the framed run
                # before ``i`` (if any) and ``j``.
                if k:
                    _first, end, plain, _stored, _lo = framed[k - 1]
                    at = plain + i - end
                else:
                    at = i
                piece = self._messages[at : at + j - i]
            if i == start:
                _add_piece(pieces, piece)
            else:
                pieces.append(piece)
            i = j

    def offset_for_timestamp(self, timestamp: float) -> int | None:
        """Smallest offset whose record timestamp >= ``timestamp``."""
        run = self.run()
        idx = bisect_left(run, timestamp, key=_timestamp_of)
        if idx >= len(run):
            return None
        return run[idx].offset

    # -- compaction support -----------------------------------------------------

    def replace_messages(self, survivors: list[StoredMessage]) -> int:
        """Rewrite the segment with the given (offset-ordered) survivors.

        Returns the number of bytes reclaimed.  Only sealed segments may be
        rewritten; the active segment is never compacted (§4.1).  The
        segment holds the survivors as records, framed or not before.
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
            "q", list(accumulate([m.stored_size for m in survivors], initial=0))
        )
        self._messages = list(survivors)
        self._offsets = array("q", offsets)
        self.framed = ()
        self._size_bytes = positions.pop()
        self._positions = positions
        self._last_timestamp = survivors[-1].timestamp if survivors else None
        return old_size - self._size_bytes

    # -- introspection ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def message_count(self) -> int:
        return len(self._offsets)

    @property
    def is_empty(self) -> bool:
        return not self._offsets

    @property
    def first_offset(self) -> int | None:
        return self._offsets[0] if self._offsets else None

    @property
    def last_offset(self) -> int | None:
        return self._offsets[-1] if self._offsets else None

    @property
    def last_timestamp(self) -> float | None:
        return self._last_timestamp

    def messages(self) -> Iterator[StoredMessage]:
        """The records, built from the frames for a segment holding any."""
        return iter(self.run())

    def __len__(self) -> int:
        return len(self._offsets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self.sealed else "active"
        return (
            f"LogSegment(base={self.base_offset}, n={len(self)}, "
            f"{self._size_bytes}B, {state})"
        )
