"""The partition log: a segmented, append-only commit log.

This is the storage engine behind every topic partition in the messaging
layer (§3.1 "distributed commit log") and the substrate of E1: appends
always go to the tail, and a fetch finds its segment by bisecting the
segments' base offsets, then its first record by bisecting that segment's
dense offset array (§4.1's index), so the cost of both is independent of
how much history the log holds.

A record is held as the :class:`~repro.common.records.StoredMessage` built
at append, or, when it arrived in a compressed batch the log kept whole, as
that batch's frame (see :mod:`repro.storage.segment`).  Every log lands and
reads a run one way, as held: :meth:`PartitionLog._append_run` hands each
segment-contiguous chunk to one :meth:`~repro.storage.segment.LogSegment.extend`
call, and :meth:`PartitionLog.read` gathers each segment's share with one
:meth:`~repro.storage.segment.LogSegment.read_into` call.  A read comes back
as the records themselves, or, where it reached a framed run, as a
:class:`~repro.storage.segment.FramedRun`, with its offset column beside it,
and a follower copying it stores the same frame; records are built from a frame only for a reader that asks
for them — a fetch that cuts the frame, compaction, truncation, the tiered
archiver, :meth:`PartitionLog.all_messages` — once per read.

One :class:`PartitionLog` corresponds to one replica of one partition on one
broker.  Latency for each operation is computed from the shared
:class:`~repro.storage.pagecache.PageCache` and returned to the caller (the
broker adds request/network overheads on top).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, attrgetter, lt
from typing import Any, Sequence

from repro.common.clock import SimClock
from repro.common.compression import BatchFrame, payload_sizes
from repro.common.errors import ConfigError, OffsetOutOfRangeError
from repro.common.records import (
    EMPTY_HEADERS,
    RECORD_FRAMING_BYTES,
    Headers,
    StoredMessage,
    TopicPartition,
    new_record,
)
from repro.chaos.failpoints import failpoint
from repro.storage.pagecache import PageCache
from repro.storage.segment import (
    FramedRun,
    LogSegment,
    Piece,
    Run,
    StoredFrame,
    copy_of,
    join_runs,
    run_of,
)


@dataclass(frozen=True)
class LogConfig:
    """Per-log storage knobs (per-topic in the messaging layer)."""

    segment_max_bytes: int = 1024 * 1024
    segment_max_messages: int = 10_000
    max_message_bytes: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.segment_max_bytes <= 0:
            raise ConfigError("segment_max_bytes must be > 0")
        if self.segment_max_messages <= 0:
            raise ConfigError("segment_max_messages must be > 0")
        if self.max_message_bytes <= 0:
            raise ConfigError("max_message_bytes must be > 0")


@dataclass
class AppendResult:
    """Outcome of a log append: assigned offset plus charged latency."""

    offset: int
    latency: float


@dataclass
class BatchAppendResult:
    """Outcome of a batched append: offset range plus charged latency.

    ``latency`` is each record's ``stored_size / ram_bandwidth`` folded left
    to right in append order, so how a run of records is cut into batches
    never shows in simulated time.
    """

    base_offset: int
    last_offset: int
    latency: float
    count: int


@dataclass
class ReadResult:
    """Outcome of a log read: records, their offsets, and charged latency.

    ``messages`` is the run as held (:data:`~repro.storage.segment.Run`):
    the log's own records, or, where the read reached a run the log holds
    as its frame, a run whose records are built only when a reader asks for
    them.  ``offsets`` is its offset column, an ``array('q')`` parallel to
    it, which the segments' offset columns already give: whoever cuts,
    groups or copies the run bisects and compares this column and hands the
    run to :mod:`repro.storage.segment`, so no layer above asks how a run is
    held or walks its records for their offsets.

    Ownership: when ``messages`` is a list, it is one that no segment,
    hydration cache or buffer reads again — the read made it (a slice of a
    segment's or a hydrated segment's records, or a list built by
    :func:`~repro.storage.segment.select`,
    :func:`~repro.storage.segment.join_runs` or
    :func:`~repro.storage.segment.run_of`), never a list the log keeps
    (:meth:`~repro.storage.segment.LogSegment.run` must not feed a read).
    So a fetch response hands it up unchanged, and the consumer's poll
    returns it: one copy of each delivered record reference, made here.

    ``next_offset`` is where a sequential reader should continue — one past
    the last *scanned* record.  Layers above may filter records out of
    ``messages`` (high-watermark bounds, transaction markers); consumers
    advance by ``next_offset`` so filtered batches cannot wedge them.

    ``stored_bytes`` is the physical size of ``messages`` — read off the
    segments' cumulative positions, so the wire, quota and byte-budget
    charges above never re-sum ``stored_size`` per record.
    """

    messages: Run
    offsets: array
    latency: float
    log_end_offset: int
    next_offset: int = 0
    stored_bytes: int = 0

    def extend(self, tail: ReadResult) -> None:
        """Continue this read with ``tail``, the read that picks up at its
        ``next_offset``: a cold read stitched to the hot log."""
        self.offsets += tail.offsets
        self.messages = join_runs(self.messages, tail.messages, self.offsets)
        self.latency += tail.latency
        self.log_end_offset = tail.log_end_offset
        self.next_offset = tail.next_offset
        self.stored_bytes += tail.stored_bytes


#: One batch-index entry: ``(base, last, producer_id, producer_seq, kind,
#: frame)`` (see :attr:`PartitionLog._batches`).
BatchEntry = tuple[int, int, int | None, int | None, str | None, BatchFrame | None]

_MAX_OFFSET = 1 << 62

#: The one type a stored record's headers have.
_ONLY_HEADERS = {Headers}

_base_offset_of = attrgetter("base_offset")


def clip(entry: BatchEntry, lo: int, hi: int) -> BatchEntry | None:
    """``entry`` cut to offsets ``[lo, hi]``: itself when it lies within,
    else cut and without its frame (a frame stands in for its whole run
    only), or ``None`` when that leaves it no producer state either."""
    base, last, producer_id, producer_seq, kind, _frame = entry
    if lo <= base and last <= hi:
        return entry
    if kind is None:
        return None
    return (max(base, lo), min(last, hi), producer_id, producer_seq, kind, None)


def _overlap(runs: list[tuple], lo: int, hi: int) -> slice:
    """Where ``runs`` — sorted, disjoint tuples starting ``(base, last,
    ...)`` — intersects offsets ``[lo, hi]``."""
    start = bisect_right(runs, (lo, _MAX_OFFSET))
    if start and runs[start - 1][1] >= lo:
        start -= 1
    return slice(start, bisect_right(runs, (hi, _MAX_OFFSET)))


def runs_overlapping(runs: list[tuple], lo: int, hi: int) -> list[tuple]:
    """The runs of ``runs`` (see :func:`_overlap`) intersecting ``[lo, hi]``."""
    return runs[_overlap(runs, lo, hi)]


class PartitionLog:
    """Segmented append-only log; each segment indexes its own offsets."""

    def __init__(
        self,
        name: str,
        config: LogConfig | None = None,
        clock: SimClock | None = None,
        page_cache: PageCache | None = None,
        partition: TopicPartition | None = None,
    ) -> None:
        self.name = name
        #: The partition this log is a replica of, as told by the broker
        #: hosting it: the provenance every appended record carries.  A log
        #: of no partition stamps ``None`` for both.
        self.partition = partition
        self.config = config if config is not None else LogConfig()
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = self.clock.cost_model
        self.page_cache = (
            page_cache if page_cache is not None else PageCache(clock=self.clock)
        )
        self._segments: list[LogSegment] = [self._new_segment(0)]
        self._next_offset = 0
        self._log_start_offset = 0
        # Batch index: one ``(base, last, producer_id, producer_seq, kind,
        # frame)`` entry per appended run that carried producer state (an
        # idempotent or transactional batch, a control marker: ``kind`` is
        # set) or arrived as a compressed frame the log kept, disjoint and in
        # offset order.  The frame is the physical unit the records arrived
        # in: fetch paths hand it to consumers, still compressed, in place of
        # re-materialized records.  The log keeps, ships and clips entries
        # and drops a frame once its records are cut, compacted or retained
        # away (:func:`clip`, :meth:`_clear_frames`); what a kind means is
        # the partition replica's business.
        self._batches: list[BatchEntry] = []

    # -- identity helpers -------------------------------------------------------

    def _new_segment(self, base_offset: int) -> LogSegment:
        """An empty segment of this log at ``base_offset``, its page-cache
        file id made once."""
        return LogSegment(base_offset, f"{self.name}/{base_offset:020d}.log")

    # -- append path --------------------------------------------------------------

    def append(
        self,
        key: Any,
        value: Any,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> AppendResult:
        """Append one record at the tail: a one-entry :meth:`append_batch`."""
        result = self.append_batch([(key, value, timestamp, headers)])
        return AppendResult(result.base_offset, result.latency)

    def append_stored(self, message: StoredMessage) -> AppendResult:
        """Append a pre-built record, preserving its offset: a one-record
        :meth:`append_stored_batch`."""
        result = self.append_stored_batch([message], array("q", [message.offset]))
        return AppendResult(result.base_offset, result.latency)

    def append_batch(
        self,
        entries: list[tuple[Any, Any, float | None, dict[str, Any] | None]],
        frame: BatchFrame | None = None,
        sizes: Sequence[int] | None = None,
        producer_id: int | None = None,
        producer_seq: int | None = None,
        kind: str | None = None,
    ) -> BatchAppendResult:
        """Append a batch of ``(key, value, timestamp, headers)`` at the tail.

        Entries take consecutive offsets from the log end offset; a missing
        timestamp is the clock's ``now``.  A record larger than
        ``max_message_bytes`` ends the batch: the records before it are
        appended, then :class:`ConfigError` is raised.  Roll points,
        positions and latency follow :meth:`_append_run`, so the log that
        results does not depend on how entries were cut into batches.

        With ``frame`` set the batch arrived as one compressed blob, and the
        log keeps it as that frame (a :class:`~repro.storage.segment.StoredFrame`):
        no record is built, each record's physical footprint is its share of
        the frame's wire bytes, and the frame rides on the run's batch-index
        entry so fetches can serve the blob as it is.  A batch cut short is
        stored as records.  ``producer_id``, ``producer_seq`` and
        ``kind`` are the run's producer state; the run appended — a cut one
        too — gets an entry when ``kind`` is set or the frame was kept.

        ``sizes`` is the produce path's payload-size column (one
        ``payload_size`` per entry, framing excluded — the shape of
        ``BatchFrame.sizes``): each record is built with it rather than
        walked again.  Without it the log walks each entry once.  Either
        way a record's size limit and stored size, a frame share aside, are
        its payload plus :data:`RECORD_FRAMING_BYTES`, all settled before the
        record is built: the record is final from construction.
        """
        failpoint("log.append", log=self.name, count=len(entries))
        if sizes is None:
            sizes = payload_sizes(entries)
        elif len(sizes) != len(entries):
            raise ConfigError(
                f"{len(sizes)} sizes for {len(entries)} entries"
            )
        error: ConfigError | None = None
        max_bytes = self.config.max_message_bytes
        # A record is charged its framing wherever the log counts bytes.
        if max(sizes, default=0) + RECORD_FRAMING_BYTES > max_bytes:
            # The batch ends before its first oversized record.
            cut = next(
                i for i, size in enumerate(sizes)
                if size + RECORD_FRAMING_BYTES > max_bytes
            )
            error = ConfigError(
                f"message of {sizes[cut] + RECORD_FRAMING_BYTES}B exceeds "
                f"max_message_bytes={max_bytes}"
            )
            entries = entries[:cut]
        now = self.clock.now()
        if frame is not None and error is None and len(entries) == frame.count:
            return self._append_frame(
                frame, entries, now, producer_id, producer_seq, kind
            )
        # A partial batch is stored uncompressed: each record's stored size
        # is its size plus framing.
        topic, partition = self.partition or (None, None)
        base = self._next_offset
        count = len(entries)
        stored_sizes = list(map(add, sizes, repeat(RECORD_FRAMING_BYTES, count)))
        keys, values, timestamps, headers = zip(*entries) if entries else ((),) * 4
        # A stored record's headers are read-only, so no reader can change
        # them under the next one.  The producers hand over ``Headers``; a
        # direct caller's dict is copied, and headers left out are empty.
        if not set(map(type, headers)) <= _ONLY_HEADERS:
            headers = [Headers(held) if held else EMPTY_HEADERS for held in headers]
        # The whole batch in one C pass over its columns; a missing
        # timestamp is looked up as ``now`` on the way.
        messages = list(map(new_record, repeat(StoredMessage), zip(
            repeat(topic), repeat(partition), range(base, base + count),
            keys, values, map({None: now}.get, timestamps, timestamps),
            headers, sizes, stored_sizes,
        )))
        latency = self._append_run(
            messages,
            stored_sizes,
            # From a list, which array converts in one pass (an iterator
            # it grows per item).
            array("q", list(range(base, base + count))),
        )
        if messages and kind is not None:
            self.note_batch(
                messages[0].offset, messages[-1].offset,
                producer_id, producer_seq, kind,
            )
        if error is not None:
            raise error
        if not messages:
            return BatchAppendResult(
                self._next_offset, self._next_offset - 1, 0.0, 0
            )
        return BatchAppendResult(
            messages[0].offset, messages[-1].offset, latency, len(messages)
        )

    def _append_frame(
        self,
        frame: BatchFrame,
        entries: list[tuple[Any, Any, float | None, dict[str, Any] | None]],
        now: float,
        producer_id: int | None,
        producer_seq: int | None,
        kind: str | None,
    ) -> BatchAppendResult:
        """Keep a whole compressed batch as its frame: no record is built,
        and the run's entry carries the frame."""
        base = self._next_offset
        last_timestamp = entries[-1][2]
        run = FramedRun.of_frame(
            StoredFrame(
                frame,
                base,
                now,
                now if last_timestamp is None else last_timestamp,
                self.partition,
            )
        )
        latency = self._append_run(run, frame.stored_sizes(), run.offsets)
        last = base + frame.count - 1
        self.note_batch(base, last, producer_id, producer_seq, kind, frame)
        return BatchAppendResult(base, last, latency, frame.count)

    def append_stored_batch(self, run: Run, offsets: array) -> BatchAppendResult:
        """Append a fetched run, preserving its offsets: a follower copying
        the leader.

        ``offsets`` is the run's offset column, as the leader's read returned
        it.  Offsets must continue the leader's sequence (strictly
        increasing, starting at or beyond the local end offset; gaps from
        compaction are allowed).  An out-of-order offset ends the batch: the
        records before it are appended, then :class:`ConfigError` is
        raised.  The run lands as a copy holds it
        (:func:`~repro.storage.segment.copy_of`): a whole frame as the same
        frame, a cut one as its records.  The batch index entries the copy
        carries are noted by the caller (:meth:`note_batch`).
        """
        failpoint("log.append", log=self.name, count=len(offsets))
        error: ConfigError | None = None
        expected = self._next_offset
        # Checked in C over the column; only a failing batch is walked.
        if offsets and (
            offsets[0] < expected or not all(map(lt, offsets, offsets[1:]))
        ):
            valid = 0
            for offset in offsets:
                if offset < expected:
                    break
                expected = offset + 1
                valid += 1
            error = ConfigError(
                f"replica append out of order: {offset} < {expected}"
            )
            run, offsets = run[:valid], offsets[:valid]
        held, sizes = copy_of(run)
        latency = self._append_run(held, sizes, offsets)
        if error is not None:
            raise error
        if not offsets:
            return BatchAppendResult(
                self._next_offset, self._next_offset - 1, 0.0, 0
            )
        return BatchAppendResult(offsets[0], offsets[-1], latency, len(offsets))

    def _append_run(
        self,
        run: Run,
        sizes: list[int],
        offsets: array,
    ) -> float:
        """Land an offset-ordered run in the log, as held: pre-built records,
        or a :class:`~repro.storage.segment.FramedRun` whose frames land as
        frames.  ``sizes`` and ``offsets`` are its records' ``stored_size``
        and offset columns.

        The rule, per record of ``stored_size`` s: when the active segment is
        non-empty and ``size_bytes + s > segment_max_bytes`` or
        ``message_count >= segment_max_messages``, it is sealed and a new
        segment starts at the log end offset (an empty segment accepts any
        record); the record's position is the segment's size before it; the
        log end offset becomes its offset + 1.  The rule is applied to whole
        segment-contiguous chunks — one bisect for the roll point, one
        segment extend and one page-cache charge per chunk — and the
        returned latency is folded per record, left to right.
        """
        n = len(offsets)
        config = self.config
        segment_max_bytes = config.segment_max_bytes
        segment_max_messages = config.segment_max_messages
        # cum[j] = bytes of the first j records; strictly increasing (every
        # record carries at least its framing bytes), so chunk-fit decisions
        # are a bisect rather than a per-record scan.
        cum = list(accumulate(sizes, initial=0))
        latency = 0.0
        i = 0
        vnext = self._next_offset
        while i < n:
            active = self._segments[-1]
            count = active.message_count
            # Largest k where run[i:i+k] all fit the active segment:
            # bytes — first record whose cumulative size would overflow the
            # segment; messages — remaining capacity.
            k = (
                bisect_right(cum, cum[i] + segment_max_bytes - active.size_bytes)
                - 1
                - i
            )
            count_room = segment_max_messages - count
            if count_room < k:
                k = count_room
            if n - i < k:
                k = n - i
            if k <= 0:
                if count == 0:
                    # An empty active segment always accepts one record,
                    # even one larger than segment_max_bytes.
                    k = 1
                else:
                    # Active segment is full: seal it and roll.
                    active.seal()
                    active = self._new_segment(vnext)
                    self._segments.append(active)
                    continue
            end = i + k
            chunk_offsets = offsets[i:end]
            start = active.size_bytes
            base = start - cum[i]
            chunk_positions = [base + c for c in cum[i:end]]
            active.extend(
                run if k == n else run[i:end],
                chunk_offsets, chunk_positions, base + cum[end],
            )
            latency = self.page_cache.write_batch(
                active.file_id, start, sizes[i:end], latency
            )
            vnext = chunk_offsets[-1] + 1
            i = end
        self._next_offset = vnext
        return latency

    # -- read path ----------------------------------------------------------------

    def read(
        self,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
    ) -> ReadResult:
        """Read records with offset >= ``offset``; returns records + latency.

        Raises :class:`OffsetOutOfRangeError` when ``offset`` lies outside
        ``[log_start_offset, log_end_offset]``; reading exactly at the end
        offset returns an empty batch (a poll with no new data).
        """
        failpoint("log.read", log=self.name, offset=offset)
        if offset < self._log_start_offset or offset > self._next_offset:
            raise OffsetOutOfRangeError(
                offset, self._log_start_offset, self._next_offset
            )
        if max_messages <= 0:
            return ReadResult(
                [], array("q"), 0.0, self._next_offset, next_offset=offset
            )

        pieces: list[Piece] = []
        offsets = array("q")
        count = 0
        latency = 0.0
        stored_bytes = 0
        next_offset = offset
        byte_budget = max_bytes if max_bytes is not None else 1 << 62
        seg_idx = self._segment_index_for(offset)
        segments = self._segments
        while seg_idx < len(segments) and count < max_messages:
            segment = segments[seg_idx]
            # The segment's offset bisect: one RAM-resident probe per
            # segment touched.
            latency += self.cost_model.request_overhead / 10
            # Kafka semantics: the first record is delivered whatever its
            # size, so an oversized message cannot wedge a consumer.
            taken, found, start, nbytes = segment.read_into(
                pieces, offsets, next_offset, max_messages - count, byte_budget,
                not count,
            )
            if taken:
                latency += self.page_cache.read(segment.file_id, start, nbytes)
                count += taken
                stored_bytes += nbytes
                byte_budget -= nbytes
                next_offset = offsets[-1] + 1
            if taken < found:
                break  # the byte budget is spent
            seg_idx += 1
        return ReadResult(
            run_of(pieces, offsets, count), offsets, latency, self._next_offset,
            next_offset, stored_bytes,
        )

    # -- batch index ------------------------------------------------------------------

    def note_batch(
        self,
        base: int,
        last: int,
        producer_id: int | None,
        producer_seq: int | None,
        kind: str | None,
        frame: BatchFrame | None = None,
    ) -> BatchEntry:
        """Record that the tail offsets ``[base, last]`` are one run; returns
        the entry now at the tail of the index.

        That is a new entry, or — when the run continues the tail entry's
        ``(producer_id, producer_seq)``: a replica copy that cut the batch —
        the tail entry grown to ``last``.
        """
        batches = self._batches
        if (
            producer_seq is not None
            and batches
            and batches[-1][2:4] == (producer_id, producer_seq)
        ):
            base = batches.pop()[0]
        entry = (base, last, producer_id, producer_seq, kind, frame)
        batches.append(entry)
        return entry

    def batches(self) -> list[BatchEntry]:
        """Every batch-index entry held, in offset order."""
        return list(self._batches)

    def batches_between(self, lo: int, hi: int) -> list[BatchEntry]:
        """Entries overlapping offsets ``[lo, hi]``, whole: whoever lands a
        part of the range clips them to it (:func:`clip`), and a frame is
        served only for a run the response holds whole."""
        if not self._batches:
            return []
        return runs_overlapping(self._batches, lo, hi)

    def batches_spanned_by(self, offset: int, offsets: array) -> list[BatchEntry]:
        """:meth:`batches_between` a fetch's ``offset`` and the last record
        it read (``offsets`` is the read's offset column) — from the offset,
        not the first record, so an entry whose records compaction has since
        removed still ships."""
        if not offsets or not self._batches:
            return []
        return runs_overlapping(self._batches, offset, offsets[-1])

    def _clear_frames(self, lo: int, hi: int) -> None:
        """Compaction or retention rewrote offsets ``[lo, hi]``: the entries
        overlapping them lose their frames, which can no longer stand in for
        their records, and an entry left with no producer state goes."""
        batches = self._batches
        span = _overlap(batches, lo, hi)
        batches[span] = [
            (*entry[:5], None) for entry in batches[span] if entry[4] is not None
        ]

    def trim_batches(self, offset: int, keep) -> None:
        """Retention: each entry wholly below ``offset`` becomes
        ``keep(entry)``, or goes when that is ``None``."""
        batches = self._batches
        # Entries are disjoint and sorted: the first to reach ``offset`` is
        # where an overlap with it would start.
        below = slice(_overlap(batches, offset, offset).start)
        batches[below] = [
            kept for entry in batches[below] if (kept := keep(entry)) is not None
        ]

    def _segment_index_for(self, offset: int) -> int:
        idx = bisect_right(self._segments, offset, key=_base_offset_of) - 1
        if idx < 0:
            idx = 0
        # Compaction/retention may leave the target segment empty or the
        # offset past its last record; walk forward to the covering segment.
        while idx < len(self._segments):
            segment = self._segments[idx]
            last = segment.last_offset
            if last is not None and last >= offset:
                return idx
            if not segment.sealed:
                return idx
            idx += 1
        return len(self._segments) - 1

    def offset_for_timestamp(self, timestamp: float) -> int | None:
        """Earliest offset whose record timestamp >= ``timestamp``.

        This is the §3.1 "metadata-based access" primitive: consumers rewind
        to a point in time, not just to a raw offset.
        """
        for segment in self._segments:
            last_ts = segment.last_timestamp
            if last_ts is not None and last_ts >= timestamp:
                found = segment.offset_for_timestamp(timestamp)
                if found is not None:
                    return found
        return None

    # -- truncation (follower reconciliation) ------------------------------------

    def truncate_to(self, offset: int) -> int:
        """Discard all records with offset >= ``offset``; returns #removed.

        Used when a follower re-syncs with a newly elected leader whose log
        is shorter than the follower's un-replicated tail.
        """
        if offset < self._log_start_offset:
            raise ConfigError(
                f"cannot truncate below log start {self._log_start_offset}"
            )
        # Entries go with their records; one that straddles the cut is
        # clipped to what survives.
        batches = self._batches
        del batches[bisect_left(batches, (offset,)):]
        if batches and batches[-1][1] >= offset:
            clipped = clip(batches.pop(), 0, offset - 1)
            if clipped is not None:
                batches.append(clipped)
        removed = 0
        while self._segments and self._segments[-1].base_offset >= offset:
            victim = self._segments.pop()
            removed += victim.message_count
            self.page_cache.forget_file(victim.file_id)
        if not self._segments:
            self._segments = [self._new_segment(offset)]
        else:
            tail = self._segments[-1]
            survivors = [m for m in tail.messages() if m.offset < offset]
            removed += tail.message_count - len(survivors)
            # Only a sealed segment is rewritten; the cut tail is the
            # active segment again.
            tail.seal()
            tail.replace_messages(survivors)
            tail.sealed = False
        self._next_offset = min(self._next_offset, offset)
        return removed

    # -- retention / compaction hooks ----------------------------------------------

    def sealed_segments(self) -> list[LogSegment]:
        return [s for s in self._segments if s.sealed]

    def active_segment(self) -> LogSegment:
        return self._segments[-1]

    def drop_segment(self, segment: LogSegment) -> int:
        """Remove a sealed segment entirely (retention); returns bytes freed."""
        if not segment.sealed:
            raise ConfigError("cannot drop the active segment")
        if segment not in self._segments:
            raise ConfigError("segment does not belong to this log")
        freed = segment.size_bytes
        last = segment.last_offset
        # Archived or gone, the records are no longer the frame's to serve.
        self._clear_frames(
            segment.base_offset, last if last is not None else segment.base_offset
        )
        self._segments.remove(segment)
        self.page_cache.forget_file(segment.file_id)
        if self._segments:
            first = self._segments[0]
            start = first.first_offset
            self._log_start_offset = (
                start if start is not None else first.base_offset
            )
        else:
            self._segments = [self._new_segment(self._next_offset)]
            self._log_start_offset = self._next_offset
        return freed

    def rewrite_segment(
        self, segment: LogSegment, survivors: list[StoredMessage]
    ) -> int:
        """Compaction hook: replace a sealed segment's records; returns bytes
        reclaimed and drops the segment's cached pages."""
        last = segment.last_offset
        if last is not None:
            # Compaction may delete records out of a frame's range.
            self._clear_frames(segment.base_offset, last)
        reclaimed = segment.replace_messages(survivors)
        self.page_cache.forget_file(segment.file_id)
        # log_start_offset is NOT advanced by compaction (Kafka semantics):
        # reads below the first surviving offset skip forward to it.
        return reclaimed

    def merge_sealed_segments(self) -> int:
        """Coalesce adjacent sealed segments up to the configured segment
        size; returns the number of segments eliminated.

        Compaction leaves many small, sparse segments; merging them restores
        sequential read locality (one seek per merged segment instead of one
        per original segment), which is what makes post-compaction changelog
        recovery *faster*, as the paper claims (Kafka's cleaner groups
        segments the same way).
        """
        new_segments: list[LogSegment] = []
        group: list[LogSegment] = []
        group_bytes = 0
        group_msgs = 0
        eliminated = 0

        def flush_group() -> None:
            nonlocal group, group_bytes, group_msgs, eliminated
            if not group:
                return
            if len(group) == 1:
                new_segments.append(group[0])
            else:
                merged = self._new_segment(group[0].base_offset)
                merged.seal()
                bulk: list[StoredMessage] = []
                for old in group:
                    bulk.extend(old.messages())
                    self.page_cache.forget_file(old.file_id)
                merged.replace_messages(bulk)
                eliminated += len(group) - 1
                new_segments.append(merged)
            group = []
            group_bytes = 0
            group_msgs = 0

        for segment in self._segments:
            if not segment.sealed:
                flush_group()
                new_segments.append(segment)
                continue
            over = (
                group_bytes + segment.size_bytes > self.config.segment_max_bytes
                or group_msgs + segment.message_count
                > self.config.segment_max_messages
            )
            if group and over:
                flush_group()
            group.append(segment)
            group_bytes += segment.size_bytes
            group_msgs += segment.message_count
        flush_group()
        self._segments = new_segments
        return eliminated

    # -- introspection ----------------------------------------------------------------

    @property
    def log_start_offset(self) -> int:
        return self._log_start_offset

    @property
    def log_end_offset(self) -> int:
        """Offset that the *next* appended record will receive (LEO)."""
        return self._next_offset

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def size_bytes(self) -> int:
        return sum(s.size_bytes for s in self._segments)

    @property
    def message_count(self) -> int:
        return sum(s.message_count for s in self._segments)

    def segments(self) -> list[LogSegment]:
        return list(self._segments)

    def all_messages(self) -> list[StoredMessage]:
        """Every record currently retained, in offset order (tests/recovery)."""
        out: list[StoredMessage] = []
        for segment in self._segments:
            out.extend(segment.messages())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionLog({self.name!r}, [{self._log_start_offset}, "
            f"{self._next_offset}), segments={len(self._segments)})"
        )
