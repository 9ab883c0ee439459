"""Log references.  Each pins its own rule: :class:`ReferenceLog` appends one
record at a time, :class:`RecordsLog` holds a kept frame as one object per
record, :class:`ReferenceFrames` is the frame registry beside the index."""

from __future__ import annotations

from array import array
from bisect import bisect_left
from types import SimpleNamespace

from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import ConfigError, OffsetOutOfRangeError
from repro.common.records import RECORD_FRAMING_BYTES, StoredMessage
from repro.storage.log import BatchAppendResult, LogConfig, PartitionLog, ReadResult


class ReferenceLog:
    """The append rule, one record at a time, from the spec.

    For a record of ``stored_size`` s: a non-empty active segment that would
    exceed ``segment_max_bytes`` with it, or already holds
    ``segment_max_messages``, is sealed and a new one starts at the log end
    offset; the record's position is the segment's bytes before it; it
    costs ``s / ram_bandwidth``, folded left to right; the log end offset
    becomes its offset + 1.
    """

    def __init__(self, config: LogConfig) -> None:
        self.config = config
        self.leo = 0
        self.segments = [self._segment(0)]

    def _segment(self, base: int) -> SimpleNamespace:
        return SimpleNamespace(
            base=base, sealed=False, records=[], offsets=[], positions=[],
            bytes=0,
        )

    def land(self, record: StoredMessage, latency: float) -> float:
        """Land one record; returns ``latency`` plus its charge."""
        config, segment, s = self.config, self.segments[-1], record.stored_size
        if segment.records and (
            segment.bytes + s > config.segment_max_bytes
            or len(segment.records) >= config.segment_max_messages
        ):
            segment.sealed = True
            segment = self._segment(self.leo)
            self.segments.append(segment)
        segment.records.append(record)
        segment.offsets.append(record.offset)
        segment.positions.append(segment.bytes)
        segment.bytes += s
        self.leo = record.offset + 1
        return latency + s / DEFAULT_COST_MODEL.ram_bandwidth

    def append(self, batch) -> tuple[list[int], float]:
        """Leader append at time 0.0: consecutive offsets from the log end;
        an oversized record raises after the records before it landed."""
        offsets, latency = [], 0.0
        for key, value, timestamp, hdr in batch:
            record = StoredMessage(
                key, value, timestamp if timestamp is not None else 0.0,
                self.leo, hdr if hdr is not None else {},
            )
            # The limit charges the record's framing; its size does not.
            framed = record.size + RECORD_FRAMING_BYTES
            if framed > self.config.max_message_bytes:
                raise ConfigError(
                    f"message of {framed}B exceeds max_message_bytes="
                    f"{self.config.max_message_bytes}"
                )
            latency = self.land(record, latency)
            offsets.append(record.offset)
        return offsets, latency

    def append_stored(self, records) -> float:
        """Follower copy: offsets kept; one below the log end raises after
        the records before it landed."""
        latency = 0.0
        for record in records:
            if record.offset < self.leo:
                raise ConfigError(
                    f"replica append out of order: {record.offset} < {self.leo}"
                )
            latency = self.land(record, latency)
        return latency

    def layout(self) -> dict:
        return {
            "leo": self.leo,
            "start": 0,
            "segments": [vars(s) for s in self.segments],
        }


class RecordsLog(PartitionLog):
    """The log as it held a kept frame before frames were held as
    themselves: one ``StoredMessage`` per record, built at append and sized
    by its share of the frame, beside the entry that carries the frame, and
    read by the plain per-segment walk (:meth:`read`) rather than the
    pieces walk every :class:`PartitionLog` takes."""

    def _append_frame(self, frame, entries, now, producer_id, producer_seq, kind):
        topic, partition = self.partition or (None, None)
        base = self._next_offset
        messages = [
            StoredMessage(
                key, value, now if ts is None else ts, base + i, headers, size,
                share, topic, partition,
            )
            for i, ((key, value, ts, headers), size, share) in enumerate(
                zip(entries, frame.sizes, frame.stored_sizes())
            )
        ]
        latency = self._append_run(
            messages, frame.stored_sizes(), array("q", range(base, base + len(messages)))
        )
        last = base + len(messages) - 1
        self.note_batch(base, last, producer_id, producer_seq, kind, frame)
        return BatchAppendResult(base, last, latency, len(messages))

    def read(self, offset, max_messages=100, max_bytes=None):
        """The plain walk, as reads took it before every log read its
        segments as pieces: per segment, the records from the cursor on, cut
        to the byte budget by one bisect over the segment's record end
        positions, extended onto one list."""
        if offset < self._log_start_offset or offset > self._next_offset:
            raise OffsetOutOfRangeError(offset, self._log_start_offset, self._next_offset)
        if max_messages <= 0:
            return ReadResult([], array("q"), 0.0, self._next_offset, next_offset=offset)
        collected = []
        latency = 0.0
        stored_bytes = 0
        byte_budget = max_bytes if max_bytes is not None else 1 << 62
        seg_idx = self._segment_index_for(offset)
        cursor = offset
        segments = self._segments
        while seg_idx < len(segments) and len(collected) < max_messages:
            segment = segments[seg_idx]
            assert not segment.framed  # every record is held as an object
            latency += self.cost_model.request_overhead / 10
            idx = bisect_left(segment._offsets, cursor)
            batch = segment._messages[idx : idx + max_messages - len(collected)]
            budget_hit = False
            if batch:
                end = idx + len(batch)
                start = segment._positions[idx]
                end_positions = list(segment._positions[idx + 1 : end])
                end_positions.append(
                    segment._positions[end] if end < len(segment) else segment.size_bytes
                )
                keep = bisect_left(end_positions, start + byte_budget + 1)
                if keep == 0 and not collected:
                    keep = 1
                budget_hit = keep < len(batch)
                if keep:
                    nbytes = end_positions[keep - 1] - start
                    latency += self.page_cache.read(segment.file_id, start, nbytes)
                    collected.extend(batch[:keep])
                    stored_bytes += nbytes
                    byte_budget -= nbytes
                    cursor = batch[keep - 1].offset + 1
            if budget_hit:
                break
            seg_idx += 1
            if seg_idx < len(segments):
                cursor = max(cursor, segments[seg_idx].base_offset)
        next_offset = collected[-1].offset + 1 if collected else offset
        return ReadResult(
            collected, array("q", [m.offset for m in collected]), latency,
            self._next_offset, next_offset, stored_bytes,
        )


class ReferenceFrames:
    """The frame registry as it was: ``(base, last, frame)`` runs in offset
    order, kept beside the batch index rather than on it."""

    def __init__(self) -> None:
        self.runs: list[tuple] = []

    def register(self, base, last, frame) -> None:
        self.runs.append((base, last, frame))

    def between(self, lo, hi) -> list[tuple]:
        """Frames whose whole range lies within ``[lo, hi]``."""
        return [run for run in self.runs if lo <= run[0] and run[1] <= hi]

    def spanned_by(self, messages) -> list[tuple]:
        if not messages:
            return []
        return self.between(messages[0].offset, messages[-1].offset)

    def drop_overlapping(self, lo, hi) -> None:
        self.runs = [run for run in self.runs if run[1] < lo or hi < run[0]]
