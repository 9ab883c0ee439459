"""Zero-copy fetch buffers: a plain fetch delivers the log's own records.

A fetch response is not a flat record list but a sequence of *batches* —
some plain (a run of the log's own :class:`~repro.common.records.StoredMessage`
objects, the list the log read returned), some still the compressed
:class:`~repro.common.compression.BatchFrame` the producer shipped.  Which
frames stand in for their records is read off the response's offset column
and the log's batch index (:func:`build_fetch_batches`), never off record
objects or the way the log holds the run: a log holds a kept frame as
itself, and only a stretch that no whole frame covers — a frame the
response cuts — is built into records, on the broker, once for that
response (:func:`~repro.storage.segment.records`).  A ``StoredMessage``
*is* a :class:`~repro.common.records.ConsumerRecord`, built once at append,
so draining a plain batch for a consumer without a value serde hands out
those very objects in a fresh list and builds nothing.  Records are built
only where there is something to build: :meth:`FetchBatch.inflate` builds
exactly the records a drain delivers out of a frame, or through the
consumer's value serde, once each.  The serde decodes a drained slice in one
call, :meth:`~repro.common.serde.Serde.deserialize_many` over the slice's
value column, whether the batch is plain or framed; for
:class:`~repro.common.serde.JsonSerde` that is one scan, so the slice's
records share their field-name strings.  A framed batch stays compressed until the
consumer drains into it (the payload is decoded through a memoryview, no
intermediate copy of the blob) and is charged the simulated inflate CPU on
that first touch only.  A poll that stops mid-response therefore neither
inflates nor builds what lies past its cursor.

The decoded batch lives on the :class:`FetchBatch`, not on the frame: a
response drained over several polls decodes each frame once, and the
decoded entries go when the response does.  The log's frame stays the one
copy of its records on the heap; two consumers reading it decode it once
each, and a response that cuts it decodes it once on the broker.

:class:`FetchBuffer` holds one response's batches plus the bookkeeping a
prefetching consumer needs: the fetch latency still owed and the broker it
is owed to (a poll overlaps its requests to different brokers), the
simulated issue time (so latency that overlapped application processing is
not re-charged), and the position a partially-drained poll should commit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import repeat

from repro.common.compression import BatchFrame
from repro.common.costmodel import CostModel
from repro.common.records import ConsumerRecord, StoredMessage, new_record
from repro.common.serde import Serde
from repro.storage.log import BatchEntry
from repro.storage.segment import Run, records


class FetchBatch:
    """One batch of a fetch response: a run of log records, or the frame
    standing in for one."""

    __slots__ = (
        "topic",
        "partition",
        "messages",
        "frame",
        "base_offset",
        "count",
        "decoded",
    )

    def __init__(
        self,
        topic: str,
        partition: int,
        messages: list[StoredMessage] | None = None,
        frame: BatchFrame | None = None,
        base_offset: int = 0,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.messages = messages
        self.frame = frame
        self.base_offset = base_offset
        self.count = len(messages) if frame is None else frame.count
        #: The frame's decoded entries, from the first drain into it for as
        #: long as this response is held; ``None`` before and for a plain
        #: batch.
        self.decoded: list | None = None

    @property
    def inflated(self) -> bool:
        """Whether the simulated inflate CPU has been charged: on the
        frame's first drain (nothing to charge for a plain batch)."""
        return self.frame is None or self.decoded is not None

    def inflate(
        self,
        cost_model: CostModel,
        start: int = 0,
        stop: int | None = None,
        value_serde: Serde | None = None,
    ) -> tuple[list[ConsumerRecord], float]:
        """Records ``[start:stop]`` of the batch, deserialized, in a list of
        their own.

        A plain batch without a value serde builds nothing: its records are
        the log's own :class:`~repro.common.records.StoredMessage` objects.
        Frames and the serde build one ``ConsumerRecord`` per record asked
        for, the whole slice in one C pass over its columns
        (:data:`~repro.common.records.new_record`); no record is memoized,
        as the caller's cursor asks for each record once, but a frame is
        decoded on its first touch only and its entries kept in
        :attr:`decoded`.  The serde decodes the slice's value column
        in one :meth:`~repro.common.serde.Serde.deserialize_many` call, for
        plain and framed batches alike; a ``None`` value stays ``None``.
        The returned latency is the simulated inflate CPU for a framed
        batch on that first touch, ``0.0`` afterwards and for plain batches.
        ``size`` stays the stored payload size — recomputing it from
        deserialized objects would skew quota/WAN accounting away from the
        bytes actually transferred.
        """
        if stop is None:
            stop = self.count
        frame = self.frame
        latency = 0.0
        if frame is None:
            run = self.messages[start:stop]
            if value_serde is None:
                return run, 0.0
            if not run:
                return [], 0.0
            # A record is a tuple: the transposed run is its columns.
            _, _, offsets, keys, values, timestamps, headers, sizes, *_ = zip(*run)
        else:
            decoded = self.decoded
            if decoded is None:
                latency = cost_model.decompress(frame.payload_bytes)
                decoded = self.decoded = frame.entries()
            entries = decoded[start:stop]
            if not entries:
                return [], latency
            keys, values, timestamps, _ = zip(*entries)
            offsets = range(self.base_offset + start, self.base_offset + stop)
            headers = frame.headers(entries, start)
            sizes = frame.sizes[start:stop]
        if value_serde is not None:
            values = value_serde.deserialize_many(values)
        return list(map(new_record, repeat(ConsumerRecord), zip(
            repeat(self.topic), repeat(self.partition),
            offsets, keys, values, timestamps, headers, sizes,
        ))), latency


def build_fetch_batches(
    topic: str,
    partition: int,
    messages: Run,
    offsets: array,
    entries: list[BatchEntry],
) -> list[FetchBatch]:
    """Group a fetch response's records into frame-backed and plain batches.

    ``messages`` is the response's run as the log holds it, ``offsets`` its
    offset column, and ``entries`` the log's batch-index entries around the
    response, in offset order.  An entry's frame stands in for its records
    only when the response holds the entry's *entire* offset range
    contiguously, which the offset column shows — partial visibility (high
    watermark cut, compaction, skipped markers) falls back to records, so
    correctness never depends on frame coverage.  A plain batch is the
    log's own records; a stretch of a frame that no frame stands for is
    built into records here, once
    (:func:`~repro.storage.segment.records`).  A frameless response is one
    batch over ``messages`` itself.
    """
    batches: list[FetchBatch] = []
    n = len(offsets)
    done = 0  # messages[:done] are batched
    for base, last, _pid, _seq, _kind, frame in entries:
        if frame is None:
            continue
        i = bisect_left(offsets, base, done)
        end = i + frame.count
        # Offsets strictly increase, so matching endpoints over exactly
        # ``count`` records proves the whole frame range is present.
        if end <= n and offsets[i] == base and offsets[end - 1] == last:
            if i > done:
                batches.append(
                    FetchBatch(topic, partition, records(messages, done, i))
                )
            batches.append(FetchBatch(topic, partition, frame=frame, base_offset=base))
            done = end
    if done < n:
        batches.append(FetchBatch(topic, partition, records(messages, done)))
    return batches


class FetchBuffer:
    """One fetch response buffered for (pre)fetching consumers.

    Tracks a drain cursor across the response's batches so a poll can take
    fewer records than were fetched without inflating what it leaves behind,
    and remembers when the fetch was issued so a prefetched response only
    charges the latency that did *not* overlap application processing.
    """

    __slots__ = (
        "batches",
        "next_offset",
        "latency",
        "broker",
        "issued_at",
        "prefetched",
        "_index",
        "_cursor",
        "_last_taken",
    )

    def __init__(
        self,
        batches: list[FetchBatch],
        next_offset: int,
        latency: float,
        broker: int,
        issued_at: float,
        prefetched: bool = False,
    ) -> None:
        self.batches = batches
        self.next_offset = next_offset
        self.latency = latency
        #: The leader that served the fetch.
        self.broker = broker
        self.issued_at = issued_at
        self.prefetched = prefetched
        self._index = 0
        self._cursor = 0
        self._last_taken: int | None = None

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self.batches)

    def take(
        self,
        limit: int,
        cost_model: CostModel,
        value_serde: Serde | None = None,
    ) -> tuple[list[ConsumerRecord], float]:
        """Drain up to ``limit`` records; returns them + inflate latency.

        Only the drained slice of each batch is delivered, so only that
        slice is inflated or deserialized (see :meth:`FetchBatch.inflate`).
        """
        out: list[ConsumerRecord] = []
        latency = 0.0
        batches = self.batches
        while limit > 0 and self._index < len(batches):
            batch = batches[self._index]
            start = self._cursor
            stop = min(batch.count, start + limit)
            records, lat = batch.inflate(cost_model, start, stop, value_serde)
            latency += lat
            out.extend(records)
            limit -= stop - start
            if stop == batch.count:
                self._index += 1
                self._cursor = 0
            else:
                self._cursor = stop
        if out:
            self._last_taken = out[-1].offset
        return out, latency

    def position(self) -> int | None:
        """Offset the consumer should resume from after the drain so far.

        ``next_offset`` once the buffer is fully drained (markers skipped at
        the tail are then stepped over); one past the last delivered record
        while records remain buffered; ``None`` if nothing was taken yet.
        """
        if self.exhausted:
            return self.next_offset
        if self._last_taken is not None:
            return self._last_taken + 1
        return None
