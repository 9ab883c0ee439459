"""Compressed record-batch frames: the wire and storage unit of a batch.

Liquid's cost argument hinges on moving bytes cheaply between feeds (§2.3,
§5.2): every hop — producer to leader, leader to follower, broker to
consumer, hot tier to cold store — is charged per byte, so shrinking the
bytes shrinks the bill.  Kafka's answer, mirrored here, is the *compressed
record batch*: the producer serializes and compresses one linger batch into
a single frame, and from then on the frame travels as an **opaque blob**.
Brokers append and replicate it without re-encoding records; the tiered
archiver ships it to the object store as-is; only the consumer inflates it
— lazily, per batch, behind a memoryview so untouched batches stay cold.
The frame keeps nothing it decodes: the decoded batch belongs to the fetch
response that asked for it (:class:`~repro.messaging.fetchbuffer.FetchBatch`)
and goes when that response does.  The log keeps nothing decoded either: a
batch it kept whole is held as its frame on every replica, with no record
object and no decoded value beside it
(:class:`~repro.storage.segment.StoredFrame`), and a reader that needs the
records — a fetch that cuts the frame, compaction, truncation — builds them
from the frame for that read.  So the heap holds each record once, in the
log's compressed frame, however many replicas hold it and consumers have
read it.

A :class:`BatchFrame` carries two byte counts:

* ``payload_bytes`` — the logical (uncompressed) payload size, computed with
  the same :func:`~repro.common.records.payload_size` accounting as the
  uncompressed path, so the ``none`` codec is byte-identical to a build
  without compression at all;
* ``wire_bytes`` — what the frame costs on the wire and on disk: the real
  ``len()`` of the zlib-compressed canonical serialization plus a fixed
  frame header.

Per-record trace contexts ride on the frame object rather than inside the
payload, the way Kafka keeps batch-level metadata in the (uncompressed)
batch header; a batch's producer id and sequence are the produce request's
and live in the log's batch index, on the entry that carries the frame.
The reserved ``__trace`` header is therefore *excluded* from the canonical
serialization, preserving the observe-don't-mutate invariant: installing a
tracer never changes a frame's compressed bytes, so traced and untraced runs
stay byte-identical even with compression armed.
"""

from __future__ import annotations

import pickle
import zlib
from itertools import chain, repeat
from operator import add, itemgetter
from typing import Any

from repro.common.errors import ConfigError
from repro.common.records import (
    EMPTY_HEADERS,
    SURROGATES,
    TRACE_HEADER,
    estimate_size,
)

#: Supported codec names.
CODEC_NONE = "none"
CODEC_ZLIB = "zlib"
CODECS = (CODEC_NONE, CODEC_ZLIB)

#: Default zlib level when a bare ``"zlib"`` spec is given.
DEFAULT_ZLIB_LEVEL = 6

#: Fixed per-frame header overhead charged on the wire and on disk: codec
#: id, record count, base timestamp, producer id/seq, payload length, crc.
BATCH_FRAME_HEADER_BYTES = 32


def parse_compression(spec: str) -> tuple[str, int]:
    """Parse a compression spec into ``(codec, level)``.

    Accepted forms: ``"none"``, ``"zlib"`` (level ``6``), ``"zlib:N"`` with
    ``N`` in 1..9.  Raises :class:`~repro.common.errors.ConfigError` on
    anything else.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"compression must be a string, got {spec!r}")
    codec, _, level_part = spec.partition(":")
    if codec == CODEC_NONE:
        if level_part:
            raise ConfigError(f"codec 'none' takes no level, got {spec!r}")
        return CODEC_NONE, 0
    if codec == CODEC_ZLIB:
        if not level_part:
            return CODEC_ZLIB, DEFAULT_ZLIB_LEVEL
        try:
            level = int(level_part)
        except ValueError:
            raise ConfigError(f"bad compression level in {spec!r}") from None
        if not 1 <= level <= 9:
            raise ConfigError(f"zlib level must be 1..9, got {level}")
        return CODEC_ZLIB, level
    raise ConfigError(
        f"unknown compression codec {codec!r}; expected one of {CODECS}"
    )


def encode_payload(payload: bytes, codec: str, level: int) -> bytes:
    """Compress raw payload bytes under ``codec`` (identity for ``none``)."""
    if codec == CODEC_NONE:
        return payload
    if codec == CODEC_ZLIB:
        return zlib.compress(payload, level)
    raise ConfigError(f"unknown compression codec {codec!r}")


def decode_payload(payload: bytes | memoryview, codec: str) -> bytes:
    """Inverse of :func:`encode_payload`; accepts a memoryview (zero-copy)."""
    if codec == CODEC_NONE:
        return bytes(payload)
    if codec == CODEC_ZLIB:
        return zlib.decompress(payload)
    raise ConfigError(f"unknown compression codec {codec!r}")


def payload_sizes(
    entries: list[tuple[Any, Any, float | None, Any]],
) -> list[int]:
    """The payload-size column of a batch: one
    :func:`~repro.common.records.payload_size` per ``(key, value, timestamp,
    headers)`` entry.

    The produce path's one sizing of a batch (the cluster's column for a
    frameless batch, a frame's ``sizes``, the log's fallback), one of two
    ways to the same numbers, chosen from the batch alone:

    * *By shape* — every value an exact ``dict`` of the first value's shape
      (:func:`_shape_sizes`).  Values, keys and headers are sized as
      columns in C-level passes, with no Python code per record: a key
      column of exact ASCII ``str`` is its lengths, any other key column
      :func:`estimate_size` per key, and headers count only when some
      record has any.
    * *Per entry* — any other batch: values that are not dicts (bytes,
      ints), or dicts that miss the first one's shape.  The cheap terms are
      spelled in place (an exact-``str`` ASCII key is its ``len``, a
      ``bytes`` value is its ``len``, empty headers are 0) and every other
      term is one :func:`estimate_size` call.  A column pass over ``bytes``
      or ``int`` values measured no faster than this.
    """
    if entries and type(entries[0][1]) is dict:
        keys, values, _ts, headers = zip(*entries)
        sizes = _shape_sizes(values)
        if sizes is not None:
            if set(map(type, keys)) == {str} and "".join(keys).isascii():
                sizes = map(add, sizes, map(len, keys))
            else:
                sizes = map(add, sizes, map(estimate_size, keys))
            if any(headers):
                sizes = map(add, sizes, [estimate_size(h) if h else 0 for h in headers])
            return list(sizes)
    return [
        (len(k) if type(k) is str and k.isascii() else estimate_size(k))
        + (len(v) if type(v) is bytes else estimate_size(v))
        + (estimate_size(h) if h else 0)
        for k, v, _ts, h in entries
    ]


_ONLY_DICTS = {dict}
_ONLY_STRS = {str}
_NUMBERS = frozenset((int, float))


def _shape_sizes(dicts: list) -> list[int] | None:
    """:func:`estimate_size` of each of ``dicts``, sized from the first
    one's shape, or ``None`` when a dict does not have that shape.

    Every dict must be an exact ``dict`` with as many keys as the first,
    whose keys must be exact ``str`` (no ``__trace``).  The keys are charged
    once; each slot is then sized as a column, by the first dict's value
    type there:

    * ``str`` — every value must be an exact ``str``; a record's text slots
      are joined and charged the join's UTF-8 length (its ``len`` when the
      whole column is ASCII);
    * ``int`` / ``float`` — every value must be exactly one of them (a
      ``bool`` is not); 8 each;
    * ``dict`` — recurse; a column that misses its own shape is walked;
    * anything else — :func:`estimate_size` per value.

    A ``dict`` subclass, another key count, a missing key, or a wrong type
    in a ``str`` or number slot returns ``None``, and the caller walks the
    batch.

    Only the first dict's keys are type-checked; the others are matched by
    lookup.  So a key object that is not an exact ``str`` yet hashes and
    compares equal to one of the first dict's keys is charged as that key,
    not as itself (``TestShapeColumn`` pins it).  Guarding against it would
    cost a type pass over every key of every record: 348 ns per tracking
    event, measured against ~2 µs for this function at the time.
    """
    first = dicts[0]
    if (
        set(map(type, dicts)) != _ONLY_DICTS
        or set(map(len, dicts)) != {len(first)}
        or not set(map(type, first)) <= _ONLY_STRS
        or TRACE_HEADER in first
    ):
        return None
    fixed = 2 * len(first) + _text_size("".join(first))
    texts, numbers, columns = [], [], []
    try:
        for name, value in first.items():
            tp = type(value)
            if tp is str:
                texts.append(name)
            elif tp is int or tp is float:
                numbers.append(name)
            else:
                column = list(map(itemgetter(name), dicts))
                columns.append(
                    tp is dict and _shape_sizes(column)
                    or list(map(estimate_size, column))
                )
        if numbers:
            found = map(itemgetter(*numbers), dicts)
            if len(numbers) > 1:
                found = chain.from_iterable(found)
            if not set(map(type, found)) <= _NUMBERS:
                return None
            fixed += 8 * len(numbers)
        if texts:
            rows = list(map(itemgetter(*texts), dicts))
            found = chain.from_iterable(rows) if len(texts) > 1 else rows
            if set(map(type, found)) != _ONLY_STRS:
                return None
            if len(texts) > 1:
                rows = list(map("".join, rows))
            if not "".join(rows).isascii():
                rows = map(str.encode, rows, repeat("utf-8"), repeat(SURROGATES))
            columns.append(map(len, rows))
    except KeyError:
        return None
    if not columns:
        return [fixed] * len(dicts)
    sizes = map(add, columns[0], repeat(fixed))
    for column in columns[1:]:
        sizes = map(add, sizes, column)
    return list(sizes)


def _text_size(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8", SURROGATES))


def _sanitize(
    entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
) -> tuple[list[tuple[Any, Any, float | None, dict[str, Any]]], tuple]:
    """Split entries into a trace-free canonical form plus the contexts.

    Returns ``(clean_entries, trace_contexts)`` where ``trace_contexts[i]``
    is the i-th record's ``__trace`` header value (or None).  The contexts
    ride in the frame header — accounting-invisible, like the header itself.

    Every record's headers go into the canonical form as a dict of their
    own.  Pickle memoizes an object it has seen, so a headers object shared
    between records (a reused dict, the shared empty mapping) would
    otherwise make the frame's bytes depend on object identity — and
    stripping ``__trace`` copies, so a traced run would ship other bytes.
    """
    clean = []
    contexts = []
    dirty = False
    for key, value, timestamp, headers in entries:
        ctx = headers.get(TRACE_HEADER) if headers else None
        contexts.append(ctx)
        if ctx is not None:
            headers = {k: v for k, v in headers.items() if k != TRACE_HEADER}
            dirty = True
        elif headers is not None:
            headers = dict(headers)
        clean.append((key, value, timestamp, headers))
    return clean, tuple(contexts) if dirty else ()


class BatchFrame:
    """One compressed batch: the opaque unit brokers store and replicate.

    ``payload`` is the zlib-compressed canonical serialization of the
    batch's ``(key, value, timestamp, headers)`` entries (headers minus the
    reserved ``__trace`` key).  :meth:`entries` inflates it through a
    memoryview on every call and keeps nothing, so a frame that is never
    read is never decompressed and one that was read holds no decoded copy.
    """

    __slots__ = (
        "codec",
        "level",
        "count",
        "payload",
        "payload_bytes",
        "wire_bytes",
        "sizes",
        "trace_contexts",
    )

    def __init__(
        self,
        codec: str,
        level: int,
        count: int,
        payload: bytes,
        payload_bytes: int,
        sizes: tuple[int, ...],
        trace_contexts: tuple = (),
    ) -> None:
        self.codec = codec
        self.level = level
        self.count = count
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.wire_bytes = len(payload) + BATCH_FRAME_HEADER_BYTES
        self.sizes = sizes
        self.trace_contexts = trace_contexts

    # -- payload access ------------------------------------------------------

    def entries(self) -> list[tuple[Any, Any, float | None, dict[str, Any]]]:
        """Inflate the payload and return the canonical entries, a fresh
        list on every call that the frame does not keep.

        The decompressor is handed a :class:`memoryview` over the payload so
        no intermediate copy of the compressed blob is made.
        """
        return pickle.loads(decode_payload(memoryview(self.payload), self.codec))

    def headers(self, entries: list, start: int = 0) -> list:
        """The headers records ``start...`` of the batch were sent with, for
        their decoded ``entries``: the reserved ``__trace`` context put back
        from the frame, and a headerless record's the shared read-only
        :data:`~repro.common.records.EMPTY_HEADERS`, so a record built from a
        frame equals (and hashes like) the one built from the batch."""
        headers = [entry[3] or EMPTY_HEADERS for entry in entries]
        if self.trace_contexts:
            contexts = self.trace_contexts[start : start + len(entries)]
            for i, ctx in enumerate(contexts):
                if ctx is not None:
                    headers[i] = {**headers[i], TRACE_HEADER: ctx}
        return headers

    @property
    def ratio(self) -> float:
        """Logical payload bytes per wire byte (>1 means compression won)."""
        if self.wire_bytes <= 0:
            return 1.0
        return self.payload_bytes / self.wire_bytes

    def stored_sizes(self) -> list[int]:
        """Apportion the frame's wire bytes across its records.

        The frame is the physical unit, but the log's byte accounting is
        per-record; every record receives an equal share (at least one byte)
        with the remainder spread one byte each over the first records, so
        the shares are deterministic and sum to at least ``wire_bytes``.
        """
        count = self.count
        base = self.wire_bytes if self.wire_bytes > count else count
        per = base // count
        rem = base - per * count
        return [per + 1] * rem + [per] * (count - rem)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BatchFrame({self.codec}:{self.level}, n={self.count}, "
            f"{self.payload_bytes}B -> {self.wire_bytes}B)"
        )


def compress_entries(
    entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
    codec: str,
    level: int,
) -> BatchFrame | None:
    """Build a :class:`BatchFrame` for one linger batch.

    Returns ``None`` for the ``none`` codec (it sends no frame — same flush
    path, no compress step) and for payloads the canonical serializer
    cannot handle — the producer then sends the batch uncompressed.
    """
    if codec == CODEC_NONE or not entries:
        return None
    clean, contexts = _sanitize(entries)
    try:
        raw = pickle.dumps(clean, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None  # unpicklable payload: fall back to uncompressed
    sizes = tuple(payload_sizes(clean))
    payload = encode_payload(raw, codec, level)
    return BatchFrame(
        codec=codec,
        level=level,
        count=len(entries),
        payload=payload,
        payload_bytes=sum(sizes),
        sizes=sizes,
        trace_contexts=contexts,
    )


def decompress_entries(
    frame: BatchFrame,
) -> list[tuple[Any, Any, float | None, dict[str, Any]]]:
    """Round-trip inverse of :func:`compress_entries` (sans ``__trace``)."""
    return frame.entries()
