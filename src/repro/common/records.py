"""Message types exchanged through the messaging layer.

The paper's unit of data is the *message*: an optionally-keyed value appended
to a topic partition, identified by a per-partition monotonically increasing
*offset* (§3.1).  We mirror the Kafka client split:

* :class:`ProducerRecord` — what a client hands to a producer (no offset yet;
  partition may be left for the partitioner to choose).
* :class:`ConsumerRecord` — what a consumer receives (full provenance:
  topic, partition, offset), immutable.
* :class:`StoredMessage` — what the log physically keeps: a
  ``ConsumerRecord`` built once, at append, that also knows its physical
  footprint.  Every replica, the cold tier and every plain (frameless,
  serde-less) fetch hand out that same object; only frame inflation and
  serde consumers build a separate ``ConsumerRecord``.

Both record types are tuples of their fields (a ``NamedTuple`` and its
subclass), so whoever builds a batch of them builds it in one C pass over
its columns with :data:`new_record`, running no Python code per record: the
log at append, a kept frame for its reader, the fetch buffer for frames and
serdes.  A tuple is one length word (8 B) larger than the slot object it
replaced, and a field read goes through the namedtuple's C getter (about
22 ns against a slot's 9 ns on a 2-core CPython 3.11 box); building one
is one C call, about 210 ns on that box (about 300 ns a record for a
whole batch pass, the column ``zip`` included), where the slot object's
``__init__`` took about 470 ns.

A record's headers are read-only :class:`Headers`, so a consumer that
changes the headers it was handed cannot change the stored record under
every later reader.  A record sent without headers carries
:data:`EMPTY_HEADERS`, the one shared empty instance, instead of an empty
dict of its own.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping as _AbcMapping
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple


#: Per-record framing overhead charged by the log (offset, length, crc).
RECORD_FRAMING_BYTES = 24

#: Reserved header key carrying a
#: :class:`~repro.observability.trace.TraceContext`.  Size accounting skips
#: it so installing a tracer never changes a record's charged bytes — the
#: observe-don't-mutate invariant the trace-transparency property test
#: enforces.
TRACE_HEADER = "__trace"

#: Header keys with this prefix belong to the system (``__trace`` on a traced
#: record; ``__ctrl`` and ``__pid`` on a control marker): the log and the
#: batch frame give them meaning, so a client record carrying one would not
#: round-trip.  The producers' ``send`` rejects them with
#: :class:`~repro.common.errors.ReservedHeaderError`; the one exception is
#: ``__trace`` holding a ``TraceContext``, which continues an existing trace.
RESERVED_HEADER_PREFIX = "__"

#: The error handler every size takes a string's UTF-8 length with: a lone
#: surrogate, which strict UTF-8 refuses, is charged its 3 encoded bytes, so
#: sizing never raises on a string (and a valid string's length is unchanged).
SURROGATES = "surrogatepass"


class Headers(dict):
    """A record's headers: a ``dict`` that refuses mutation and hashes.

    The producers build one where they copy the sender's headers, and a
    framed read builds one per record, so the headers a consumer is handed
    are never a dict it could change under other readers.  ``dict(headers)``
    or ``{**headers}`` is a mutable copy.  The empty instance pickles and
    copies as :data:`EMPTY_HEADERS`.
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a record's headers are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> str | tuple:
        return (Headers, (dict(self),)) if self else "EMPTY_HEADERS"


#: The headers of every record sent without any: equal to ``{}``, shared by
#: all of them, so a headerless record allocates no dict it would keep.
EMPTY_HEADERS: Mapping[str, Any] = Headers()


def estimate_size(value: Any) -> int:
    """Approximate serialized size in bytes of a message component.

    The page cache and cost model charge I/O by byte count, so sizes need to
    be stable and cheap, not exact.  Strings and bytes-likes use their true
    length; containers recurse; other scalars use fixed costs.

    It is the per-value rule.  The produce path's batch column reaches its
    numbers without calling it for a batch of same-shaped dicts
    (:func:`~repro.common.compression.payload_sizes`) and calls it for
    everything else, so the common concrete types take exact-``type`` fast
    paths and a ``dict`` (or a record's :class:`Headers`) sizes its
    ``str``/``int``/``float`` leaves inside its own loop (no call per leaf;
    an ASCII string's UTF-8 length is its ``len``, so nothing is encoded;
    any other string is encoded with :data:`SURROGATES`, so the rule is
    total).  Subclasses and exotic containers fall through to the isinstance chain
    with identical results.
    """
    if value is None:
        return 0
    tp = type(value)
    if tp is str:
        return (
            len(value) if value.isascii() else len(value.encode("utf-8", SURROGATES))
        )
    if tp is dict or tp is Headers:
        total = 0
        for k, v in value.items():
            if k == TRACE_HEADER:
                continue  # accounting-invisible (see TRACE_HEADER)
            if type(k) is str:
                total += 2 + (
                    len(k) if k.isascii() else len(k.encode("utf-8", SURROGATES))
                )
            else:
                total += estimate_size(k) + 2
            tp = type(v)
            if tp is str:
                total += len(v) if v.isascii() else len(v.encode("utf-8", SURROGATES))
            elif tp is int or tp is float:
                total += 8
            else:
                total += estimate_size(v)
        return total
    if tp is int:
        return 8
    if tp is bytes:
        return len(value)
    if tp is float:
        return 8
    if tp is bool:
        return 1
    if tp is list or tp is tuple:
        return sum([estimate_size(item) + 1 for item in value])
    return _estimate_size_slow(value)


def _estimate_size_slow(value: Any) -> int:
    """Subclass / exotic-type fallback for :func:`estimate_size`."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, memoryview):
        return value.nbytes
    if isinstance(value, str):
        return len(value.encode("utf-8", SURROGATES))
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, _AbcMapping):
        return sum(
            estimate_size(k) + estimate_size(v) + 2
            for k, v in value.items()
            if k != TRACE_HEADER
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) + 1 for item in value)
    # Fallback: shallow object size, better than guessing zero.
    return sys.getsizeof(value)


def payload_size(key: Any, value: Any, headers: Mapping[str, Any] | None) -> int:
    """A record's payload size: key, value and headers, log framing excluded.

    The one spelling of the formula every record's ``size`` follows.  The
    produce path sizes whole batches with
    :func:`~repro.common.compression.payload_sizes`, which reaches the same
    numbers by columns for a batch of same-shaped dicts and with the cheap
    terms in place for any other (``TestInlinedColumn`` and
    ``TestShapeColumn`` hold the two equal).
    """
    return (
        estimate_size(key)
        + estimate_size(value)
        + (estimate_size(headers) if headers else 0)
    )


@dataclass
class ProducerRecord:
    """A message as submitted by a producer.

    ``partition=None`` delegates the choice to the producer's partitioner
    (hash of key if keyed, round-robin otherwise), matching §3.1: "producers
    can choose to which partition to publish data in a round-robin fashion or
    according to a hash function".
    """

    topic: str
    value: Any
    key: Any = None
    partition: int | None = None
    timestamp: float | None = None
    headers: dict[str, Any] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return payload_size(self.key, self.value, self.headers)


#: Builds a record of class ``cls`` from its complete field tuple in one C
#: call, running no Python code: ``new_record(StoredMessage, fields)``.  The
#: batch builders map it over a batch's columns,
#: ``list(map(new_record, repeat(cls), zip(*columns)))``, so a whole batch is
#: one C pass; the class constructors below are for callers that build one
#: record at a time.
new_record = tuple.__new__


class _RecordFields(NamedTuple):
    """The eight fields of a :class:`ConsumerRecord`, in tuple order."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    timestamp: float
    headers: Mapping[str, Any]
    size: int


class ConsumerRecord(_RecordFields):
    """A message as delivered to a consumer, with full provenance.

    ``size`` is the payload size — key, value and headers, log framing
    excluded — on every record, stored or built.  It is computed once at
    construction; fetch paths that already know it pass it in so
    quota/WAN accounting never re-walks keys, values and headers.

    A tuple of its eight fields, so a batch of records is built in one C
    pass (:data:`new_record`) and a field read is the tuple's own getter.
    Immutable: assigning or deleting any attribute raises
    :class:`AttributeError`.  Equality and hash are over the eight fields,
    across subclasses — a :class:`StoredMessage` equals the
    ``ConsumerRecord`` built from the same record — and a record never
    equals a plain tuple.
    """

    __slots__ = ()

    def __new__(
        cls, topic, partition, offset, key, value, timestamp, headers=None, size=0
    ) -> ConsumerRecord:
        if headers.__class__ is not Headers:
            headers = Headers(headers) if headers else EMPTY_HEADERS
        return new_record(cls, (
            topic, partition, offset, key, value, timestamp, headers,
            size or payload_size(key, value, headers),
        ))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConsumerRecord) and self[:8] == other[:8]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:8])

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable ({name!r})")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy/pickle rebuild the fields as they are
        return new_record, (type(self), tuple(self))


#: The nine fields of a :class:`StoredMessage`: a record's eight, then its
#: ``stored_size``.
_StoredFields = NamedTuple(
    "_StoredFields", [*_RecordFields.__annotations__.items(), ("stored_size", int)]
)


class StoredMessage(_StoredFields, ConsumerRecord):
    """A message at rest inside a log segment — and, once appended, the very
    record a plain fetch delivers.

    Offsets are positional: ``segment.base_offset + index``.  Storing them
    implicitly keeps compaction simple (surviving messages keep their
    original offsets via an explicit field set at append time).

    Built once, by the leader's log at append, with its ``topic`` and
    ``partition``, the ``size`` the produce path already computed and its
    ``stored_size``; immutable from then on.  Followers, the cold tier and
    every frameless, serde-less fetch hold the *same object*, the way they
    share a :class:`~repro.common.compression.BatchFrame`.  Truncation,
    compaction and retention change which records a log lists, never a
    record.

    ``size`` is the logical payload (what a consumer is billed for);
    ``stored_size`` is the physical footprint — the payload plus
    :data:`RECORD_FRAMING_BYTES` by default, or the record's share of the
    compressed batch frame it arrived in.  Segments, the page cache,
    replication and the cold tier all move physical bytes, so they charge
    ``stored_size``.  It is the tuple's ninth element and takes no part in
    equality.  The constructor takes the fields in its own order, the tuple
    holds them in :class:`ConsumerRecord`'s.
    """

    __slots__ = ()

    def __new__(
        cls,
        key,
        value,
        timestamp,
        offset,
        headers=None,
        size=None,
        stored_size=None,
        topic=None,
        partition=None,
    ) -> StoredMessage:
        if headers.__class__ is not Headers:
            headers = Headers(headers) if headers else EMPTY_HEADERS
        if size is None:
            size = cls.__post_init__(key, value, headers)
        return new_record(cls, (
            topic, partition, offset, key, value, timestamp, headers, size,
            size + RECORD_FRAMING_BYTES if stored_size is None else stored_size,
        ))

    @staticmethod
    def __post_init__(key: Any, value: Any, headers: Mapping[str, Any]) -> int:
        """The size hook: the payload size of a record built without one
        (direct ``StoredMessage(...)`` callers; the log sizes its batches
        as a column)."""
        return payload_size(key, value, headers)


class TopicPartition(NamedTuple):
    """Identifies one partition of one topic (hashable; used as dict key).

    A tuple, so hashing, comparing and building one never runs Python code —
    it keys every per-record dict on the produce path.  What that shows:
    it equals (and hashes like) the plain ``(topic, partition)`` tuple, it
    unpacks and orders by ``(topic, partition)``, and assigning a field
    raises :class:`AttributeError`.
    """

    topic: str
    partition: int

    def __str__(self) -> str:
        return f"{self.topic}-{self.partition}"
