"""Message types exchanged through the messaging layer.

The paper's unit of data is the *message*: an optionally-keyed value appended
to a topic partition, identified by a per-partition monotonically increasing
*offset* (§3.1).  We mirror the Kafka client split:

* :class:`ProducerRecord` — what a client hands to a producer (no offset yet;
  partition may be left for the partitioner to choose).
* :class:`StoredMessage` — what the log physically keeps (key, value,
  timestamp, headers; the offset is implied by log position and stamped on
  the way out).
* :class:`ConsumerRecord` — what a consumer receives (full provenance:
  topic, partition, offset).
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


def estimate_size(value: Any) -> int:
    """Approximate serialized size in bytes of a message component.

    The page cache and cost model charge I/O by byte count, so sizes need to
    be stable and cheap, not exact.  Strings/bytes use their true length;
    containers recurse; other scalars use fixed costs.

    This is the one walk a record gets on the produce path, so the common
    concrete types take exact-``type`` fast paths and a ``dict`` sizes its
    ``str``/``int``/``float`` leaves inside its own loop (no call per leaf;
    an ASCII string's UTF-8 length is its ``len``, so nothing is encoded).
    Subclasses and exotic containers fall through to the isinstance chain
    with identical results.
    """
    if value is None:
        return 0
    tp = type(value)
    if tp is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if tp is dict:
        total = 0
        for k, v in value.items():
            if k == TRACE_HEADER:
                continue  # accounting-invisible (see TRACE_HEADER)
            if type(k) is str:
                total += (len(k) if k.isascii() else len(k.encode("utf-8"))) + 2
            else:
                total += estimate_size(k) + 2
            tp = type(v)
            if tp is str:
                total += len(v) if v.isascii() else len(v.encode("utf-8"))
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
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
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
        return (
            estimate_size(self.key)
            + estimate_size(self.value)
            + estimate_size(self.headers)
        )


@dataclass(init=False, slots=True)
class StoredMessage:
    """A message at rest inside a log segment.

    Offsets are positional: ``segment.base_offset + index``.  Storing them
    implicitly keeps compaction simple (surviving messages keep their
    original offsets via an explicit field set at append time).

    Immutable once appended: the leader's log builds the record (with the
    ``size`` the produce path already computed) and assigns ``stored_size``
    before the record enters a segment; from then on followers, fetches and
    the cold tier hold the *same object*, the way they share a
    :class:`~repro.common.compression.BatchFrame`.  Truncation, compaction
    and retention change which records a log lists, never a record.
    """

    key: Any
    value: Any
    timestamp: float
    offset: int
    headers: dict[str, Any]
    size: int
    stored_size: int

    def __init__(
        self, key, value, timestamp, offset, headers=None, size=0, stored_size=0
    ) -> None:
        self.key = key
        self.value = value
        self.timestamp = timestamp
        self.offset = offset
        self.headers = {} if headers is None else headers
        self.size = size
        # ``size`` is the record's *logical* payload (what a consumer is
        # billed for); ``stored_size`` is its *physical* footprint — its
        # share of the (possibly compressed) batch frame it arrived in.
        # Segments, the page cache, replication and the cold tier all move
        # physical bytes, so they charge stored_size; uncompressed records
        # occupy exactly their logical size.
        self.stored_size = stored_size or size
        if size == 0:
            self.__post_init__()

    def __post_init__(self) -> None:
        # The only place a size that was not supplied gets computed (direct
        # ``PartitionLog.append*`` / ``StoredMessage(...)`` callers).
        self.size = (
            estimate_size(self.key)
            + estimate_size(self.value)
            + estimate_size(self.headers)
            + RECORD_FRAMING_BYTES
        )
        if self.stored_size == 0:
            self.stored_size = self.size


@dataclass(init=False, slots=True, unsafe_hash=True)
class ConsumerRecord:
    """A message as delivered to a consumer, with full provenance.

    ``size`` (payload bytes, excluding log framing) is computed once at
    construction — fetch paths that already know the stored size pass it in
    so quota/WAN accounting never re-walks keys, values and headers.

    Immutable, yet built by plain slot stores: ``__init__`` ends by
    re-classing the instance to a slot-less subclass whose ``__setattr__``
    raises.  One exists per delivered record, so construction cost and the
    96-byte footprint are the read path's per-record budget (a frozen
    dataclass pays ``object.__setattr__`` per field, a tuple is larger).
    """

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    timestamp: float
    headers: Mapping[str, Any]
    size: int

    def __init__(
        self, topic, partition, offset, key, value, timestamp, headers=None, size=0
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.offset = offset
        self.key = key
        self.value = value
        self.timestamp = timestamp
        self.headers = headers = {} if headers is None else headers
        self.size = size or (
            estimate_size(key) + estimate_size(value) + estimate_size(dict(headers))
        )
        self.__class__ = _FrozenConsumerRecord


class _FrozenConsumerRecord(ConsumerRecord):
    """What every constructed :class:`ConsumerRecord` becomes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"ConsumerRecord is immutable ({name!r})")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy/pickle rebuild through __init__
        return ConsumerRecord, tuple(
            getattr(self, name) for name in ConsumerRecord.__slots__
        )


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
