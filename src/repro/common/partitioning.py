"""Stable key-to-partition hashing shared by all clients.

§3.1: "producers can choose to which partition to publish data in a
round-robin fashion or according to a hash function".  The hash function
must be *stable* — the same key must land on the same partition across
producers, transactional sessions, and process restarts — because keyed
ordering and log compaction are both defined per partition.

Keys are first reduced to bytes with an explicit, documented encoding:

* ``bytes``/``bytearray``/``memoryview`` — used as-is;
* ``str`` — UTF-8;
* ``bool`` — one byte (``b"\\x01"``/``b"\\x00"``; handled before ``int``
  since ``bool`` is an ``int`` subclass);
* ``int`` — 8-byte big-endian two's complement (values outside the signed
  64-bit range fall through to the ``repr`` fallback);
* anything else — ``repr(key)`` encoded as UTF-8.  ``repr`` is stable for
  the builtin scalar/container types but is *not* guaranteed stable for
  arbitrary objects across interpreter versions; callers who need durable
  assignments should key with bytes, str, or int.

The byte string is hashed with CRC32 (matching Kafka's murmur2-on-bytes
spirit with a stdlib-only primitive) and reduced modulo the partition count.
"""

from __future__ import annotations

import zlib
from typing import Any

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def key_to_bytes(key: Any) -> bytes:
    """Reduce a message key to its canonical byte encoding (see module doc)."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, (bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, bool):  # before int: bool is an int subclass
        return b"\x01" if key else b"\x00"
    if isinstance(key, int) and _INT64_MIN <= key <= _INT64_MAX:
        return key.to_bytes(8, "big", signed=True)
    return repr(key).encode("utf-8")


def stable_hash(key: Any) -> int:
    """CRC32 of the key's canonical byte encoding (non-negative 32-bit int)."""
    return zlib.crc32(key_to_bytes(key))


def partition_for_key(key: Any, num_partitions: int) -> int:
    """Deterministically map a key onto one of ``num_partitions``."""
    if type(key) is str:
        # The common key type, hashed in place: the bytes are key_to_bytes's.
        return zlib.crc32(key.encode()) % num_partitions
    return stable_hash(key) % num_partitions
