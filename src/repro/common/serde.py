"""Serializers/deserializers for message keys and values.

The messaging layer itself is schema-agnostic (the paper stresses Liquid
"operates on unstructured data"), but clients usually want typed access.
A :class:`Serde` pairs a ``serialize`` and ``deserialize`` function; the
producer/consumer clients apply them at the boundary, so everything inside
the brokers deals with opaque values.

:class:`JsonSerde` is the codec every JSON produce and every JSON consumer
pays for, so it calls what ``json``'s Python wrappers call, without the
wrappers.  To encode, one C encoder (``json.encoder.c_make_encoder``) bound
once with ``json.dumps``' settings for ``sort_keys=True, separators=(",",
":")``; where ``_json`` has no C encoder, ``JSONEncoder.encode`` takes its
place.  The encoder's circular-reference marks are shared by every call,
and a failed encode leaves its marks behind, so any failure clears them
(sharing them assumes one encode at a time, as in this single-threaded
simulation).  To decode, one scan from offset 0 by the decoder's own
``scan_once`` — the C scanner where ``_json`` has one, ``json``'s Python
scanner otherwise.  A scan's result is used only when it consumed the
whole text; anything else — leading or trailing whitespace, no value at
offset 0, a malformed value — is decoded again by ``JSONDecoder.decode``,
so values and error messages are ``json``'s own.  Either way the bytes
are ``json.dumps``' and the values ``json.loads``'
(``tests/properties/test_json_serde_equivalence.py``).

A consumer decodes a drained slice of a batch in one call,
:meth:`Serde.deserialize_many`.  :class:`JsonSerde` joins the slice's texts
into one array, ``[t0,NaN,t1,NaN,…,tn-1]``, and scans it once, so the
scanner's key memo hands every record of the slice the same field-name
strings.  The array's even items are the records' values only if each text
``ti`` is exactly one item, and four checks prove that:

* the joined bytes hold exactly ``n - 1`` ``NaN`` tokens, so every ``NaN``
  in the text is a separator (a text holding one, even inside a string,
  is decoded on its own);
* the scan consumed the whole text, so the closing ``]`` is the one the
  join added;
* ``2n - 1`` items came back, and
* every odd item is ``json.decoder.NaN`` itself.  By the first check those
  ``n - 1`` items are the ``n - 1`` separators, so each separator is a
  top-level item and the commas next to it are top-level commas; by the
  third, what lies between two of them — one text — was scanned as
  exactly one item, bare or padded with whitespace, which ``json.loads``
  strips too.

A text that joins a neighbour (``1,[2`` then ``3]``), splits in two
(``{},{}``), or opens a string the next one closes fails a check; an empty
or malformed text, or one that is not UTF-8, fails the scan itself.  Then
the slice is decoded one text at a time, so values and errors (the first
bad record's) are ``deserialize``'s.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from json.decoder import NaN
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Generic, Protocol, TypeVar

from repro.common.errors import SerdeError

T = TypeVar("T")


class Serde(Protocol[T]):
    """Symmetric serializer: ``deserialize(serialize(x)) == x``.

    ``deserialize_many(datas)`` is part of the contract: it returns
    ``[None if d is None else deserialize(d) for d in datas]`` and raises
    what the first bad ``d`` raises.  The fetch side decodes through it
    alone, one call per drained slice of a batch (its value column, and its
    key column), so a ``None`` — a tombstone's value, a keyless record's
    key — is delivered as ``None``.  Every built-in serde implements it; a
    serde may decode the column faster than one value at a time, as
    :class:`JsonSerde` does, as long as the result is the same.
    """

    def serialize(self, value: T) -> bytes: ...

    def deserialize(self, data: bytes) -> T: ...

    def deserialize_many(self, datas: Sequence[bytes | None]) -> list[T | None]: ...


def _each(
    deserialize: Callable[[Any], Any], datas: Sequence[Any]
) -> list[Any]:
    """``deserialize`` over a column, one value at a time, ``None`` kept."""
    return [None if data is None else deserialize(data) for data in datas]


class BytesSerde:
    """Identity serde for already-encoded payloads."""

    def serialize(self, value: bytes) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise SerdeError(f"BytesSerde expects bytes, got {type(value).__name__}")
        return bytes(value)

    def deserialize(self, data: bytes) -> bytes:
        return bytes(data)

    def deserialize_many(self, datas: Sequence[bytes | None]) -> list:
        return _each(bytes, datas)


class StringSerde:
    """UTF-8 string serde."""

    def serialize(self, value: str) -> bytes:
        if not isinstance(value, str):
            raise SerdeError(f"StringSerde expects str, got {type(value).__name__}")
        return value.encode("utf-8")

    def deserialize(self, data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerdeError(f"invalid utf-8 payload: {exc}") from exc

    def deserialize_many(self, datas: Sequence[bytes | None]) -> list:
        return _each(self.deserialize, datas)


class IntSerde:
    """Big-endian signed 64-bit integer serde."""

    def serialize(self, value: int) -> bytes:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerdeError(f"IntSerde expects int, got {type(value).__name__}")
        try:
            return value.to_bytes(8, "big", signed=True)
        except OverflowError as exc:
            raise SerdeError(f"int out of 64-bit range: {value}") from exc

    def deserialize(self, data: bytes) -> int:
        if len(data) != 8:
            raise SerdeError(f"IntSerde expects 8 bytes, got {len(data)}")
        return int.from_bytes(data, "big", signed=True)

    def deserialize_many(self, datas: Sequence[bytes | None]) -> list:
        return _each(self.deserialize, datas)


# ``json.dumps`` with non-default settings builds a JSONEncoder per call; the
# codecs are stateless, so one of each serves every JsonSerde.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_DECODER = json.JSONDecoder()
_JSON_ENCODE = _JSON_ENCODER.encode
_JSON_DECODE = _JSON_DECODER.decode

# What ``_JSON_DECODE`` runs underneath, without its two regex matches: the
# decoder's own scanner, ``_json``'s C one where that exists.
_JSON_SCAN = _JSON_DECODER.scan_once

# What ``_JSON_ENCODE`` runs underneath, bound once with its settings
# (``JSONEncoder.encode`` builds a new C encoder on every call); without the
# C encoder, ``_JSON_ENCODE`` itself, as one chunk.
_ENCODE_MARKERS: dict = {}
if c_make_encoder is not None:
    _ENCODE_CHUNKS = c_make_encoder(
        _ENCODE_MARKERS,
        _JSON_ENCODER.default,
        encode_basestring_ascii,
        _JSON_ENCODER.indent,
        _JSON_ENCODER.key_separator,
        _JSON_ENCODER.item_separator,
        _JSON_ENCODER.sort_keys,
        _JSON_ENCODER.skipkeys,
        _JSON_ENCODER.allow_nan,
    )
else:
    def _ENCODE_CHUNKS(value: Any, _level: int) -> tuple[str]:
        return (_JSON_ENCODE(value),)


class JsonSerde:
    """JSON serde for dict/list/scalar payloads.

    Uses sorted keys so serialization is deterministic — log compaction and
    changelog tests compare byte-for-byte: ``serialize(v)`` is
    ``json.dumps(v, sort_keys=True, separators=(",", ":"))`` in UTF-8, and
    ``deserialize`` is ``json.loads``, failures included (as
    :class:`SerdeError`).  See the module docstring for the C fast path.
    """

    def serialize(self, value: Any) -> bytes:
        try:
            try:
                return "".join(_ENCODE_CHUNKS(value, 0)).encode("utf-8")
            except BaseException:
                _ENCODE_MARKERS.clear()  # the failed walk's marks
                raise
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"value is not JSON-serializable: {exc}") from exc

    def deserialize(self, data: bytes) -> Any:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerdeError(f"invalid JSON payload: {exc}") from exc
        try:
            value, end = _JSON_SCAN(text, 0)
        except (StopIteration, ValueError):
            pass  # no value at 0, or a bad one: decode says which
        else:
            if end == len(text):
                return value
        try:
            return _JSON_DECODE(text)
        except json.JSONDecodeError as exc:
            raise SerdeError(f"invalid JSON payload: {exc}") from exc

    def deserialize_many(self, datas: Sequence[bytes | None]) -> list:
        """``deserialize`` over a column in one scan when the module
        docstring's four checks prove the texts aligned, else one text at a
        time."""
        n = len(datas)
        if n > 1:
            try:
                joined = b",NaN,".join(datas)
            except TypeError:
                pass  # a None (tombstone) among them
            else:
                if joined.count(b"NaN") == n - 1:
                    try:
                        text = f"[{joined.decode('utf-8')}]"
                        items, end = _JSON_SCAN(text, 0)
                    except (StopIteration, ValueError, RecursionError):
                        pass  # misaligned or malformed: one at a time says
                    else:
                        if (
                            end == len(text)
                            and len(items) == 2 * n - 1
                            and items[1::2].count(NaN) == n - 1
                        ):
                            return items[::2]
        return _each(self.deserialize, datas)


class NoopSerde:
    """Pass-through serde for in-process pipelines.

    The in-process simulation does not need to round-trip every payload
    through bytes; NoopSerde keeps Python objects intact while still letting
    code paths that expect a serde stay uniform.
    """

    def serialize(self, value: Any) -> Any:
        return value

    def deserialize(self, data: Any) -> Any:
        return data

    def deserialize_many(self, datas: Sequence[Any]) -> list:
        return list(datas)


#: Serdes by name for config-driven construction.
SERDES: dict[str, Any] = {
    "bytes": BytesSerde(),
    "string": StringSerde(),
    "int": IntSerde(),
    "json": JsonSerde(),
    "noop": NoopSerde(),
}


def serde_by_name(name: str) -> Any:
    """Look up a built-in serde, raising :class:`SerdeError` if unknown."""
    try:
        return SERDES[name]
    except KeyError:
        raise SerdeError(
            f"unknown serde {name!r}; known: {sorted(SERDES)}"
        ) from None
