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
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Generic, Protocol, TypeVar

from repro.common.errors import SerdeError

T = TypeVar("T")


class Serde(Protocol[T]):
    """Symmetric serializer: ``deserialize(serialize(x)) == x``."""

    def serialize(self, value: T) -> bytes: ...

    def deserialize(self, data: bytes) -> T: ...


class BytesSerde:
    """Identity serde for already-encoded payloads."""

    def serialize(self, value: bytes) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise SerdeError(f"BytesSerde expects bytes, got {type(value).__name__}")
        return bytes(value)

    def deserialize(self, data: bytes) -> bytes:
        return bytes(data)


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
