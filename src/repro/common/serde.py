"""Serializers/deserializers for message keys and values.

The messaging layer itself is schema-agnostic (the paper stresses Liquid
"operates on unstructured data"), but clients usually want typed access.
A :class:`Serde` pairs a ``serialize`` and ``deserialize`` function; the
producer/consumer clients apply them at the boundary, so everything inside
the brokers deals with opaque values.
"""

from __future__ import annotations

import json
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
_JSON_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_JSON_DECODE = json.JSONDecoder().decode


class JsonSerde:
    """JSON serde for dict/list/scalar payloads.

    Uses sorted keys so serialization is deterministic — log compaction and
    changelog tests compare byte-for-byte.
    """

    def serialize(self, value: Any) -> bytes:
        try:
            return _JSON_ENCODE(value).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"value is not JSON-serializable: {exc}") from exc

    def deserialize(self, data: bytes) -> Any:
        try:
            return _JSON_DECODE(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
