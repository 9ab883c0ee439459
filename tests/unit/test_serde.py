"""Unit tests for serializers."""

import pytest

from repro.common.errors import SerdeError
from repro.common.serde import (
    BytesSerde,
    IntSerde,
    JsonSerde,
    NoopSerde,
    StringSerde,
    serde_by_name,
)


class TestBytesSerde:
    def test_roundtrip(self):
        serde = BytesSerde()
        assert serde.deserialize(serde.serialize(b"xyz")) == b"xyz"

    def test_bytearray_accepted(self):
        assert BytesSerde().serialize(bytearray(b"ab")) == b"ab"

    def test_wrong_type_rejected(self):
        with pytest.raises(SerdeError):
            BytesSerde().serialize("not bytes")


class TestStringSerde:
    def test_roundtrip(self):
        serde = StringSerde()
        assert serde.deserialize(serde.serialize("héllo")) == "héllo"

    def test_wrong_type_rejected(self):
        with pytest.raises(SerdeError):
            StringSerde().serialize(123)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(SerdeError):
            StringSerde().deserialize(b"\xff\xfe")


class TestIntSerde:
    @pytest.mark.parametrize("value", [0, 1, -1, 2**62, -(2**62)])
    def test_roundtrip(self, value):
        serde = IntSerde()
        assert serde.deserialize(serde.serialize(value)) == value

    def test_fixed_width(self):
        assert len(IntSerde().serialize(5)) == 8

    def test_bool_rejected(self):
        with pytest.raises(SerdeError):
            IntSerde().serialize(True)

    def test_overflow_rejected(self):
        with pytest.raises(SerdeError):
            IntSerde().serialize(2**64)

    def test_wrong_length_rejected(self):
        with pytest.raises(SerdeError):
            IntSerde().deserialize(b"abc")


class TestJsonSerde:
    def test_roundtrip_dict(self):
        serde = JsonSerde()
        value = {"b": [1, 2], "a": {"nested": True}}
        assert serde.deserialize(serde.serialize(value)) == value

    def test_deterministic_key_order(self):
        serde = JsonSerde()
        assert serde.serialize({"b": 1, "a": 2}) == serde.serialize({"a": 2, "b": 1})

    def test_unserializable_rejected(self):
        with pytest.raises(SerdeError):
            JsonSerde().serialize(object())

    def test_invalid_json_rejected(self):
        with pytest.raises(SerdeError):
            JsonSerde().deserialize(b"{nope")


class TestNoopSerde:
    def test_identity(self):
        serde = NoopSerde()
        thing = object()
        assert serde.serialize(thing) is thing
        assert serde.deserialize(thing) is thing


class TestLookup:
    @pytest.mark.parametrize("name", ["bytes", "string", "int", "json", "noop"])
    def test_known_names(self, name):
        assert serde_by_name(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(SerdeError):
            serde_by_name("protobuf")


class TestDeserializeMany:
    @pytest.mark.parametrize(
        "serde, datas",
        [
            (BytesSerde(), [b"a", None, b""]),
            (StringSerde(), ["héllo".encode(), None, b"x"]),
            (IntSerde(), [IntSerde().serialize(-5), None, IntSerde().serialize(7)]),
            (JsonSerde(), [b'{"a":1}', None, b"[2]"]),
            (JsonSerde(), [b'{"a":1}', b" [2] ", b'"s"']),
            (NoopSerde(), [{"a": 1}, None, 3]),
        ],
        ids=["bytes", "string", "int", "json-tombstone", "json", "noop"],
    )
    def test_is_deserialize_per_item_with_none_kept(self, serde, datas):
        assert serde.deserialize_many(datas) == [
            None if data is None else serde.deserialize(data) for data in datas
        ]

    def test_the_first_bad_item_raises(self):
        with pytest.raises(SerdeError, match="invalid utf-8"):
            StringSerde().deserialize_many([b"ok", b"\xff", b"\xfe"])
        with pytest.raises(SerdeError, match="Expecting value: line 1 column 1"):
            JsonSerde().deserialize_many([b"1", b"", b"{"])

