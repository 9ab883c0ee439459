"""Unit tests for the value codec."""

import pytest

from repro.common.errors import SerdeError
from repro.common.serde import JsonSerde


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


class TestDeserializeMany:
    @pytest.mark.parametrize(
        "serde, datas",
        [
            (JsonSerde(), [b'{"a":1}', None, b"[2]"]),
            (JsonSerde(), [b'{"a":1}', b" [2] ", b'"s"']),
        ],
        ids=["json-tombstone", "json"],
    )
    def test_is_deserialize_per_item_with_none_kept(self, serde, datas):
        assert serde.deserialize_many(datas) == [
            None if data is None else serde.deserialize(data) for data in datas
        ]

    def test_the_first_bad_item_raises(self):
        with pytest.raises(SerdeError, match="Expecting value: line 1 column 1"):
            JsonSerde().deserialize_many([b"1", b"", b"{"])
