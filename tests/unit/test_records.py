"""Unit tests for message record types and size estimation."""

import copy
import pickle
import sys

import pytest

from repro.common.records import (
    EMPTY_HEADERS,
    RECORD_FRAMING_BYTES,
    ConsumerRecord,
    ProducerRecord,
    StoredMessage,
    TopicPartition,
    estimate_size,
)


class TestEstimateSize:
    def test_none_is_zero(self):
        assert estimate_size(None) == 0

    def test_bytes_exact(self):
        assert estimate_size(b"abcd") == 4

    def test_bytes_likes_are_their_byte_length(self):
        # What key_to_bytes accepts as bytes is sized as bytes, not by its
        # object overhead.
        assert estimate_size(bytearray(b"abc")) == 3
        assert estimate_size(memoryview(b"abc")) == 3
        assert estimate_size(memoryview(b"abcdef")[1:3]) == 2
        assert estimate_size(memoryview(bytes(8)).cast("d")) == 8
        assert estimate_size({"k": bytearray(b"xy"), "m": memoryview(b"z")}) == 9

    def test_str_utf8(self):
        assert estimate_size("abc") == 3
        assert estimate_size("é") == 2

    def test_lone_surrogate_is_its_surrogatepass_length(self):
        class Text(str):
            pass

        assert estimate_size("\udcff") == 3
        assert estimate_size(Text("a\udcff")) == 4
        assert estimate_size({"\ud800": ["\udcff"]}) == 3 + 2 + 3 + 1

    def test_scalars_fixed(self):
        assert estimate_size(42) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size(True) == 1

    def test_dict_recurses(self):
        assert estimate_size({"ab": "cd"}) == 2 + 2 + 2

    def test_list_recurses(self):
        assert estimate_size(["ab", "cd"]) == (2 + 1) * 2

    def test_nested(self):
        value = {"k": [1, 2]}
        assert estimate_size(value) == 1 + (8 + 1) * 2 + 2

    def test_unknown_object_nonzero(self):
        class Thing:
            pass

        assert estimate_size(Thing()) > 0


class TestProducerRecord:
    def test_defaults(self):
        record = ProducerRecord(topic="t", value={"a": 1})
        assert record.key is None
        assert record.partition is None
        assert record.headers == {}

    def test_size_counts_key_value_headers(self):
        record = ProducerRecord(
            topic="t", value="vvvv", key="kk", headers={"h": "x"}
        )
        assert record.size_bytes() == 4 + 2 + (1 + 1 + 2)


class TestStoredMessage:
    def test_size_excludes_framing(self):
        message = StoredMessage(key="kk", value="vvvv", timestamp=0.0, offset=0)
        assert message.size == 2 + 4
        assert message.stored_size == 2 + 4 + RECORD_FRAMING_BYTES

    def test_explicit_size_preserved(self):
        message = StoredMessage(key=None, value="x", timestamp=0.0, offset=0, size=77)
        assert message.size == 77
        assert message.stored_size == 77 + RECORD_FRAMING_BYTES
        empty = StoredMessage(None, "", 0.0, 0, size=0, stored_size=5)
        assert (empty.size, empty.stored_size) == (0, 5)

    def test_meets_the_consumer_record_contract(self):
        stored = StoredMessage("k", "v", 1.0, 5, {"h": 1}, 9, 40, "t", 0)
        assert isinstance(stored, ConsumerRecord)
        assert (
            stored.topic, stored.partition, stored.offset, stored.key,
            stored.value, stored.timestamp, stored.headers, stored.size,
        ) == ("t", 0, 5, "k", "v", 1.0, {"h": 1}, 9)
        for name in ConsumerRecord._fields + ("stored_size", "extra"):
            with pytest.raises(AttributeError, match="StoredMessage is immutable"):
                setattr(stored, name, 1)
            with pytest.raises(AttributeError):
                delattr(stored, name)

    def test_equals_and_hashes_like_its_consumer_record(self):
        stored = StoredMessage("k", "v", 1.0, 5, None, 2, 40, "t", 0)
        built = ConsumerRecord("t", 0, 5, "k", "v", 1.0, None, 2)
        assert stored == built and built == stored
        assert hash(stored) == hash(built)
        # The physical footprint is not part of the record.
        assert stored == StoredMessage("k", "v", 1.0, 5, None, 2, 7, "t", 0)
        assert stored != StoredMessage("k", "v", 1.0, 5, None, 2, 40, "t", 1)

    def test_headerless_record_survives_pickle_and_copy(self):
        stored = StoredMessage("k", {"v": [1]}, 1.0, 5, None, 3, 40, "t", 0)
        assert stored.headers is EMPTY_HEADERS
        for clone in (
            copy.copy(stored), copy.deepcopy(stored), pickle.loads(pickle.dumps(stored)),
        ):
            assert type(clone) is type(stored) and clone is not stored
            assert clone == stored and clone.stored_size == 40
            assert clone.headers is EMPTY_HEADERS
            with pytest.raises(AttributeError):
                clone.offset = 6


class TestEmptyHeaders:
    def test_equals_an_empty_dict_and_refuses_mutation(self):
        assert EMPTY_HEADERS == {} and not EMPTY_HEADERS
        assert dict(EMPTY_HEADERS) == {} and {**EMPTY_HEADERS, "a": 1} == {"a": 1}
        for mutate in (
            lambda h: h.__setitem__("a", 1),
            lambda h: h.__delitem__("a"),
            lambda h: h.update(a=1),
            lambda h: h.setdefault("a", 1),
            lambda h: h.pop("a", None),
            lambda h: h.popitem(),
            lambda h: h.clear(),
            lambda h: h.__ior__({"a": 1}),
        ):
            with pytest.raises(TypeError):
                mutate(EMPTY_HEADERS)
        assert EMPTY_HEADERS == {}

    def test_is_the_default_and_stays_one_object(self):
        assert ConsumerRecord("t", 0, 5, "k", "v", 1.0).headers is EMPTY_HEADERS
        assert StoredMessage("k", "v", 1.0, 5).headers is EMPTY_HEADERS
        for clone in (
            copy.copy(EMPTY_HEADERS), copy.deepcopy(EMPTY_HEADERS),
            pickle.loads(pickle.dumps(EMPTY_HEADERS)),
        ):
            assert clone is EMPTY_HEADERS


class TestConsumerRecord:
    def test_frozen(self):
        record = ConsumerRecord("t", 0, 5, "k", "v", 1.0)
        try:
            record.offset = 6
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_size(self):
        record = ConsumerRecord("t", 0, 5, "kk", "vvvv", 1.0)
        assert record.size == 6

    def test_no_field_can_be_assigned_or_deleted(self):
        record = ConsumerRecord("t", 0, 5, "k", "v", 1.0, {"h": 1}, 9)
        for name in ConsumerRecord._fields + ("extra", "__class__"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert (record.offset, record.headers, record.size) == (5, {"h": 1}, 9)

    def test_small_slot_object(self):
        # A tuple of the eight fields (nine for a stored record) and no
        # ``__dict__``: one length word more than eight slots would take.
        record = ConsumerRecord("t", 0, 5, "k", "v", 1.0)
        assert isinstance(record, ConsumerRecord) and isinstance(record, tuple)
        assert not hasattr(record, "__dict__")
        assert ConsumerRecord._fields == (
            "topic", "partition", "offset", "key", "value", "timestamp",
            "headers", "size",
        )
        assert sys.getsizeof(record) == 104
        stored = StoredMessage("k", "v", 1.0, 5)
        assert not hasattr(stored, "__dict__")
        assert StoredMessage._fields == ConsumerRecord._fields + ("stored_size",)
        assert sys.getsizeof(stored) == 112

    def test_value_equality_and_hash(self):
        a = ConsumerRecord("t", 0, 5, "k", "v", 1.0, (), 3)
        b = ConsumerRecord("t", 0, 5, "k", "v", 1.0, (), 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ConsumerRecord("t", 0, 6, "k", "v", 1.0, (), 3)
        assert a != ConsumerRecord("t", 0, 5, "k", "v", 1.0, (), 4)
        assert a != ("t", 0, 5, "k", "v", 1.0, (), 3)
        assert ("t", 0, 5, "k", "v", 1.0, (), 3) != a
        assert not a == tuple(a) and not tuple(a) == a

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = ConsumerRecord(
            topic="t", partition=0, offset=5, key="kk", value="vvvv",
            timestamp=1.0, headers={"h": "x"}, size=11,
        )
        assert by_keyword == ConsumerRecord("t", 0, 5, "kk", "vvvv", 1.0, {"h": "x"}, 11)
        assert "offset=5" in repr(by_keyword)
        stored = StoredMessage("kk", "vvvv", 1.0, 5, None, 6, 30, "t", 0)
        assert repr(stored).startswith("StoredMessage(topic='t', partition=0,")
        assert repr(stored).endswith("size=6, stored_size=30)")
        moved = stored._replace(offset=9)
        assert type(moved) is StoredMessage and moved.stored_size == 30
        assert moved.offset == 9 and moved._replace(offset=5) == stored

    def test_omitted_size_is_recomputed_with_headers(self):
        record = ConsumerRecord("t", 0, 5, "kk", "vvvv", 1.0, headers={"h": "x"})
        assert record.size == 6 + (1 + 2 + 1)
        assert ConsumerRecord("t", 0, 5, "kk", "vvvv", 1.0).headers == {}

    def test_copy_and_pickle_round_trip(self):
        record = ConsumerRecord("t", 0, 5, "k", {"v": [1]}, 1.0, {"h": 1}, 9)
        for clone in (
            copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
        ):
            assert clone == record and clone is not record
            with pytest.raises(AttributeError):
                clone.offset = 6


class TestTopicPartition:
    def test_hashable_dict_key(self):
        d = {TopicPartition("t", 0): 1}
        assert d[TopicPartition("t", 0)] == 1

    def test_equality(self):
        assert TopicPartition("t", 1) == TopicPartition("t", 1)
        assert TopicPartition("t", 1) != TopicPartition("t", 2)
        assert TopicPartition("a", 1) != TopicPartition("b", 1)

    def test_str(self):
        assert str(TopicPartition("events", 3)) == "events-3"
        assert repr(TopicPartition("events", 3)) == (
            "TopicPartition(topic='events', partition=3)"
        )

    def test_is_a_tuple(self):
        tp = TopicPartition("t", 1)
        assert tp == ("t", 1) and hash(tp) == hash(("t", 1))
        assert {("t", 1): "plain"}[tp] == "plain"
        topic, partition = tp
        assert (topic, partition) == (tp.topic, tp.partition) == ("t", 1)

    def test_orders_by_topic_then_partition(self):
        shuffled = [
            TopicPartition("b", 0), TopicPartition("a", 10), TopicPartition("a", 2)
        ]
        assert sorted(shuffled) == [("a", 2), ("a", 10), ("b", 0)]

    def test_immutable(self):
        tp = TopicPartition("t", 1)
        with pytest.raises(AttributeError):
            tp.partition = 2
        with pytest.raises(AttributeError):
            tp.extra = 1

    def test_copy_and_pickle_round_trip(self):
        tp = TopicPartition("t", 1)
        for clone in (
            copy.copy(tp), copy.deepcopy(tp), pickle.loads(pickle.dumps(tp))
        ):
            assert type(clone) is TopicPartition
            assert clone == tp and hash(clone) == hash(tp)
            assert str(clone) == "t-1"
