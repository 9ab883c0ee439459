"""Unit tests for typed producer/consumer boundaries (serdes)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import SerdeError
from repro.common.records import TopicPartition
from repro.common.serde import JsonSerde
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer


def make_cluster() -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=1)
    return cluster


class TestSerdeRoundtrip:
    def test_json_values_roundtrip_through_the_log(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(value_serde=JsonSerde()))
        producer.send("t", {"nested": {"x": [1, 2]}})
        # On the wire / in the log: bytes.
        raw = cluster.fetch("t", 0, 0).records
        assert isinstance(raw[0].value, bytes)
        # Typed consumer decodes.
        consumer = Consumer(cluster, ConsumerConfig(value_serde=JsonSerde()))
        consumer.assign([TopicPartition("t", 0)])
        records = consumer.poll(10)
        assert records[0].value == {"nested": {"x": [1, 2]}}

    def test_string_keys_roundtrip(self):
        """A value serde leaves the key as the sender gave it."""
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(value_serde=JsonSerde()))
        producer.send("t", {"v": 1}, key="member-42")
        consumer = Consumer(cluster, ConsumerConfig(value_serde=JsonSerde()))
        consumer.assign([TopicPartition("t", 0)])
        records = consumer.poll(10)
        assert (records[0].key, records[0].value) == ("member-42", {"v": 1})

    def test_none_keys_pass_through(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(value_serde=JsonSerde()))
        producer.send("t", {"v": 1})  # no key
        consumer = Consumer(cluster, ConsumerConfig(value_serde=JsonSerde()))
        consumer.assign([TopicPartition("t", 0)])
        assert consumer.poll(10)[0].key is None

    @pytest.mark.parametrize("compression", ["none", "zlib:6"])
    @pytest.mark.parametrize(
        "serde, first, decoded",
        [(JsonSerde(), b'{"a":1}', {"a": 1})],
        ids=["json"],
    )
    def test_a_tombstone_reaches_a_typed_consumer_as_none(
        self, compression, serde, first, decoded
    ):
        """A ``None`` value (a delete; changelogs and compaction write them)
        is delivered as ``None``, not decoded."""
        cluster = make_cluster()
        producer = Producer(
            cluster, ProducerConfig(compression=compression, linger_messages=2)
        )
        producer.send("t", first, key="k")
        producer.send("t", None, key="k")
        producer.flush()
        consumer = Consumer(cluster, ConsumerConfig(value_serde=serde))
        consumer.assign([TopicPartition("t", 0)])
        records = consumer.poll(10)
        assert [(r.key, r.value) for r in records] == [("k", decoded), ("k", None)]

    def test_serialization_errors_surface_at_send(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(value_serde=JsonSerde()))
        with pytest.raises(SerdeError):
            producer.send("t", object())

    def test_untyped_clients_unchanged(self):
        cluster = make_cluster()
        Producer(cluster).send("t", {"plain": True})
        consumer = Consumer(cluster)
        consumer.assign([TopicPartition("t", 0)])
        assert consumer.poll(10)[0].value == {"plain": True}

    def test_deserialized_records_keep_wire_size(self):
        """Regression: ``Consumer._deserialize`` dropped ``size``, letting
        ``ConsumerRecord.__post_init__`` recompute it from the deserialized
        Python objects — skewing byte accounting away from what was actually
        stored and transferred."""
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(value_serde=JsonSerde()))
        producer.send("t", {"payload": "x" * 64, "n": [1, 2, 3]}, key="k1")
        raw = cluster.fetch("t", 0, 0).records[0]
        consumer = Consumer(cluster, ConsumerConfig(value_serde=JsonSerde()))
        consumer.assign([TopicPartition("t", 0)])
        typed = consumer.poll(10)[0]
        assert typed.size == raw.size
        assert typed.size > 0
