"""Client construction from frozen config objects, and their validation."""

import pytest

from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.core.liquid import Liquid
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import (
    PARTITIONER_ROUND_ROBIN,
    ConsumerConfig,
    ProducerConfig,
)
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobConfigError, StoreConfig


@pytest.fixture
def cluster():
    c = MessagingCluster(num_brokers=3)
    c.create_topic("t", num_partitions=2, replication_factor=3)
    return c


class TestProducerConfig:
    def test_defaults(self):
        config = ProducerConfig()
        assert config.acks == "leader"
        assert config.linger_messages == 1
        assert config.idempotent is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProducerConfig(linger_messages=0)
        with pytest.raises(ConfigError):
            ProducerConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            ProducerConfig(retry_backoff=2.0, retry_backoff_max=1.0)
        with pytest.raises(ConfigError):
            ProducerConfig(partitioner="modulo")

    def test_callable_partitioner_allowed(self):
        config = ProducerConfig(partitioner=lambda key, n: 0)
        assert callable(config.partitioner)


class TestConsumerConfig:
    def test_defaults(self):
        config = ConsumerConfig()
        assert config.group is None
        assert config.auto_offset_reset == "earliest"
        assert config.isolation_level == "read_uncommitted"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ConsumerConfig(auto_offset_reset="middle")
        with pytest.raises(ConfigError):
            ConsumerConfig(isolation_level="serializable")
        with pytest.raises(ConfigError):
            ConsumerConfig(max_poll_messages=0)


class TestProducerConstruction:
    def test_config_object(self, cluster):
        config = ProducerConfig(
            acks=ACKS_ALL, linger_messages=5, idempotent=True, client_id="c1"
        )
        producer = Producer(cluster, config=config)
        assert producer.config is config
        assert producer.acks == ACKS_ALL
        assert producer.linger_messages == 5
        assert producer.idempotent is True
        assert producer.client_id == "c1"

    def test_shared_config_between_clients(self, cluster):
        config = ProducerConfig(partitioner=PARTITIONER_ROUND_ROBIN)
        a = Producer(cluster, config=config)
        b = Producer(cluster, config=config)
        assert a.config is b.config
        assert a.producer_id != b.producer_id  # identity stays per-client

    def test_configured_producer_sends(self, cluster):
        producer = Producer(cluster, config=ProducerConfig(acks=ACKS_ALL))
        ack = producer.send("t", {"x": 1}, key="k")
        assert ack is not None and ack.base_offset == 0


class TestConsumerConstruction:
    def test_config_object(self, cluster):
        config = ConsumerConfig(max_poll_messages=7, auto_offset_reset="latest")
        consumer = Consumer(cluster, config=config)
        assert consumer.config is config
        assert consumer.max_poll_messages == 7
        assert consumer.auto_offset_reset == "latest"

    def test_group_config_requires_coordinator(self, cluster):
        with pytest.raises(ConfigError):
            Consumer(cluster, config=ConsumerConfig(group="g"))

    def test_configured_consumer_polls(self, cluster):
        Producer(cluster).send("t", "v", partition=0)
        cluster.run_until_replicated()
        consumer = Consumer(cluster, config=ConsumerConfig(max_poll_messages=10))
        consumer.assign([TopicPartition("t", 0)])
        assert [r.value for r in consumer.poll()] == ["v"]


class TestLiquidFactories:
    def test_producer_accepts_config(self):
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("f", partitions=1)
        producer = liquid.producer(config=ProducerConfig(client_id="team-a"))
        assert producer.client_id == "team-a"

    def test_consumer_accepts_config_and_group_argument_wins(self):
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("f", partitions=1)
        consumer = liquid.consumer(
            group="readers", config=ConsumerConfig(max_poll_messages=3)
        )
        assert consumer.group == "readers"
        assert consumer.max_poll_messages == 3
        assert consumer.group_coordinator is liquid.group_coordinator

    def test_consumer_group_from_config_alone(self):
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("f", partitions=1)
        consumer = liquid.consumer(config=ConsumerConfig(group="readers"))
        assert consumer.group == "readers"
        assert consumer.group_coordinator is liquid.group_coordinator


class TestJobConfigValidation:
    def test_store_config_validation(self):
        with pytest.raises(JobConfigError):
            StoreConfig(name="")
        for store_type in ("rocksdb", "memory"):
            with pytest.raises(JobConfigError):
                StoreConfig(name="table", store_type=store_type)
        assert StoreConfig(name="t", store_type="lsm").store_type == "lsm"

    def test_negative_standby_replicas_rejected(self):
        with pytest.raises(JobConfigError):
            JobConfig(
                name="j", inputs=["in"], task_factory=object,
                num_standby_replicas=-1,
            )
