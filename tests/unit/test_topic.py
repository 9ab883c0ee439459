"""Unit tests for topic configuration."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    ConfigError,
    ReservedTopicError,
    TopicAlreadyExistsError,
    TopicNotFoundError,
)
from repro.messaging.cluster import MessagingCluster
from repro.messaging.offset_manager import OFFSETS_TOPIC
from repro.messaging.producer import Producer
from repro.messaging.topic import CLEANUP_COMPACT, CLEANUP_DELETE, TopicConfig


class TestValidation:
    def test_defaults(self):
        config = TopicConfig(name="t")
        assert config.num_partitions == 1
        assert config.replication_factor == 1
        assert config.cleanup_policy == CLEANUP_DELETE
        assert not config.compacted

    def test_compacted_flag(self):
        config = TopicConfig(name="t", cleanup_policy=CLEANUP_COMPACT)
        assert config.compacted

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a/b"},
            {"name": "t", "num_partitions": 0},
            {"name": "t", "replication_factor": 0},
            {"name": "t", "cleanup_policy": "vacuum"},
            {"name": "t", "min_insync_replicas": 0},
            {"name": "t", "min_insync_replicas": 2},  # > replication_factor
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TopicConfig(**kwargs)

    def test_min_insync_within_replication(self):
        config = TopicConfig(name="t", replication_factor=3, min_insync_replicas=2)
        assert config.min_insync_replicas == 2

    def test_frozen(self):
        config = TopicConfig(name="t")
        with pytest.raises(AttributeError):
            config.name = "other"


class TestSystemNamespace:
    """Client topics may not start with ``__``; the system's own topics
    (offsets, telemetry feeds, changelogs) are made through one internal
    path."""

    def test_create_topic_refuses_the_namespace_with_a_typed_error(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        before = cluster.topics()
        with pytest.raises(ReservedTopicError, match="'__mine' is reserved"):
            cluster.create_topic(TopicConfig(name="__mine"))
        with pytest.raises(ReservedTopicError):
            cluster.create_topic("__telemetry.rogue", num_partitions=1)
        assert issubclass(ReservedTopicError, ConfigError)
        assert cluster.topics() == before == [OFFSETS_TOPIC]
        with pytest.raises(TopicNotFoundError):
            Producer(cluster).send("__mine", "v")

    def test_system_topics_are_created_through_the_internal_path(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        config = cluster.create_system_topic(TopicConfig(name="__internal"))
        assert cluster.topic_config("__internal") is config
        with pytest.raises(TopicAlreadyExistsError):
            cluster.create_system_topic(TopicConfig(name="__internal"))
        with pytest.raises(ConfigError, match="must start with '__'"):
            cluster.create_system_topic(TopicConfig(name="client"))
        assert "client" not in cluster.topics()
