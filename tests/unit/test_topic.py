"""Unit tests for topic configuration."""

import pytest

from repro.common.errors import ConfigError
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
