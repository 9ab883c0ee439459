"""Unit tests for the partition reader's out-of-range policy."""

import pytest

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.reader import PartitionReader
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig

TP = TopicPartition("t", 0)


@pytest.mark.parametrize("reset", ["earliest", "latest"])
def test_a_deleted_position_reseats_by_the_policy_and_counts_the_jump(reset):
    reseat_at = {"earliest": 20, "latest": 23}[reset]
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic(
        TopicConfig(
            name="t",
            replication_factor=1,
            retention=RetentionConfig(retention_seconds=1.0),
            log=LogConfig(segment_max_messages=5),
        )
    )
    for i in range(23):
        cluster.produce("t", 0, [(None, i, None, {})])
    reader = PartitionReader(cluster, reset=reset)
    reader.seed(TP)
    assert reader.positions[TP] == (0 if reset == "earliest" else 23)
    reader.positions[TP] = 3
    cluster.tick(10.0)  # the sweep deletes offsets 0-19
    assert cluster.beginning_offset(TP) == 20

    result = reader.fetch(TP, 100)

    assert [r.offset for r in result.records] == list(range(reseat_at, 23))
    assert reader.positions[TP] == reseat_at
    assert (reader.reseats, reader.skipped) == (1, reseat_at - 3)
    # An in-range fetch neither reseats nor moves the position.
    reader.fetch(TP, 100)
    assert reader.positions[TP] == reseat_at
    assert (reader.reseats, reader.skipped) == (1, reseat_at - 3)
