"""A tick costs what changed (§4.3 at the §5 cardinality).

The paper's brokers hold ~2 000 mostly idle replicas each.  Replication keeps
a pending set, so a pass visits the partitions something marked and a settled
cluster's tick makes the same handful of Python calls however many partitions
it hosts.  Exact counts throughout: nothing here reads a wall clock.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.replication import ReplicationStats
from tests.profiling import python_calls

BROKERS = 6
FOLLOWERS = 2  # rf=3


def settled_cluster(partitions: int) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=BROKERS, clock=SimClock())
    cluster.create_topic("feed", num_partitions=partitions, replication_factor=3)
    settle(cluster)
    return cluster


def settle(cluster) -> None:
    """A copy, then the high watermark, then the pass that finds everyone
    idle: a marked partition is let go a few passes after its last change."""
    for _ in range(4):
        cluster.tick()
    assert cluster.replication.pending() == 0


def visits_in_one_pass(cluster) -> tuple[list[TopicPartition], ReplicationStats]:
    """The partition of every ``_sync_follower`` call one pass makes."""
    replication = cluster.replication
    visited = []
    sync = replication._sync_follower

    def counting(leader_broker, leader_replica, follower_replica, stats):
        visited.append(follower_replica.partition)
        return sync(leader_broker, leader_replica, follower_replica, stats)

    replication._sync_follower = counting
    try:
        stats = replication.poll()
    finally:
        del replication._sync_follower
    return visited, stats


@pytest.fixture(scope="module")
def big() -> MessagingCluster:
    return settled_cluster(2000)


def test_an_idle_tick_makes_the_same_calls_at_20_and_at_2000_partitions(big):
    small = settled_cluster(20)
    assert big.stats()["replicas"] // BROKERS >= 1000
    assert python_calls(big.tick) == python_calls(small.tick)
    # ... while still accounting for every online in-sync pair.
    assert small.tick().partitions_synced == (20 + 1) * FOLLOWERS
    assert big.tick().partitions_synced == (2000 + 1) * FOLLOWERS


def test_a_pass_visits_the_partitions_with_traffic_and_no_others(big):
    busy = [TopicPartition("feed", p) for p in (0, 7, 999, 1999)]
    for tp in busy:
        big.produce(tp.topic, tp.partition, [("k", "v", None, {})], acks=ACKS_LEADER)
    assert big.stats()["replication_pending"] == len(busy)
    visited, stats = visits_in_one_pass(big)
    assert visited == [tp for tp in busy for _ in range(FOLLOWERS)]
    assert stats.messages_copied == len(busy) * FOLLOWERS
    assert stats.partitions_synced == (2000 + 1) * FOLLOWERS
    settle(big)
    assert visits_in_one_pass(big) == ([], ReplicationStats(0, (2000 + 1) * FOLLOWERS))


def test_a_restarted_brokers_partitions_are_all_visited_and_settle_again(big):
    hosted = {replica.partition for replica in big.broker(3).replicas()}
    assert len(hosted) == 2000 * 3 // BROKERS
    big.kill_broker(3)
    settle(big)
    # Down: each partition it hosts is left with one online follower.
    assert big.tick().partitions_synced == (2000 + 1) * FOLLOWERS - len(hosted)
    big.restart_broker(3)
    visited, _stats = visits_in_one_pass(big)
    assert set(visited) == hosted
    assert len(visited) == len(hosted) * FOLLOWERS
    settle(big)
    assert big.tick().partitions_synced == (2000 + 1) * FOLLOWERS
    assert sorted(big.controller.isr_for(TopicPartition("feed", 3))) == [3, 4, 5]
