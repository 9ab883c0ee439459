"""Integration: the offset manager's own durability (§3.1).

The paper calls the offset manager "highly-available"; in this
implementation (as in Kafka) that comes from storing commits in an internal
*compacted* topic.  These tests kill the in-memory manager state and rebuild
it from that topic, including after compaction and broker failure.
"""

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.offset_manager import OFFSETS_TOPIC
from repro.messaging.producer import Producer


def make_cluster() -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=2, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
    for i in range(40):
        producer.send("t", {"i": i}, key=f"k{i}")
    return cluster


class TestRecovery:
    def test_latest_commits_recovered_from_internal_topic(self):
        cluster = make_cluster()
        tp0 = TopicPartition("t", 0)
        tp1 = TopicPartition("t", 1)
        cluster.offset_manager.commit("g", tp0, 5, {"software_version": "v1"})
        cluster.offset_manager.commit("g", tp0, 9, {"software_version": "v2"})
        cluster.offset_manager.commit("g", tp1, 3)
        # Simulate an offset-manager restart: wipe and replay.
        recovered = cluster.recover_offset_manager()
        assert recovered == 3
        assert cluster.offset_manager.fetch("g", tp0).offset == 9
        assert cluster.offset_manager.fetch("g", tp0).metadata == {
            "software_version": "v2"
        }
        assert cluster.offset_manager.fetch("g", tp1).offset == 3

    def test_recovery_after_compaction_keeps_only_latest(self):
        cluster = make_cluster()
        tp0 = TopicPartition("t", 0)
        commits = 2500  # rolls the internal topic's 1000-record segments
        for offset in range(commits):
            cluster.offset_manager.commit("busy-group", tp0, offset)
        cluster.tick(0.0)
        for broker in cluster.brokers():
            broker.run_compaction()
        recovered = cluster.recover_offset_manager()
        assert cluster.offset_manager.fetch("busy-group", tp0).offset == commits - 1
        # Compaction emptied the sealed segments (all superseded by the
        # latest commit); only the active segment's tail replays.
        assert recovered < commits / 2

    def test_consumers_resume_correctly_after_manager_recovery(self):
        cluster = make_cluster()
        gc = GroupCoordinator(cluster)
        consumer = Consumer(
            cluster, ConsumerConfig(group="readers"), group_coordinator=gc
        )
        consumer.subscribe(["t"])
        first = consumer.poll(10)
        consumer.commit()
        consumer.close()
        consumed = {(r.partition, r.offset) for r in first}

        cluster.recover_offset_manager()

        fresh = Consumer(cluster, ConsumerConfig(group="readers"), group_coordinator=gc)
        fresh.subscribe(["t"])
        rest = []
        for _ in range(20):
            batch = fresh.poll(20)
            if not batch:
                break
            rest.extend(batch)
        rest_coords = {(r.partition, r.offset) for r in rest}
        assert consumed.isdisjoint(rest_coords)
        assert len(consumed | rest_coords) == 40

    def test_offsets_topic_survives_broker_failure(self):
        cluster = make_cluster()
        tp0 = TopicPartition("t", 0)
        cluster.offset_manager.commit("g", tp0, 7)
        cluster.run_until_replicated()
        offsets_leader = cluster.leader_of(OFFSETS_TOPIC, 0)
        cluster.kill_broker(offsets_leader)
        recovered = cluster.recover_offset_manager()
        assert recovered >= 1
        assert cluster.offset_manager.fetch("g", tp0).offset == 7
