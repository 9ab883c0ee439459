"""Unit tests for the messaging cluster facade."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    NotEnoughReplicasError,
    TopicAlreadyExistsError,
    TopicNotFoundError,
)
from repro.common.records import EMPTY_HEADERS, Headers, TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, ACKS_NONE, MessagingCluster
from repro.messaging.offset_manager import OFFSETS_TOPIC
from repro.messaging.topic import TopicConfig


def make_cluster(brokers=3, **kwargs) -> MessagingCluster:
    return MessagingCluster(num_brokers=brokers, clock=SimClock(), **kwargs)


def entries(n):
    return [(f"k{i}", {"i": i}, None, {}) for i in range(n)]


class TestTopicAdmin:
    def test_create_by_name(self):
        cluster = make_cluster()
        cluster.create_topic("events", num_partitions=4)
        assert "events" in cluster.topics()
        assert len(cluster.partitions_of("events")) == 4

    def test_create_by_config(self):
        cluster = make_cluster()
        cluster.create_topic(TopicConfig(name="events", num_partitions=2))
        assert len(cluster.partitions_of("events")) == 2

    def test_config_plus_kwargs_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            cluster.create_topic(TopicConfig(name="t"), num_partitions=2)

    def test_duplicate_rejected(self):
        cluster = make_cluster()
        cluster.create_topic("t")
        with pytest.raises(TopicAlreadyExistsError):
            cluster.create_topic("t")

    def test_over_replication_rejected(self):
        cluster = make_cluster(brokers=2)
        with pytest.raises(ConfigError):
            cluster.create_topic("t", replication_factor=3)

    def test_unknown_topic_rejected(self):
        cluster = make_cluster()
        with pytest.raises(TopicNotFoundError):
            cluster.topic_config("nope")

    def test_replicas_spread_across_brokers(self):
        cluster = make_cluster(brokers=3)
        cluster.create_topic("t", num_partitions=3, replication_factor=2)
        leaders = {cluster.leader_of("t", p) for p in range(3)}
        assert len(leaders) == 3  # round-robin placement

    def test_offsets_topic_exists(self):
        cluster = make_cluster()
        assert OFFSETS_TOPIC in cluster.topics()
        assert cluster.topic_config(OFFSETS_TOPIC).compacted


class TestProduceFetch:
    def test_roundtrip(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=1)
        ack = cluster.produce("t", 0, entries(3))
        assert ack.base_offset == 0
        assert ack.last_offset == 2
        result = cluster.fetch("t", 0, 0)
        assert [r.value["i"] for r in result.records] == [0, 1, 2]
        assert result.records[0].topic == "t"
        assert result.latency > 0

    def test_a_reader_cannot_change_the_stored_headers(self):
        """The low-level produce copies the caller's header dict into
        read-only ``Headers``: neither the caller nor a reader can change
        the stored record under the next reader."""
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        sent = {"h": 1}
        cluster.produce(
            "t", 0, [(None, "a", None, sent), (None, "b", None, None)],
            acks=ACKS_ALL,
        )
        sent["h"] = "caller"
        first, second = cluster.fetch("t", 0, 0).records
        assert type(first.headers) is Headers and second.headers is EMPTY_HEADERS
        with pytest.raises(TypeError):
            first.headers["h"] = "reader"
        assert cluster.fetch("t", 0, 0).records[0].headers == {"h": 1}

    def test_unknown_acks_rejected(self):
        cluster = make_cluster()
        cluster.create_topic("t")
        with pytest.raises(ConfigError):
            cluster.produce("t", 0, entries(1), acks="quorum")

    def test_acks_latency_ordering(self):
        """§4.3: more durability, more latency."""
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        none_ack = cluster.produce("t", 0, entries(1), acks=ACKS_NONE)
        leader_ack = cluster.produce("t", 0, entries(1), acks=ACKS_LEADER)
        all_ack = cluster.produce("t", 0, entries(1), acks=ACKS_ALL)
        assert none_ack.latency < leader_ack.latency < all_ack.latency

    def test_acks_all_commits_immediately(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        cluster.produce("t", 0, entries(3), acks=ACKS_ALL)
        records = cluster.fetch("t", 0, 0).records
        assert len(records) == 3  # visible without any tick

    def test_acks_leader_needs_replication_tick(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        cluster.produce("t", 0, entries(3), acks=ACKS_LEADER)
        records = cluster.fetch("t", 0, 0).records
        assert records == []  # HW not advanced yet
        cluster.tick(0.0)
        records = cluster.fetch("t", 0, 0).records
        assert len(records) == 3

    def test_min_insync_enforced(self):
        cluster = make_cluster(brokers=3)
        cluster.create_topic(
            "t", replication_factor=3, min_insync_replicas=3
        )
        leader = cluster.leader_of("t", 0)
        others = [b for b in range(3) if b != leader]
        cluster.kill_broker(others[0])
        with pytest.raises(NotEnoughReplicasError):
            cluster.produce("t", 0, entries(1), acks=ACKS_ALL)
        # acks=leader still works: availability for less durable writes.
        ack = cluster.produce("t", 0, entries(1), acks=ACKS_LEADER)
        assert ack.base_offset >= 0

    def test_produce_to_offline_partition_rejected(self):
        cluster = make_cluster(brokers=1)
        cluster.create_topic("t", replication_factor=1)
        cluster.kill_broker(0)
        with pytest.raises(BrokerUnavailableError):
            cluster.produce("t", 0, entries(1))


class TestAcksAllOfflineIsr:
    """Regression: acks=all must not silently skip crashed ISR members.

    An unclean crash (broker dead, session not yet expired) leaves the
    broker in the ISR.  Pre-fix, ``_replicate_synchronously`` skipped it and
    acked anyway — a failover onto that follower then lost acked data.
    """

    def make_partition(self, min_insync=2):
        cluster = make_cluster(brokers=3)
        cluster.create_topic(
            "t", replication_factor=3, min_insync_replicas=min_insync
        )
        leader = cluster.leader_of("t", 0)
        followers = [b for b in range(3) if b != leader]
        return cluster, leader, followers

    def test_offline_isr_member_is_shrunk_not_skipped(self):
        cluster, leader, followers = self.make_partition()
        # Unclean crash: session stays alive, follower stays in the ISR.
        cluster.broker(followers[0]).shutdown()
        tp = TopicPartition("t", 0)
        assert followers[0] in cluster.controller.partition_state(tp).isr
        ack = cluster.produce("t", 0, entries(2), acks=ACKS_ALL)
        isr = cluster.controller.partition_state(tp).isr
        assert followers[0] not in isr
        # Every remaining ISR member really has the acked records.
        for broker_id in isr:
            replica = cluster.broker(broker_id).replica(tp)
            assert replica.log_end_offset > ack.last_offset

    def test_shrink_below_min_insync_raises(self):
        cluster, leader, followers = self.make_partition(min_insync=2)
        for follower in followers:
            cluster.broker(follower).shutdown()
        with pytest.raises(NotEnoughReplicasError):
            cluster.produce("t", 0, entries(1), acks=ACKS_ALL)

    def test_recovered_follower_catches_up_after_shrink(self):
        cluster, leader, followers = self.make_partition()
        cluster.broker(followers[0]).shutdown()
        cluster.produce("t", 0, entries(3), acks=ACKS_ALL)
        # Session finally expires, machine comes back, replication resumes.
        cluster.controller.broker_failed(followers[0])
        cluster.restart_broker(followers[0])
        cluster.run_until_replicated()
        tp = TopicPartition("t", 0)
        replica = cluster.broker(followers[0]).replica(tp)
        assert replica.log_end_offset == 3
        assert followers[0] in cluster.controller.partition_state(tp).isr


class TestOffsets:
    def test_beginning_and_end(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=1)
        tp = TopicPartition("t", 0)
        assert cluster.beginning_offset(tp) == 0
        assert cluster.end_offset(tp) == 0
        cluster.produce("t", 0, entries(4))
        assert cluster.end_offset(tp) == 4
        assert cluster.log_end_offset(tp) == 4

    def test_offset_for_timestamp(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("t", replication_factor=1)
        for i in range(5):
            cluster.produce("t", 0, [(None, i, float(i * 10), {})])
        tp = TopicPartition("t", 0)
        assert cluster.offset_for_timestamp(tp, 0.0) == 0
        assert cluster.offset_for_timestamp(tp, 25.0) == 3
        assert cluster.offset_for_timestamp(tp, 100.0) is None


class TestFailover:
    def test_kill_moves_leadership(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        old_leader = cluster.leader_of("t", 0)
        cluster.produce("t", 0, entries(5), acks=ACKS_ALL)
        cluster.kill_broker(old_leader)
        new_leader = cluster.leader_of("t", 0)
        assert new_leader is not None and new_leader != old_leader
        # Committed data survives the failover.
        records = cluster.fetch("t", 0, 0).records
        assert len(records) == 5

    def test_kill_is_idempotent(self):
        cluster = make_cluster()
        cluster.kill_broker(1)
        cluster.kill_broker(1)
        assert 1 not in cluster.controller.live_brokers()

    def test_restart_rejoins_isr_after_catchup(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        tp = TopicPartition("t", 0)
        victim = [b for b in range(3) if b != cluster.leader_of("t", 0)][0]
        cluster.kill_broker(victim)
        cluster.produce("t", 0, entries(10), acks=ACKS_LEADER)
        cluster.restart_broker(victim)
        cluster.run_until_replicated()
        assert victim in cluster.controller.isr_for(tp)

    def test_restart_rejoins_a_broker_whose_session_expired_while_up(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        tp = TopicPartition("t", 0)
        cluster.controller.broker_failed(2)
        cluster.produce("t", 0, entries(3), acks=ACKS_ALL)
        for _ in range(5):
            cluster.tick()
        cluster.restart_broker(2)
        cluster.run_until_replicated()
        cluster.tick()
        assert cluster.controller.live_brokers() == {0, 1, 2}
        assert sorted(cluster.controller.isr_for(tp)) == [0, 1, 2]
        assert cluster.broker(2).replica(tp).log_end_offset == 3
        assert cluster.replication.pending() == 0

    def test_restart_expires_the_session_of_an_unclean_crash(self):
        cluster = make_cluster()
        cluster.create_topic("t", replication_factor=3)
        tp = TopicPartition("t", 0)
        victim = [b for b in range(3) if b != cluster.leader_of("t", 0)][0]
        cluster.broker(victim).shutdown()  # no session expiry
        cluster.restart_broker(victim)
        cluster.produce("t", 0, entries(3), acks=ACKS_ALL)
        cluster.run_until_replicated()
        assert victim in cluster.controller.live_brokers()
        assert victim in cluster.controller.isr_for(tp)
        assert cluster.broker(victim).replica(tp).log_end_offset == 3

    def test_unknown_broker_rejected(self):
        with pytest.raises(ConfigError):
            make_cluster().broker(99)


class TestStats:
    def test_stats_shape(self):
        cluster = make_cluster()
        cluster.create_topic("t", num_partitions=2, replication_factor=2)
        cluster.produce("t", 0, entries(3))
        stats = cluster.stats()
        assert stats["brokers"] == 3
        assert stats["topics"] == 2  # includes the offsets topic
        assert stats["partitions"] == 3
        assert stats["replicas"] == 2 * 2 + 3  # topic replicas + offsets rf=3
        assert stats["messages_in"] == 3
