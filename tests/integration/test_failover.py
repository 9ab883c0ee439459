"""Integration: availability under broker failures (§4.3, E5's mechanics)."""

import pytest

from repro.cluster.failures import FailureInjector
from repro.common.clock import SimClock
from repro.common.errors import MessagingError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer

TP = TopicPartition("t", 0)


def make_cluster(brokers=3, min_insync=2) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    cluster.create_topic(
        "t", num_partitions=1, replication_factor=brokers,
        min_insync_replicas=min_insync,
    )
    return cluster


class TestLeaderFailover:
    def test_acked_data_survives_leader_crash(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(50):
            producer.send("t", {"i": i})
        cluster.kill_broker(cluster.leader_of("t", 0))
        records = cluster.fetch("t", 0, 0, max_messages=1000).records
        assert [r.value["i"] for r in records] == list(range(50))

    def test_writes_continue_through_n_minus_1_failures(self):
        cluster = make_cluster(brokers=3, min_insync=1)
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL, max_retries=3))
        produced = 0
        for round_no in range(3):
            for i in range(10):
                producer.send("t", {"round": round_no, "i": i})
                produced += 1
            if round_no < 2:
                cluster.kill_broker(cluster.leader_of("t", 0))
        records = cluster.fetch("t", 0, 0, max_messages=1000).records
        assert len(records) == produced  # nothing acked was lost

    def test_all_brokers_down_is_unavailable(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(max_retries=1))
        for broker_id in range(3):
            cluster.kill_broker(broker_id)
        with pytest.raises(MessagingError):
            producer.send("t", "v")

    def test_epoch_fences_consumers_from_stale_reads(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(10):
            producer.send("t", i)
        old_leader = cluster.leader_of("t", 0)
        old_epoch = cluster.controller.epoch_for(TP)
        cluster.kill_broker(old_leader)
        assert cluster.controller.epoch_for(TP) > old_epoch
        # The old leader's replica is offline; fetches go to the new leader.
        new_leader = cluster.leader_of("t", 0)
        assert new_leader != old_leader
        records = cluster.fetch("t", 0, 0).records
        assert len(records) == 10


class TestRecoveryAndCatchup:
    def test_restarted_broker_catches_up_and_rejoins_isr(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_LEADER))
        victim = [b for b in range(3) if b != cluster.leader_of("t", 0)][0]
        cluster.kill_broker(victim)
        for i in range(100):
            producer.send("t", i)
        cluster.tick(0.1)
        assert victim not in cluster.controller.isr_for(TP)
        cluster.restart_broker(victim)
        cluster.run_until_replicated()
        assert victim in cluster.controller.isr_for(TP)
        replica = cluster.broker(victim).replica(TP)
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        assert replica.log_end_offset == leader.log_end_offset

    def test_full_cluster_restart_preserves_log(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(20):
            producer.send("t", i)
        for broker_id in range(3):
            cluster.kill_broker(broker_id)
        for broker_id in range(3):
            cluster.restart_broker(broker_id)
        cluster.run_until_replicated()
        records = cluster.fetch("t", 0, 0, max_messages=100).records
        assert [r.value for r in records] == list(range(20))

    def test_divergent_follower_truncates_and_converges(self):
        cluster = make_cluster(min_insync=1)
        producer = Producer(cluster, ProducerConfig(acks=ACKS_LEADER))
        for i in range(10):
            producer.send("t", i)
        cluster.tick(0.1)
        # Kill the leader; its last writes may not be on the new leader.
        old_leader = cluster.leader_of("t", 0)
        for i in range(5):  # acks=leader writes that never replicate
            cluster.broker(old_leader).replica(TP).append_batch(
                [(None, f"lost-{i}", 0.0, {})]
            )
        cluster.kill_broker(old_leader)
        for i in range(3):
            producer.send("t", f"new-{i}")
        cluster.restart_broker(old_leader)
        cluster.run_until_replicated()
        old_log = [
            m.value for m in cluster.broker(old_leader).replica(TP).log.all_messages()
        ]
        new_leader = cluster.leader_of("t", 0)
        new_log = [
            m.value for m in cluster.broker(new_leader).replica(TP).log.all_messages()
        ]
        assert old_log == new_log
        assert not any(
            isinstance(v, str) and v.startswith("lost-") for v in old_log
        )


class TestScriptedFaults:
    def test_injector_driven_kill_and_recovery(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=3, clock=clock)
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        injector = FailureInjector(clock)
        injector.kill_leader_at(5.0, cluster, "t", 0)
        injector.restart_broker_at(10.0, cluster, 0)

        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL, max_retries=3))
        sent = 0
        for step in range(20):
            cluster.tick(1.0)
            producer.send("t", {"step": step})
            sent += 1
        assert len(injector.events()) >= 1
        cluster.run_until_replicated()
        records = cluster.fetch("t", 0, 0, max_messages=1000).records
        assert len(records) == sent


class TestConsumerContinuity:
    def test_consumer_rides_through_failover(self):
        cluster = make_cluster()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        consumer = Consumer(cluster)
        consumer.assign([TP])
        for i in range(30):
            producer.send("t", i)
        first = consumer.poll(10)
        cluster.kill_broker(cluster.leader_of("t", 0))
        rest = []
        for _ in range(10):
            rest.extend(consumer.poll(10))
        values = [r.value for r in first + rest]
        assert values == list(range(30))
