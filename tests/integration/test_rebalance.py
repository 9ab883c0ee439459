"""Integration: consumer-group elasticity (§3.1, E9's mechanics)."""

from repro.common.clock import SimClock
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer


def make_env(partitions=6, n=120):
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("t", num_partitions=partitions, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
    for i in range(n):
        producer.send("t", {"i": i}, key=f"k{i}")
    gc = GroupCoordinator(cluster)
    return cluster, gc, producer


def new_consumer(cluster, gc, group="g") -> Consumer:
    consumer = Consumer(cluster, ConsumerConfig(group=group), group_coordinator=gc)
    consumer.subscribe(["t"])
    return consumer


class TestScalingUp:
    def test_no_message_lost_or_duplicated_across_scale_up(self):
        cluster, gc, producer = make_env(n=60)
        c1 = new_consumer(cluster, gc)
        got = {id(c1): []}
        # c1 consumes half the stream alone.
        for _ in range(3):
            got[id(c1)].extend(c1.poll(10))
        c1.commit()
        # Scale up: c2 joins, both continue.
        c2 = new_consumer(cluster, gc)
        got[id(c2)] = []
        for _ in range(20):
            got[id(c1)].extend(c1.poll(10))
            got[id(c2)].extend(c2.poll(10))
        everything = got[id(c1)] + got[id(c2)]
        coords = [(r.partition, r.offset) for r in everything]
        # At-least-once across a rebalance (uncommitted records may repeat),
        # but nothing may be missing.
        assert len(set(coords)) == 60

    def test_partitions_split_after_join(self):
        cluster, gc, _producer = make_env()
        c1 = new_consumer(cluster, gc)
        c2 = new_consumer(cluster, gc)
        c1.poll(1)
        assert len(c1.assignment()) == 3
        assert len(c2.assignment()) == 3

    def test_idle_extra_consumers_get_nothing(self):
        cluster, gc, _producer = make_env(partitions=2)
        consumers = [new_consumer(cluster, gc) for _ in range(4)]
        for consumer in consumers:
            consumer.poll(1)
        sizes = sorted(len(c.assignment()) for c in consumers)
        assert sizes == [0, 0, 1, 1]


class TestScalingDown:
    def test_departed_consumers_partitions_reassigned(self):
        cluster, gc, producer = make_env(n=0)
        c1 = new_consumer(cluster, gc)
        c2 = new_consumer(cluster, gc)
        c1.poll(1)
        c2.poll(1)
        # c2 processes some, commits, leaves.
        for i in range(30):
            producer.send("t", {"i": i}, key=f"k{i}")
        c2.poll(100)
        c2.commit()
        c2.close()
        # c1 picks up c2's partitions from the committed offsets.
        remaining = []
        for _ in range(10):
            remaining.extend(c1.poll(50))
        all_coords = {(r.partition, r.offset) for r in remaining}
        committed_away = c2.records_consumed
        assert len(all_coords) == 30 - committed_away

    def test_group_survives_total_turnover(self):
        cluster, gc, _producer = make_env(n=40)
        first = new_consumer(cluster, gc)
        got_first = []
        for _ in range(3):
            got_first.extend(first.poll(10))
        first.commit()
        first.close()
        second = new_consumer(cluster, gc)
        got_second = []
        for _ in range(10):
            got_second.extend(second.poll(10))
        coords = {(r.partition, r.offset) for r in got_first + got_second}
        assert len(coords) == 40
