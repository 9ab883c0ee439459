"""Unit tests for the consumer client."""

from types import SimpleNamespace

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.messaging.topic import TopicConfig


def setup_cluster(partitions=2, n=20):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=3, clock=clock)
    cluster.create_topic("t", num_partitions=partitions, replication_factor=3)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
    for i in range(n):
        producer.send("t", {"i": i}, key=f"k{i % 5}", timestamp=float(i))
    return clock, cluster


class TestManualAssign:
    def test_assign_and_poll_all(self):
        _clock, cluster = setup_cluster()
        consumer = Consumer(cluster)
        consumer.assign(cluster.partitions_of("t"))
        got = []
        while True:
            batch = consumer.poll(100)
            if not batch:
                break
            got.extend(batch)
        assert len(got) == 20
        assert consumer.records_consumed == 20

    def test_assign_after_group_rejected(self):
        _clock, cluster = setup_cluster()
        gc = GroupCoordinator(cluster)
        consumer = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        with pytest.raises(ConfigError):
            consumer.assign(cluster.partitions_of("t"))

    def test_per_partition_order_preserved(self):
        _clock, cluster = setup_cluster(partitions=3, n=30)
        consumer = Consumer(cluster)
        consumer.assign(cluster.partitions_of("t"))
        per_partition: dict[int, list[int]] = {}
        while True:
            batch = consumer.poll(7)
            if not batch:
                break
            for record in batch:
                per_partition.setdefault(record.partition, []).append(record.offset)
        for offsets in per_partition.values():
            assert offsets == sorted(offsets)

    def test_round_robin_avoids_starvation(self):
        _clock, cluster = setup_cluster(partitions=2, n=40)
        consumer = Consumer(cluster)
        consumer.assign(cluster.partitions_of("t"))
        first = consumer.poll(5)
        second = consumer.poll(5)
        touched = {r.partition for r in first + second}
        assert touched == {0, 1}


class TestSeek:
    def test_seek_and_position(self):
        _clock, cluster = setup_cluster(partitions=1)
        tp = TopicPartition("t", 0)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        consumer.seek(tp, 15)
        assert consumer.position(tp) == 15
        batch = consumer.poll(100)
        assert batch[0].offset == 15

    def test_seek_to_beginning_and_end(self):
        _clock, cluster = setup_cluster(partitions=1)
        tp = TopicPartition("t", 0)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        consumer.seek(tp, cluster.end_offset(tp))
        assert consumer.poll(10) == []
        consumer.seek_to_beginning(tp)
        assert consumer.poll(1)[0].offset == 0

    def test_seek_to_timestamp(self):
        _clock, cluster = setup_cluster(partitions=1)
        tp = TopicPartition("t", 0)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        offset = consumer.seek_to_timestamp(tp, 10.0)
        assert offset == 10
        assert consumer.poll(1)[0].timestamp == 10.0

    def test_seek_to_timestamp_past_end(self):
        _clock, cluster = setup_cluster(partitions=1)
        tp = TopicPartition("t", 0)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        offset = consumer.seek_to_timestamp(tp, 1e9)
        assert offset == cluster.end_offset(tp)

    def test_seek_unassigned_rejected(self):
        _clock, cluster = setup_cluster()
        consumer = Consumer(cluster)
        with pytest.raises(ConfigError):
            consumer.seek(TopicPartition("t", 0), 0)


class TestGroupFlow:
    def test_subscribe_requires_coordinator(self):
        _clock, cluster = setup_cluster()
        with pytest.raises(ConfigError):
            Consumer(cluster, ConsumerConfig(group="g"))

    def test_commit_and_resume(self):
        _clock, cluster = setup_cluster(partitions=1)
        gc = GroupCoordinator(cluster)
        consumer = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        consumer.subscribe(["t"])
        consumer.poll(8)
        consumer.commit()
        consumer.close()

        fresh = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        fresh.subscribe(["t"])
        batch = fresh.poll(100)
        assert batch[0].offset == 8

    def test_commit_metadata_visible(self):
        _clock, cluster = setup_cluster(partitions=1)
        gc = GroupCoordinator(cluster)
        consumer = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        consumer.subscribe(["t"])
        consumer.poll(5)
        consumer.commit({"software_version": "v7"})
        tp = TopicPartition("t", 0)
        commit = cluster.offset_manager.offset_for_annotation(
            "g", tp, "software_version", "v7"
        )
        assert commit is not None
        assert commit.offset == consumer.position(tp)

    def test_rebalance_detected_on_poll(self):
        _clock, cluster = setup_cluster(partitions=2)
        gc = GroupCoordinator(cluster)
        first = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        first.subscribe(["t"])
        assert len(first.assignment()) == 2
        second = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        second.subscribe(["t"])
        first.poll(1)  # notices the generation bump
        assert len(first.assignment()) == 1
        assert len(second.assignment()) == 1

    def test_close_triggers_rebalance(self):
        _clock, cluster = setup_cluster(partitions=2)
        gc = GroupCoordinator(cluster)
        a = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        b = Consumer(cluster, ConsumerConfig(group="g"), group_coordinator=gc)
        a.subscribe(["t"])
        b.subscribe(["t"])
        b.close()
        a.poll(1)
        assert len(a.assignment()) == 2

    def test_closed_consumer_rejects_poll(self):
        _clock, cluster = setup_cluster()
        consumer = Consumer(cluster)
        consumer.assign(cluster.partitions_of("t"))
        consumer.close()
        with pytest.raises(ConfigError):
            consumer.poll()


class TestAutoOffsetReset:
    def test_latest_starts_at_end(self):
        _clock, cluster = setup_cluster(partitions=1)
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="latest"))
        consumer.assign([TopicPartition("t", 0)])
        assert consumer.poll(10) == []

    def test_invalid_policy_rejected(self):
        _clock, cluster = setup_cluster()
        with pytest.raises(ConfigError):
            Consumer(cluster, ConsumerConfig(auto_offset_reset="nearest"))

    def test_position_reset_after_retention(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic(
            TopicConfig(
                name="t",
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=1.0),
                log=LogConfig(segment_max_messages=5),
            )
        )
        producer = Producer(cluster)
        for i in range(20):
            producer.send("t", i)
        tp = TopicPartition("t", 0)
        consumer = Consumer(cluster)
        consumer.assign([tp])
        # Retention fires and deletes old segments under the consumer.
        clock.advance(100.0)
        cluster.broker(0).run_retention()
        assert cluster.beginning_offset(tp) > 0
        batch = consumer.poll(5)  # first poll resets, second reads
        if not batch:
            batch = consumer.poll(5)
        assert batch[0].offset == cluster.beginning_offset(tp)


class TestPrefetchOverlap:
    RECORDS = 600

    def _drain(self, prefetch: bool):
        """Drain one compressed partition in 100-record polls, 'processing'
        each poll for 0.1 simulated ms; returns (records, summed latency)."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=3)
        producer = Producer(
            cluster,
            ProducerConfig(
                acks=ACKS_LEADER, linger_messages=50, compression="zlib:6"
            ),
        )
        for i in range(self.RECORDS):
            producer.send(
                "t", {"i": i, "page": f"/feed/updates/{i % 20}"}, key=f"k{i % 50}"
            )
        producer.flush()
        cluster.run_until_replicated()
        consumer = Consumer(
            cluster,
            ConsumerConfig(
                auto_offset_reset="earliest",
                max_poll_messages=100,
                prefetch=prefetch,
            ),
        )
        consumer.assign([TopicPartition("t", 0)])
        records, latency = [], 0.0
        while len(records) < self.RECORDS:
            records.extend(consumer.poll())
            latency += consumer.last_poll_latency
            # The application's processing time: what fetch N+1 overlaps.
            cluster.clock.advance(1e-4)
        return records, latency

    def test_prefetch_delivers_the_same_records_at_lower_latency(self):
        sync_records, sync_latency = self._drain(prefetch=False)
        ahead_records, ahead_latency = self._drain(prefetch=True)
        assert ahead_records == sync_records
        assert len(ahead_records) == self.RECORDS
        assert ahead_latency < sync_latency

    def test_prefetched_remainders_group_by_broker(self):
        """A poll that drains four prefetched buffers, from partitions led by
        brokers [0, 1, 2, 0], owes each fetch's unoverlapped remainder and
        pays them as one round: broker 0's two remainders queue, the other
        brokers' overlap them."""
        cluster, fetched = _four_partitions(brokers=3, records=20)
        consumer = Consumer(
            cluster,
            ConsumerConfig(
                auto_offset_reset="earliest", max_poll_messages=10, prefetch=True
            ),
        )
        consumer.assign(cluster.partitions_of("t"))
        # Each poll takes one partition's first ten records, and the drained
        # response issues that partition's next fetch ahead of demand.
        for _ in range(4):
            assert len(consumer.poll()) == 10
        # Each of those polls made a synchronous fetch, then a prefetch.
        assert len(fetched) == 8
        prefetched = {result.tp: result for result in fetched[1::2]}
        assert len(prefetched) == 4
        cluster.clock.advance(1e-4)  # the application works on what it got
        now = cluster.clock.now()
        records = consumer.poll(40)
        assert len(records) == 40
        assert len(fetched) == 12  # no synchronous fetch; four new prefetches
        owed = {}
        for tp in cluster.partitions_of("t"):
            result = prefetched[tp]
            assert 0.0 < now - result.issued_at < result.latency
            owed[result.broker] = owed.get(result.broker, 0.0) + (
                result.latency - (now - result.issued_at)
            )
        assert consumer.last_poll_latency == max(owed.values())
        assert consumer.last_poll_latency < sum(owed.values())


def _four_partitions(brokers, records, compression="none"):
    """A four-partition topic on ``brokers`` brokers (leaders ``[0, 1, 2,
    0]`` on three) holding ``records`` records per partition, and the list
    every later ``cluster.fetch`` appends its request to: partition,
    serving broker, latency, issue time and the inflate CPU of its frames."""
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    cluster.create_topic("t", num_partitions=4, replication_factor=1)
    assert [cluster.leader_of("t", p) for p in range(4)] == [
        p % brokers for p in range(4)
    ]
    producer = Producer(
        cluster, ProducerConfig(linger_messages=25, compression=compression)
    )
    for p in range(4):
        for i in range(records):
            producer.send("t", {"i": i, "page": f"/p/{i % 7}"}, partition=p)
    producer.flush()
    return cluster, _record_fetches(cluster)


def _record_fetches(cluster):
    fetched = []
    fetch = cluster.fetch

    def recorded(topic, partition, *args, **kwargs):
        issued_at = cluster.clock.now()
        result = fetch(topic, partition, *args, **kwargs)
        fetched.append(SimpleNamespace(
            tp=TopicPartition(topic, partition),
            broker=result.broker,
            latency=result.latency,
            issued_at=issued_at,
            inflate=[
                cluster.cost_model.decompress(batch.frame.payload_bytes)
                for batch in result.batches or ()
                if batch.frame is not None
            ],
        ))
        return result

    cluster.fetch = recorded
    return fetched


class TestPollIsOneRound:
    """A poll's fetches are one client round: one request in flight per
    broker, so requests to different brokers overlap, and the poll's
    fetches to one broker are one request, paying the broker's dispatch and
    the round trip once."""

    def test_a_poll_costs_its_slowest_broker_plus_inflate(self):
        cluster, fetched = _four_partitions(3, 50, compression="zlib:6")
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="earliest"))
        consumer.assign(cluster.partitions_of("t"))
        assert len(consumer.poll(200)) == 200
        assert [result.broker for result in fetched] == [0, 1, 2, 0]
        model = cluster.cost_model
        fixed = model.request_overhead + model.network_rtt
        per_broker = {}
        whole = {}
        inflate = 0.0
        for result in fetched:
            latency = result.latency
            whole[result.broker] = whole.get(result.broker, 0.0) + latency
            if result.broker in per_broker:
                latency -= fixed  # broker 0's second fetch joins its first
            per_broker[result.broker] = per_broker.get(result.broker, 0.0) + latency
            drained = 0.0
            for latency in result.inflate:
                drained += latency
            inflate += drained
        assert inflate > 0.0
        assert consumer.last_poll_latency == max(per_broker.values()) + inflate
        # Broker 0 is slowest either way, and its two fetches are one request.
        assert max(whole.values()) == whole[0]
        assert consumer.last_poll_latency == pytest.approx(
            whole[0] - fixed + inflate, rel=1e-12
        )
        assert consumer.last_poll_latency < (
            sum(result.latency for result in fetched) + inflate
        )

    def test_on_one_broker_a_poll_costs_the_serial_sum(self):
        """On one broker the four fetches are one request: their serial sum
        less the dispatch and round trip three of them no longer pay."""
        cluster, fetched = _four_partitions(1, 50, compression="zlib:6")
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="earliest"))
        consumer.assign(cluster.partitions_of("t"))
        assert len(consumer.poll(200)) == 200
        assert len(fetched) == 4
        model = cluster.cost_model
        serial = sum(r.latency + sum(r.inflate) for r in fetched)
        shared = 3 * (model.request_overhead + model.network_rtt)
        assert consumer.last_poll_latency == pytest.approx(serial - shared, rel=1e-12)

    def test_one_fetch_per_broker_costs_the_slowest_to_the_bit(self):
        """One fetch per broker: nothing is shared, so the poll costs exactly
        what it did before requests were merged."""
        cluster, fetched = _four_partitions(3, 50)
        consumer = Consumer(cluster, ConsumerConfig(auto_offset_reset="earliest"))
        consumer.assign(cluster.partitions_of("t")[:3])
        assert len(consumer.poll(150)) == 150
        assert [result.broker for result in fetched] == [0, 1, 2]
        assert consumer.last_poll_latency == max(r.latency for r in fetched)
