"""Unit tests for messaging-layer client quotas (§4.5 multi-tenancy)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.messaging.quotas import ClientQuota, QuotaManager


def make_manager(window=1.0) -> tuple[SimClock, QuotaManager]:
    clock = SimClock()
    return clock, QuotaManager(clock, window_seconds=window)


class TestQuotaManager:
    def test_unknown_client_never_throttled(self):
        _clock, manager = make_manager()
        assert manager.record_produce("anon", 10**9) == 0.0
        assert manager.record_produce(None, 10**9) == 0.0

    def test_under_quota_no_delay(self):
        _clock, manager = make_manager()
        manager.set_quota("app", ClientQuota(produce_bytes_per_sec=1000))
        assert manager.record_produce("app", 500) == 0.0

    def test_over_quota_delay_matches_formula(self):
        _clock, manager = make_manager(window=1.0)
        manager.set_quota("app", ClientQuota(produce_bytes_per_sec=1000))
        delay = manager.record_produce("app", 3000)
        # 3000 bytes over a (1.0 + delay)s window == 1000 B/s -> delay = 2.0
        assert delay == pytest.approx(2.0)
        assert manager.throttle_events == 1

    def test_rate_window_slides(self):
        clock, manager = make_manager(window=1.0)
        manager.set_quota("app", ClientQuota(produce_bytes_per_sec=1000))
        manager.record_produce("app", 900)
        clock.advance(2.0)  # old sample expires
        assert manager.record_produce("app", 900) == 0.0

    def test_produce_and_fetch_tracked_separately(self):
        _clock, manager = make_manager()
        manager.set_quota(
            "app",
            ClientQuota(produce_bytes_per_sec=100, fetch_bytes_per_sec=10**9),
        )
        assert manager.record_fetch("app", 10**6) == 0.0
        assert manager.record_produce("app", 10**4) > 0.0

    def test_observed_rates(self):
        clock, manager = make_manager(window=2.0)
        manager.set_quota("app", ClientQuota(produce_bytes_per_sec=10**9))
        manager.record_produce("app", 1000)
        assert manager.observed_produce_rate("app") == pytest.approx(500.0)
        assert manager.observed_fetch_rate("app") == 0.0

    def test_remove_quota(self):
        _clock, manager = make_manager()
        manager.set_quota("app", ClientQuota(produce_bytes_per_sec=1))
        manager.remove_quota("app")
        assert manager.record_produce("app", 10**6) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClientQuota(produce_bytes_per_sec=0)
        with pytest.raises(ConfigError):
            make_manager(window=0)
        _clock, manager = make_manager()
        with pytest.raises(ConfigError):
            manager.set_quota("", ClientQuota())


class TestClusterIntegration:
    def _cluster(self) -> MessagingCluster:
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        return cluster

    def test_throttled_producer_pays_latency(self):
        cluster = self._cluster()
        cluster.quotas.set_quota("hog", ClientQuota(produce_bytes_per_sec=100))
        fast = Producer(cluster, ProducerConfig(client_id=None))
        slow = Producer(cluster, ProducerConfig(client_id="hog"))
        payload = {"data": "x" * 500}
        fast_latency = fast.send("t", payload).latency
        slow_latency = slow.send("t", payload).latency
        assert slow_latency > 2 * fast_latency

    def test_other_clients_unaffected_by_hogs_quota(self):
        cluster = self._cluster()
        cluster.quotas.set_quota("hog", ClientQuota(produce_bytes_per_sec=10))
        hog = Producer(cluster, ProducerConfig(client_id="hog"))
        neighbour = Producer(cluster, ProducerConfig(client_id="polite"))
        hog.send("t", {"data": "x" * 1000})
        latency = neighbour.send("t", {"data": "y"}).latency
        assert latency < 0.01  # normal intra-DC produce cost

    def test_throttled_consumer_pays_latency(self):
        cluster = self._cluster()
        producer = Producer(cluster)
        for i in range(50):
            producer.send("t", {"data": "x" * 200})
        cluster.tick(0.0)
        cluster.quotas.set_quota("reader", ClientQuota(fetch_bytes_per_sec=100))
        from repro.common.records import TopicPartition

        throttled = Consumer(cluster, ConsumerConfig(client_id="reader"))
        throttled.assign([TopicPartition("t", 0)])
        throttled.poll(50)
        unlimited = Consumer(cluster)
        unlimited.assign([TopicPartition("t", 0)])
        unlimited.poll(50)
        assert throttled.last_poll_latency > 10 * unlimited.last_poll_latency
