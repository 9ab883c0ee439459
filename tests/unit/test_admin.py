"""Unit tests for the operational admin client (Figure 1's terminal)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import TopicNotFoundError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.observability.health import evaluate_cluster_health, format_health
from repro.tools.admin import AdminClient, PartitionLag


def make_env(brokers=3):
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    cluster.create_topic("t", num_partitions=2, replication_factor=3)
    return cluster, AdminClient(cluster)


class TestDescribe:
    def test_describe_cluster_shape(self):
        cluster, admin = make_env()
        info = admin.describe_cluster()
        assert info["brokers"] == 3
        assert info["controller"] == 0
        assert info["offline_partitions"] == 0
        # Fresh partitions are pending until a pass has looked at them once.
        assert info["replication_pending"] == 3
        cluster.tick()
        assert admin.describe_cluster()["replication_pending"] == 0

    def test_describe_topic_partitions(self):
        cluster, admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(10):
            producer.send("t", i, partition=0)
        infos = admin.describe_topic("t")
        assert len(infos) == 2
        p0 = infos[0]
        assert p0.online
        assert not p0.under_replicated
        assert p0.high_watermark == 10
        assert p0.log_end_offset == 10
        assert sorted(p0.isr) == sorted(p0.replicas)

    def test_unknown_topic_rejected(self):
        _cluster, admin = make_env()
        with pytest.raises(TopicNotFoundError):
            admin.describe_topic("ghost")

    def test_under_replication_detected(self):
        cluster, admin = make_env()
        victim = [b for b in range(3) if b != cluster.leader_of("t", 0)][0]
        cluster.kill_broker(victim)
        under = admin.under_replicated_partitions()
        assert TopicPartition("t", 0) in under

    def test_format_topic_mentions_state(self):
        cluster, admin = make_env()
        text = admin.format_topic("t")
        assert "Topic: t" in text
        assert "ONLINE" in text


class TestConsumerLag:
    def test_lag_computed_from_commits(self):
        cluster, admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(20):
            producer.send("t", i, partition=0)
        tp = TopicPartition("t", 0)
        cluster.offset_manager.commit("dashboard", tp, 5)
        lags = admin.consumer_lag_report().group("dashboard").partitions
        assert len(lags) == 1
        assert lags[0].lag == 15

    def test_all_group_lags(self):
        cluster, admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(10):
            producer.send("t", i, partition=0)
        tp = TopicPartition("t", 0)
        cluster.offset_manager.commit("fast", tp, 10)
        cluster.offset_manager.commit("slow", tp, 2)
        lags = {g.group: g.total_lag for g in admin.consumer_lag_report().groups}
        assert lags["fast"] == 0
        assert lags["slow"] == 8

    def test_offline_partition_left_out(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("solo", replication_factor=1)
        cluster.offset_manager.commit("g", TopicPartition("solo", 0), 0)
        cluster.kill_broker(0)
        report = AdminClient(cluster).consumer_lag_report()
        assert report.group("g").partitions == ()


class TestHealth:
    """The engineer terminal reads the one health verdict, the rollup."""

    def test_healthy_cluster(self):
        cluster, _admin = make_env()
        report = evaluate_cluster_health(cluster)
        assert report.healthy
        assert "HEALTHY" in format_health(report)

    def test_format_health_five_lines(self):
        cluster, _admin = make_env()
        assert format_health(evaluate_cluster_health(cluster)) == (
            "Brokers: 3/3 live\n"
            "Offline partitions: 0\n"
            "Under-replicated partitions: 0\n"
            "Lagging consumer groups: 0\n"
            "Status: HEALTHY"
        )

    def test_broker_loss_degrades(self):
        cluster, _admin = make_env()
        cluster.kill_broker(2)
        report = evaluate_cluster_health(cluster)
        assert not report.healthy
        assert report.live_brokers == 2
        assert report.under_replicated

    def test_offline_partition_flagged(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("solo", replication_factor=1)
        cluster.kill_broker(0)
        offline = cluster.controller.offline_partitions()
        assert TopicPartition("solo", 0) in offline
        report = evaluate_cluster_health(cluster)
        assert report.offline_partitions == len(offline)
        assert "UNHEALTHY" in format_health(report)

    def test_lagging_group_flagged(self):
        cluster, _admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(50):
            producer.send("t", i, partition=0)
        tp = TopicPartition("t", 0)
        cluster.offset_manager.commit("sleepy", tp, 0)
        report = evaluate_cluster_health(cluster, max_group_lag=10)
        assert any(
            r.code == "consumer_lag" and "'sleepy'" in r.detail
            for r in report.reasons
        )
        assert "Lagging consumer groups: 1" in format_health(report)

    def test_recovery_restores_health(self):
        cluster, _admin = make_env()
        cluster.kill_broker(2)
        cluster.restart_broker(2)
        cluster.run_until_replicated()
        assert evaluate_cluster_health(cluster).healthy


class TestConsumerLagReport:
    def test_report_has_lag_and_rate(self):
        cluster, admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(40):
            producer.send("t", i, partition=0)
        tp = TopicPartition("t", 0)
        # Four commits, 10 offsets per simulated second.
        for offset in (10, 20, 30):
            cluster.offset_manager.commit("etl", tp, offset)
            cluster.clock.advance(1.0)
        report = admin.consumer_lag_report(alpha=1.0)
        assert [g.group for g in report.groups] == ["etl"]
        entry = report.group("etl")
        assert entry.total_lag == 10
        assert entry.consumption_rate == pytest.approx(10.0)
        assert entry.partitions == (
            PartitionLag(
                topic="t", partition=0, committed_offset=30, end_offset=40, lag=10
            ),
        )

    def test_idle_group_has_zero_rate(self):
        cluster, admin = make_env()
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(5):
            producer.send("t", i, partition=0)
        cluster.offset_manager.commit("idle", TopicPartition("t", 0), 0)
        report = admin.consumer_lag_report()
        assert report.group("idle").consumption_rate == 0.0
        assert report.group("idle").total_lag == 5

    def test_deltas_back_the_rate(self):
        cluster, _admin = make_env()
        tp = TopicPartition("t", 0)
        cluster.offset_manager.commit("g", tp, 0)
        cluster.clock.advance(2.0)
        cluster.offset_manager.commit("g", tp, 10)
        deltas = cluster.offset_manager.consumption_deltas("g", tp)
        assert deltas == [(2.0, 10)]
