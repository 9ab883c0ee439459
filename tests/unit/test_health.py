"""Cluster health rollup: one status, machine-readable reasons."""

import dataclasses

from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.observability.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    evaluate_cluster_health,
)


def make_cluster(brokers=3, replication=3):
    cluster = MessagingCluster(num_brokers=brokers)
    cluster.create_topic(
        "events", num_partitions=2, replication_factor=replication
    )
    return cluster


class TestHealthyCluster:
    def test_idle_cluster_is_healthy(self):
        report = evaluate_cluster_health(make_cluster())
        assert report.status == HEALTHY
        assert report.healthy
        assert report.reasons == ()
        assert report.live_brokers == 3
        assert report.total_brokers == 3

    def test_as_dict_round_trip(self):
        report = evaluate_cluster_health(make_cluster())
        payload = dataclasses.asdict(report)
        assert payload["status"] == HEALTHY
        assert payload["reasons"] == ()
        assert payload["live_brokers"] == 3
        assert list(payload) == [
            "status", "reasons", "checked_at", "live_brokers",
            "total_brokers", "offline_partitions", "under_replicated",
            "max_group_lag", "open_transactions", "lso_lag",
            "max_standby_staleness",
        ]


class TestDegradation:
    def test_dead_broker_degrades(self):
        cluster = make_cluster()
        cluster.kill_broker(1)
        report = evaluate_cluster_health(cluster)
        assert report.status == DEGRADED
        codes = report.reason_codes()
        assert "dead_brokers" in codes
        assert "under_replicated_partitions" in codes

    def test_all_brokers_down_is_unhealthy(self):
        cluster = make_cluster(brokers=1, replication=1)
        cluster.kill_broker(0)
        report = evaluate_cluster_health(cluster)
        assert report.status == UNHEALTHY
        assert "no_live_brokers" in report.reason_codes()
        assert "offline_partitions" in report.reason_codes()

    def test_offline_partition_with_committed_group(self):
        # Regression: a group committed on a partition that then lost its
        # only replica used to crash the lag rule (no leader, no high
        # watermark).  The partition is reported offline instead.
        cluster = MessagingCluster(num_brokers=1)
        cluster.create_topic("solo", replication_factor=1)
        cluster.offset_manager.commit("readers", TopicPartition("solo", 0), 0)
        cluster.kill_broker(0)
        report = evaluate_cluster_health(cluster)
        assert report.status == UNHEALTHY
        assert report.offline_partitions >= 1
        assert "offline_partitions" in report.reason_codes()
        assert "consumer_lag" not in report.reason_codes()
        assert report.max_group_lag == 0

    def test_worst_reason_wins(self):
        cluster = make_cluster(brokers=3, replication=1)
        # Kill whichever broker leads partition 0: its partition goes
        # offline (unhealthy) while the cluster also has a dead broker
        # (degraded) — the rollup must report unhealthy.
        leader = cluster.controller.partition_state(
            cluster.partitions_of("events")[0]
        ).leader
        cluster.kill_broker(leader)
        report = evaluate_cluster_health(cluster)
        assert report.status == UNHEALTHY

    def test_consumer_lag_degrades(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(50):
            producer.send("events", {"i": i}, partition=0)
        producer.flush()
        cluster.run_until_replicated()
        cluster.offset_manager.commit("readers", TopicPartition("events", 0), 0)
        report = evaluate_cluster_health(cluster, max_group_lag=10)
        assert report.status == DEGRADED
        assert "consumer_lag" in report.reason_codes()
        assert report.max_group_lag == 50

    def test_system_groups_do_not_trip_lag(self):
        cluster = make_cluster()
        producer = Producer(cluster)
        for i in range(50):
            producer.send("events", {"i": i}, partition=0)
        producer.flush()
        cluster.run_until_replicated()
        cluster.offset_manager.commit("__mirror", TopicPartition("events", 0), 0)
        report = evaluate_cluster_health(cluster, max_group_lag=10)
        assert report.status == HEALTHY

    def test_standby_staleness_reported(self):
        from repro.messaging.cluster import MessagingCluster
        from repro.processing.job import JobConfig, JobRunner, StoreConfig

        class _Counting:
            def init(self, context):
                self.store = context.store("counts")

            def process(self, record, collector):
                self.store.put(record.key, (self.store.get(record.key) or 0) + 1)

        cluster = MessagingCluster(num_brokers=1)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        producer = Producer(cluster)
        for i in range(30):
            producer.send("in", {"i": i}, key=f"k{i % 3}")
        runner = JobRunner(
            JobConfig(
                name="job",
                inputs=["in"],
                task_factory=_Counting,
                stores=[StoreConfig("counts")],
                num_standby_replicas=1,
                checkpoint_interval=1000,  # standbys never warm
            ),
            cluster,
            max_fetch_per_partition=3,  # ten passes: 30 changelog records
        )
        runner.run_until_idle()
        report = evaluate_cluster_health(
            cluster, runners=[runner], max_standby_staleness=5
        )
        assert report.max_standby_staleness > 5
        assert "standby_staleness" in report.reason_codes()
        assert report.status == DEGRADED

    def test_offline_changelog_is_reported_offline_not_raised(self):
        from repro.common.clock import SimClock
        from repro.processing.job import JobConfig, JobRunner, StoreConfig
        from repro.processing.state import changelog_topic_name

        class _Counting:
            def init(self, context):
                self.store = context.store("counts")

            def process(self, record, collector):
                self.store.put(record.key, (self.store.get(record.key) or 0) + 1)

        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("in", num_partitions=3, replication_factor=3)
        producer = Producer(cluster)
        for i in range(30):
            producer.send("in", {"i": i}, key=f"k{i % 6}")
        runner = JobRunner(
            JobConfig(
                name="job",
                inputs=["in"],
                task_factory=_Counting,
                stores=[StoreConfig("counts")],
                changelog_replication=1,
                num_standby_replicas=1,
            ),
            cluster,
        )
        runner.run_until_idle()
        runner.checkpoint()
        changelog = TopicPartition(changelog_topic_name("job", "counts"), 0)
        cluster.kill_broker(cluster.controller.leader_for(changelog))
        without = evaluate_cluster_health(cluster)
        # The standby's lag used to raise BrokerUnavailableError here.
        report = evaluate_cluster_health(cluster, runners=[runner])
        assert report.status == UNHEALTHY
        assert "offline_partitions" in report.reason_codes()
        assert report.offline_partitions == without.offline_partitions == 1
        assert report.reason_codes() == without.reason_codes()
        assert report.max_standby_staleness == 0


class TestTransactions:
    def test_open_transaction_lso_lag_degrades(self):
        from repro.messaging.transactions import TransactionalProducer

        cluster = make_cluster(brokers=1, replication=1)
        producer = TransactionalProducer(cluster, "txn-1")
        producer.begin()
        for i in range(20):
            producer.send("events", {"i": i}, partition=0)
        # Never committed: records sit above the LSO.
        report = evaluate_cluster_health(cluster, max_lso_lag=5)
        assert report.open_transactions == 1
        assert report.lso_lag >= 20
        assert "transaction_lso_lag" in report.reason_codes()
        assert report.status == DEGRADED
