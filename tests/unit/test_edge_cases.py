"""Edge-case tests across subsystems (gaps not covered elsewhere)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import BrokerUnavailableError
from repro.common.records import TopicPartition
from repro.core.etl import MapTask
from repro.core.liquid import Liquid
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.processing.containers import ResourceQuota
from repro.processing.dataflow import Dataflow
from repro.processing.job import JobConfig
from repro.storage.compaction import LogCompactor
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.retention import RetentionConfig, RetentionEnforcer


class TestLogEdges:
    def test_read_below_first_survivor_after_compaction(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=5), clock=clock)
        for i in range(15):
            log.append("same-key", i)
        LogCompactor(clock=clock).compact(log)
        # log_start_offset stays 0 (compaction does not advance it); a read
        # at 0 skips forward to the first survivor.
        assert log.log_start_offset == 0
        batch = log.read(0, max_messages=5).messages
        assert batch[0].offset > 0

    def test_timestamp_lookup_after_retention(self):
        clock = SimClock()
        log = PartitionLog("t-0", LogConfig(segment_max_messages=5), clock=clock)
        for i in range(15):
            log.append("k", i, timestamp=float(i))
            clock.advance(1.0)
        enforcer = RetentionEnforcer(RetentionConfig(retention_seconds=5.0), clock)
        enforcer.enforce(log)
        # A timestamp inside the deleted range maps to the first retained
        # record, not to a phantom offset.
        found = log.offset_for_timestamp(0.0)
        assert found is not None
        assert found >= log.log_start_offset

    def test_merge_sealed_segments_respects_size_bound(self):
        clock = SimClock()
        log = PartitionLog(
            "t-0",
            LogConfig(segment_max_messages=4, segment_max_bytes=10**9),
            clock=clock,
        )
        for i in range(20):
            log.append(f"k{i}", i)  # unique keys: nothing compacts away
        before = log.segment_count
        eliminated = log.merge_sealed_segments()
        # Groups of sealed segments merge up to segment_max_messages=4,
        # which they already individually fill: nothing merges.
        assert eliminated == 0
        assert log.segment_count == before


class TestClusterEdges:
    def test_recover_offset_manager_with_offline_partition(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.kill_broker(0)
        with pytest.raises(BrokerUnavailableError):
            cluster.recover_offset_manager()

    def test_run_until_replicated_terminates_when_idle(self):
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", replication_factor=3)
        passes = cluster.run_until_replicated()
        assert passes <= 2

    def test_fetch_result_fields(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", replication_factor=1)
        Producer(cluster).send("t", 1)
        result = cluster.fetch("t", 0, 0)
        assert [r.value for r in result.records] == [1]
        assert result.latency > 0
        assert result.next_offset == 1

    def test_cold_cache_after_broker_restart_pays_disk(self):
        """Paper 4.1: RAM is lost with the machine; the log is not."""
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", replication_factor=1)
        producer = Producer(cluster)
        for i in range(200):
            producer.send("t", {"data": "x" * 300})
        warm = cluster.fetch("t", 0, 0, max_messages=200).latency
        cluster.kill_broker(0)
        cluster.restart_broker(0)
        cold = cluster.fetch("t", 0, 0, max_messages=200).latency
        assert cold > 5 * warm  # seek + disk read vs. RAM


class TestLiquidEdges:
    def test_run_isolated_quantum_advances_quota_jobs(self):
        liquid = Liquid(num_brokers=1, host_cores=2)
        liquid.create_feed("in-feed", partitions=1)
        liquid.submit_job(
            JobConfig(name="j", inputs=["in-feed"],
                      task_factory=lambda: MapTask("out-feed"),
                      cpu_cost_per_message=1e-3),
            outputs=["out-feed"],
            quota=ResourceQuota(cpu_cores=1.0),
        )
        producer = liquid.producer()
        for i in range(50):
            producer.send("in-feed", i)
        report = liquid.run_isolated_quantum(dt=0.1)
        assert report.processed["j"] > 0

    def test_empty_dataflow_runs(self):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        flow = Dataflow(cluster)
        assert flow.run_until_idle() == 0
        assert flow.stages() == []

    def test_feed_graph_carries_job_attribution(self):
        liquid = Liquid(num_brokers=1)
        liquid.create_feed("a")
        liquid.submit_job(
            JobConfig(name="deriver", inputs=["a"],
                      task_factory=lambda: MapTask("b")),
            outputs=["b"],
        )
        graph = liquid.feeds.graph()
        assert graph.edges[("a", "b")]["job"] == "deriver"

    def test_stats_after_failures_reflect_live_brokers(self):
        liquid = Liquid(num_brokers=3)
        liquid.create_feed("a")
        liquid.kill_broker(1)
        stats = liquid.stats()
        assert stats["brokers"] == 3
        assert stats["live_brokers"] == 2


class TestHighWatermarkVisibility:
    def test_acks_all_then_leader_kill_preserves_read_position(self):
        """A consumer's committed-data view never regresses across failover."""
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", replication_factor=3)
        producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL))
        for i in range(10):
            producer.send("t", i)
        tp = TopicPartition("t", 0)
        hw_before = cluster.end_offset(tp)
        cluster.kill_broker(cluster.leader_of("t", 0))
        hw_after = cluster.end_offset(tp)
        assert hw_after >= hw_before
