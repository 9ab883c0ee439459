"""Unit tests for the elasticity layer: sensor, policy, controller."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.elasticity import (
    SCALE_IN,
    SCALE_NONE,
    SCALE_OUT,
    ElasticJobController,
    Ewma,
    LagMonitor,
    LagSample,
    ScalingPolicy,
)
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner


class PassThrough:
    def process(self, record, collector):
        collector.send("out", record.value, key=record.key,
                       partition=record.partition, timestamp=record.timestamp)


def make_cluster(partitions=4, brokers=3):
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    cluster.create_topic("in", num_partitions=partitions,
                         replication_factor=min(3, brokers))
    cluster.create_topic("out", num_partitions=partitions,
                         replication_factor=min(3, brokers))
    return cluster


def produce(cluster, n, partitions=4):
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", f"v{i}", partition=i % partitions)
    producer.flush()


def make_runner(cluster, cpu_cost=0.005, name="elastic"):
    return JobRunner(
        JobConfig(name=name, inputs=["in"], task_factory=PassThrough,
                  cpu_cost_per_message=cpu_cost),
        cluster,
    )


def sample(at, lag, rate=0.0):
    return LagSample(at=at, lag_by_partition={TopicPartition("in", 0): lag},
                     rate=rate)


class TestEwma:
    def test_first_update_seeds(self):
        ewma = Ewma(0.5)
        assert not ewma.primed
        assert ewma.value == 0.0
        assert ewma.update(10.0) == 10.0
        assert ewma.primed

    def test_smooths_towards_samples(self):
        ewma = Ewma(0.5)
        ewma.update(0.0)
        ewma.update(10.0)
        assert ewma.value == 5.0
        ewma.update(10.0)
        assert ewma.value == 7.5

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            Ewma(0.0)
        with pytest.raises(ConfigError):
            Ewma(1.5)


class TestLagMonitor:
    def test_unconsumed_backlog_is_all_lag(self):
        cluster = make_cluster()
        produce(cluster, 40)
        monitor = LagMonitor(cluster, "g", ["in"])
        observed = monitor.observe()
        assert observed.total_lag == 40
        assert observed.max_partition_lag == 10

    def test_commits_shrink_lag(self):
        cluster = make_cluster()
        produce(cluster, 40)
        monitor = LagMonitor(cluster, "g", ["in"])
        monitor.observe()
        for tp in cluster.partitions_of("in"):
            cluster.offset_manager.commit("g", tp, 10)
        assert monitor.observe().total_lag == 0

    def test_rate_ewma_tracks_progress(self):
        cluster = make_cluster()
        produce(cluster, 40)
        monitor = LagMonitor(cluster, "g", ["in"], alpha=1.0)
        monitor.observe()
        for tp in cluster.partitions_of("in"):
            cluster.offset_manager.commit("g", tp, 5)
        cluster.clock.advance(2.0)
        observed = monitor.observe()
        assert observed.rate == pytest.approx(10.0)  # 20 records / 2 s

    def test_same_instant_sample_feeds_no_rate(self):
        cluster = make_cluster()
        produce(cluster, 8)
        monitor = LagMonitor(cluster, "g", ["in"])
        monitor.observe()
        monitor.observe()
        assert not monitor.rate_ewma.primed

    def test_offline_partition_holds_last_lag(self):
        cluster = make_cluster(partitions=1)
        produce(cluster, 30, partitions=1)
        monitor = LagMonitor(cluster, "g", ["in"])
        before = monitor.observe()
        assert before.total_lag == 30
        tp = TopicPartition("in", 0)
        state = cluster.controller.partition_state(tp)
        for broker_id in list(state.replicas):
            cluster.kill_broker(broker_id)
        held = monitor.observe()
        assert held.lag_by_partition[tp] == 30

    def test_monitor_needs_topics(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            LagMonitor(cluster, "g", [])

    def test_for_job_reads_live_positions(self):
        cluster = make_cluster()
        produce(cluster, 40)
        runner = make_runner(cluster)
        monitor = LagMonitor.for_job(runner)
        assert monitor.observe().total_lag == 40
        runner.poll_once(max_messages=5)  # per-task budget: 4 tasks x 5
        after = monitor.observe()
        assert after.total_lag == 20


class TestScalingPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScalingPolicy(min_containers=0)
        with pytest.raises(ConfigError):
            ScalingPolicy(min_containers=4, max_containers=2)
        with pytest.raises(ConfigError):
            ScalingPolicy(scale_out_lag=10.0, scale_in_lag=10.0)
        with pytest.raises(ConfigError):
            ScalingPolicy(breach_observations=0)
        with pytest.raises(ConfigError):
            ScalingPolicy(cooldown=-1.0)
        with pytest.raises(ConfigError):
            ScalingPolicy(step=0)

    def test_single_breach_does_not_scale(self):
        policy = ScalingPolicy(breach_observations=2)
        assert policy.decide(1, sample(0.0, 1000)).action == SCALE_NONE

    def test_persistent_breach_scales_out(self):
        policy = ScalingPolicy(breach_observations=2)
        policy.decide(1, sample(0.0, 1000))
        decision = policy.decide(1, sample(1.0, 1000))
        assert decision.action == SCALE_OUT
        assert decision.to_containers == 2

    def test_cooldown_blocks_consecutive_scales(self):
        policy = ScalingPolicy(breach_observations=1, cooldown=5.0)
        assert policy.decide(1, sample(0.0, 1000)).action == SCALE_OUT
        blocked = policy.decide(2, sample(1.0, 1000))
        assert blocked.action == SCALE_NONE
        assert blocked.reason == "cooldown"
        assert policy.decide(2, sample(6.0, 1000)).action == SCALE_OUT

    def test_bounded_by_max_containers(self):
        policy = ScalingPolicy(max_containers=2, breach_observations=1,
                               cooldown=0.0)
        policy.decide(1, sample(0.0, 1000))
        decision = policy.decide(2, sample(1.0, 1000))
        assert decision.action == SCALE_NONE
        assert decision.reason == "at max_containers"

    def test_low_lag_scales_in_to_min(self):
        policy = ScalingPolicy(breach_observations=1, cooldown=0.0)
        decision = policy.decide(3, sample(0.0, 0))
        assert decision.action == SCALE_IN
        assert decision.to_containers == 2
        assert policy.decide(1, sample(1.0, 0)).action == SCALE_NONE

    def test_shrink_that_would_rebreach_is_held(self):
        """A scale-in that would immediately re-cross the out threshold is vetoed."""
        policy = ScalingPolicy(min_containers=1, max_containers=8,
                               scale_out_lag=100.0, scale_in_lag=20.0,
                               breach_observations=1, cooldown=0.0, step=7)
        # 150 lag / 8 containers = 18.75 < 20: scale-in band.  But the
        # step-7 shrink would land at 1 container with 150 > 100 lag.
        decision = policy.decide(8, sample(0.0, 150))
        assert decision.action == SCALE_NONE
        assert decision.reason == "shrink would re-breach"

    def test_safe_shrink_proceeds(self):
        policy = ScalingPolicy(min_containers=1, max_containers=8,
                               scale_out_lag=100.0, scale_in_lag=20.0,
                               breach_observations=1, cooldown=0.0)
        decision = policy.decide(8, sample(0.0, 150))
        assert decision.action == SCALE_IN
        assert decision.to_containers == 7

    def test_replayable_decision_sequence(self):
        """Identical observation sequences yield identical decisions."""
        observations = [sample(float(i), lag)
                        for i, lag in enumerate([500, 500, 50, 10, 10, 800, 800])]

        def run():
            policy = ScalingPolicy(breach_observations=2, cooldown=0.0)
            containers = 1
            out = []
            for observed in observations:
                decision = policy.decide(containers, observed)
                containers = decision.to_containers
                out.append((decision.action, decision.to_containers))
            return out

        assert run() == run()


class TestElasticController:
    def test_scales_out_under_backlog_and_back_when_drained(self):
        cluster = make_cluster()
        produce(cluster, 2000)
        runner = make_runner(cluster)
        controller = ElasticJobController(
            runner,
            ScalingPolicy(max_containers=4, scale_out_lag=100.0,
                          scale_in_lag=10.0, cooldown=1.0),
            quantum=0.25,
        )
        controller.run_until_drained()
        actions = [event.action for event in controller.events]
        assert SCALE_OUT in actions
        assert SCALE_IN in actions
        assert runner.backlog() == 0
        assert max(e.to_containers for e in controller.events) > 1

    def test_sticky_placement_moves_minimum(self):
        cluster = make_cluster()
        produce(cluster, 2000)
        runner = make_runner(cluster)
        controller = ElasticJobController(runner, quantum=0.25)
        before = controller.assignment()
        moved = controller._rebalance_containers(2)
        controller.containers = 2
        after = controller.assignment()
        assert sorted(moved) == moved
        # Tasks not moved stayed on container 0.
        for task_id in before[0]:
            if task_id not in moved:
                assert task_id in after[0]
        assert len(moved) == 2  # 4 tasks, 1 -> 2 containers: exactly half move

    def test_migration_preserves_output_bytes(self):
        """Elastic run output equals a plain static run, byte for byte."""
        def run_elastic():
            cluster = make_cluster()
            produce(cluster, 1200)
            runner = make_runner(cluster)
            controller = ElasticJobController(
                runner,
                ScalingPolicy(max_containers=4, scale_out_lag=50.0,
                              scale_in_lag=5.0, cooldown=0.5),
                quantum=0.25,
            )
            controller.run_until_drained()
            assert controller.events, "expected at least one scale event"
            return cluster

        def run_static():
            cluster = make_cluster()
            produce(cluster, 1200)
            runner = make_runner(cluster)
            runner.run_until_idle()
            return cluster

        def dump(cluster):
            out = []
            for partition in range(4):
                result = cluster.fetch("out", partition, 0, 10_000)
                out.append([
                    (r.offset, r.key, r.value, r.timestamp)
                    for r in result.records
                ])
            return out

        assert dump(run_elastic()) == dump(run_static())

    def test_no_commit_regression_across_scale_events(self):
        cluster = make_cluster()
        produce(cluster, 1500)
        runner = make_runner(cluster)
        controller = ElasticJobController(
            runner,
            ScalingPolicy(max_containers=4, scale_out_lag=50.0,
                          scale_in_lag=5.0, cooldown=0.5),
            quantum=0.25,
        )
        group = runner.checkpoints.group
        highest: dict = {}
        for _ in range(200):
            controller.step()
            for tp, commit in cluster.offset_manager.fetch_group(group).items():
                assert commit.offset >= highest.get(tp, 0), tp
                highest[tp] = commit.offset
            if runner.backlog() == 0:
                break
        assert controller.events

    def test_quantum_validated(self):
        cluster = make_cluster()
        produce(cluster, 10)
        runner = make_runner(cluster)
        with pytest.raises(ConfigError):
            ElasticJobController(runner, quantum=0.0)

    def test_metrics_registered(self):
        cluster = make_cluster()
        produce(cluster, 10)
        runner = make_runner(cluster)
        ElasticJobController(runner)
        names = cluster.metrics.names()
        assert "elasticity.controller.elastic.containers" in names

