"""Integration tests for the elasticity layer.

Two claims are checked end to end:

1. **Transparency** — a scripted load spike makes the controller scale a
   job out and back, and the drained output is byte-identical to a static
   run (elasticity changes *when* records are processed, never *what* is
   emitted).

2. **Safety under churn** — an elastic job scaled while a seeded
   :class:`ChaosSchedule` crashes brokers and churns leaders still loses no
   acked input record and never regresses a checkpoint commit
   (:class:`ChaosReport` invariants, three seeds).
"""

import pytest

from repro.chaos import ChaosConfig, ChaosReport, ChaosSchedule
from repro.chaos.failpoints import registry
from repro.common.clock import SimClock
from repro.common.errors import MessagingError
from repro.elasticity import (
    SCALE_IN,
    SCALE_OUT,
    ElasticJobController,
    ScalingPolicy,
)
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.topic import TopicConfig
from repro.processing.job import JobConfig, JobRunner

SEEDS = [1011, 2022, 3033]
HORIZON = 20.0
PARTITIONS = 4


@pytest.fixture(autouse=True)
def clean_registry():
    registry().disarm_all()
    yield
    registry().disarm_all()


class PassThrough:
    """Emit-preserving task: output records carry the input's bytes."""

    def process(self, record, collector):
        collector.send("out", record.value, key=record.key,
                       partition=record.partition, timestamp=record.timestamp)


def make_cluster(brokers=3):
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    for topic in ("events", "out"):
        cluster.create_topic(topic, num_partitions=PARTITIONS,
                             replication_factor=3)
    return cluster


def spike(cluster, n):
    producer = Producer(cluster)
    for i in range(n):
        producer.send("events", f"v{i}", key=f"k{i}", partition=i % PARTITIONS)
    producer.flush()
    cluster.run_until_replicated()


def make_runner(cluster):
    return JobRunner(
        JobConfig(name="enrich", inputs=["events"], task_factory=PassThrough,
                  cpu_cost_per_message=0.005),
        cluster,
    )


def dump_output(cluster):
    cluster.run_until_replicated()
    out = []
    for partition in range(PARTITIONS):
        result = cluster.fetch("out", partition, 0, 100_000)
        out.append([
            (r.offset, r.key, r.value, r.timestamp) for r in result.records
        ])
    return out


class TestScaleOutAndBack:
    def test_spike_triggers_scale_out_then_scale_back(self):
        cluster = make_cluster()
        spike(cluster, 2400)
        runner = make_runner(cluster)
        controller = ElasticJobController(
            runner,
            ScalingPolicy(min_containers=1, max_containers=4,
                          scale_out_lag=100.0, scale_in_lag=10.0,
                          cooldown=1.0),
            quantum=0.25,
        )
        controller.run_until_drained()
        actions = [event.action for event in controller.events]
        assert SCALE_OUT in actions, controller.timeline()
        assert SCALE_IN in actions, controller.timeline()
        # The scale-out happened while the backlog stood, the scale-in after.
        first_out = actions.index(SCALE_OUT)
        last_in = len(actions) - 1 - actions[::-1].index(SCALE_IN)
        assert first_out < last_in
        assert runner.backlog() == 0
        assert controller.containers < 4  # shrank again once drained

    def test_elastic_output_is_byte_identical_to_static_run(self):
        def run_elastic():
            cluster = make_cluster()
            spike(cluster, 2400)
            runner = make_runner(cluster)
            controller = ElasticJobController(
                runner,
                ScalingPolicy(min_containers=1, max_containers=4,
                              scale_out_lag=100.0, scale_in_lag=10.0,
                              cooldown=1.0),
                quantum=0.25,
            )
            controller.run_until_drained()
            assert any(e.migrated_tasks for e in controller.events)
            return cluster

        def run_static_max_parallelism():
            cluster = make_cluster()
            spike(cluster, 2400)
            runner = make_runner(cluster)
            runner.auto_advance_clock = False
            budget = max(1, int(0.25 / runner.cpu_cost))
            for _ in range(10_000):
                if runner.backlog() == 0:
                    break
                # One container per task: every task gets a full budget.
                for task_id in range(runner.num_tasks):
                    runner.poll_tasks([task_id], max_messages=budget)
                runner.clock.advance(0.25)
            assert runner.backlog() == 0
            return cluster

        assert dump_output(run_elastic()) == dump_output(
            run_static_max_parallelism()
        )

    def test_elastic_run_replays_deterministically(self):
        def run():
            cluster = make_cluster()
            spike(cluster, 1200)
            runner = make_runner(cluster)
            controller = ElasticJobController(
                runner,
                ScalingPolicy(max_containers=4, scale_out_lag=50.0,
                              scale_in_lag=5.0, cooldown=0.5),
                quantum=0.25,
            )
            controller.run_until_drained()
            return controller.timeline(), dump_output(cluster)

        assert run() == run()


def run_scale_soak(seed):
    """Elastic job under a chaos storm; returns (cluster, controller, report)."""
    cluster = MessagingCluster(num_brokers=5, clock=SimClock())
    for topic in ("events", "out"):
        cluster.create_topic(
            TopicConfig(name=topic, num_partitions=PARTITIONS,
                        replication_factor=3, min_insync_replicas=2)
        )
    schedule = ChaosSchedule(
        cluster, seed=seed, topics=["events"],
        config=ChaosConfig(horizon=HORIZON),
    )
    schedule.install()
    report = ChaosReport()
    producer = Producer(
        cluster,
        ProducerConfig(
            acks=ACKS_ALL,
            idempotent=True,
            max_retries=2,
            retry_jitter_seed=seed,
        ),
    )
    runner = make_runner(cluster)
    controller = ElasticJobController(
        runner,
        ScalingPolicy(min_containers=1, max_containers=4,
                      scale_out_lag=50.0, scale_in_lag=5.0, cooldown=1.0),
        quantum=0.25,
    )
    group = runner.checkpoints.group

    next_value = 0

    def send_one():
        nonlocal next_value
        value = f"v{next_value}"
        next_value += 1
        try:
            ack = producer.send("events", value, key=value)
            if ack is not None:
                report.note_ack(ack.partition, ack, [value])
        except MessagingError as exc:
            report.note_error("produce", exc)

    # A standing backlog before the storm, so the controller has something
    # to scale for while brokers churn.
    for _ in range(1200):
        send_one()

    while cluster.clock.now() < HORIZON:
        for _ in range(4):
            send_one()
        try:
            controller.step()
        except MessagingError as exc:
            # A fetch/commit/migration hit a mid-failover broker; the
            # controller state stays consistent and the next step retries.
            report.note_error("process", exc)
            cluster.tick(0.25)
        for tp, commit in cluster.offset_manager.fetch_group(group).items():
            report.note_commit(group, tp, commit.offset)

    # Heal and drain: parked/buffered batches must all make it out.
    schedule.heal()
    cluster.run_until_replicated()
    parked_values = {
        tp: [[value for (_k, value, _ts, _h) in entries]
             for _seq, entries in batches]
        for tp, batches in producer._failed_batches.items()
    }
    buffered_values = {
        tp: [value for (_k, value, _ts, _h) in buffer]
        for tp, buffer in producer._buffers.items()
    }
    for ack in producer.flush():
        tp = ack.partition
        if parked_values.get(tp):
            values = parked_values[tp].pop(0)
        else:
            values = buffered_values.pop(tp)
        report.note_ack(tp, ack, values)
    assert producer.pending() == 0
    cluster.run_until_replicated()
    # Drain whatever the storm left behind.
    controller.run_until_drained()
    for tp, commit in cluster.offset_manager.fetch_group(group).items():
        report.note_commit(group, tp, commit.offset)
    return cluster, controller, report


class TestScaleUnderChurn:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_acked_loss_and_no_commit_regression(self, seed):
        cluster, controller, report = run_scale_soak(seed)
        assert controller.events, "the storm must actually trigger scaling"
        summary = report.summary()
        assert summary["acked_records"] >= 100
        report.assert_invariants(cluster)

    def test_scale_soak_replays_byte_for_byte(self):
        _, controller_a, report_a = run_scale_soak(SEEDS[0])
        _, controller_b, report_b = run_scale_soak(SEEDS[0])
        assert controller_a.timeline() == controller_b.timeline()
        assert report_a.summary() == report_b.summary()
