"""Soak test: randomized full-stack scenarios with global invariants.

A seeded random driver interleaves everything the stack supports —
produces, job polls, broker kills/restarts, job crashes/recoveries,
maintenance ticks — and then asserts the invariants that must hold no
matter what happened:

* every acked input record is processed by the job exactly once
  (checkpoints + changelog recovery give effective exactly-once for the
  keyed counting state);
* derived state equals a reference computation over the acked inputs;
* all replicas converge to identical logs;
* the cluster returns to a healthy state.
"""

import random

import pytest

from repro.common.clock import SimClock
from repro.common.errors import MessagingError, NotEnoughReplicasError
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.observability.health import evaluate_cluster_health


class CountTask:
    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        key = record.key
        self.counts.put(key, self.counts.get_or_default(key, 0) + 1)


def run_scenario(seed: int, steps: int = 120) -> None:
    rng = random.Random(seed)
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=3, clock=clock)
    cluster.create_topic(
        "events", num_partitions=2, replication_factor=3, min_insync_replicas=2
    )
    producer = Producer(
        cluster, ProducerConfig(acks=ACKS_ALL, max_retries=3, idempotent=True)
    )
    runner = JobRunner(
        JobConfig(
            name="soak-count",
            inputs=["events"],
            task_factory=CountTask,
            stores=[StoreConfig("counts", changelog=True)],
            checkpoint_interval=10,
            changelog_replication=3,
        ),
        cluster,
    )
    acked: list[str] = []
    counter = 0

    for _ in range(steps):
        action = rng.choices(
            ["produce", "poll_job", "kill", "restart", "crash_job", "tick"],
            weights=[40, 25, 6, 10, 4, 15],
        )[0]
        if action == "produce":
            for _n in range(rng.randint(1, 8)):
                key = f"k{counter % 5}"
                counter += 1
                try:
                    producer.send("events", {"n": counter}, key=key)
                    acked.append(key)
                except (MessagingError, NotEnoughReplicasError):
                    pass  # unavailable: no ack, no guarantee
        elif action == "poll_job":
            if runner.running:
                runner.poll_once()
        elif action == "kill":
            live = sorted(cluster.controller.live_brokers())
            if len(live) > 2:  # keep min_insync satisfiable
                cluster.kill_broker(rng.choice(live))
        elif action == "restart":
            for broker_id in range(3):
                if broker_id not in cluster.controller.live_brokers():
                    cluster.restart_broker(broker_id)
                    break
        elif action == "crash_job":
            if runner.running:
                runner.checkpoint()
                runner.crash()
                runner.recover()
        else:
            cluster.tick(rng.choice([0.0, 0.1, 1.0]))

    # Settle: restore all brokers, drain the job.
    for broker_id in range(3):
        if broker_id not in cluster.controller.live_brokers():
            cluster.restart_broker(broker_id)
    cluster.run_until_replicated()
    if not runner.running:
        runner.recover()
    runner.run_until_idle()
    runner.checkpoint()

    # Invariant 1: the job's counts equal a reference count of acked keys.
    expected: dict[str, int] = {}
    for key in acked:
        expected[key] = expected.get(key, 0) + 1
    actual: dict[str, int] = {}
    for instance in runner.tasks():
        for key, value in instance.stores["counts"].items():
            actual[key] = actual.get(key, 0) + value
    assert actual == expected, f"seed={seed}: state diverged"

    # Invariant 2: replicas converge (followers hold leader prefixes).
    for tp in cluster.partitions_of("events"):
        leader_id = cluster.leader_of(tp.topic, tp.partition)
        leader_log = [
            (m.offset, m.key)
            for m in cluster.broker(leader_id).replica(tp).log.all_messages()
        ]
        for broker in cluster.brokers():
            if broker.hosts(tp) and broker.broker_id != leader_id:
                follower_log = [
                    (m.offset, m.key)
                    for m in broker.replica(tp).log.all_messages()
                ]
                assert follower_log == leader_log[: len(follower_log)], (
                    f"seed={seed}: divergent replica on broker "
                    f"{broker.broker_id}"
                )

    # Invariant 3: the cluster reports healthy after settling.
    report = evaluate_cluster_health(cluster, max_group_lag=10**9)
    assert report.healthy, f"seed={seed}: {report}"


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
def test_randomized_soak(seed):
    run_scenario(seed)


def test_long_soak_single_seed():
    run_scenario(seed=2026, steps=400)
