"""Integration: processing-layer failure recovery through changelogs (§3.2)."""

from repro.common.clock import SimClock
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.processing.state import changelog_topic_name


class RunningAverageTask:
    """Stateful: per-key running mean (numeric state with two fields)."""

    def init(self, context):
        self.store = context.store("means")

    def process(self, record, collector):
        key = record.key
        entry = self.store.get_or_default(key, {"n": 0, "total": 0.0})
        entry = {"n": entry["n"] + 1, "total": entry["total"] + record.value}
        self.store.put(key, entry)
        collector.send(
            "means-out",
            {"key": key, "mean": entry["total"] / entry["n"]},
            key=key,
        )


def make_env(partitions=2):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=3, clock=clock)
    cluster.create_topic("nums", num_partitions=partitions, replication_factor=3)
    cluster.create_topic("means-out", num_partitions=partitions, replication_factor=3)
    producer = Producer(cluster)
    return clock, cluster, producer


def job_config(**kwargs) -> JobConfig:
    defaults = dict(
        name="avg",
        inputs=["nums"],
        task_factory=RunningAverageTask,
        stores=[StoreConfig("means")],
        checkpoint_interval=10,
        changelog_replication=3,
    )
    defaults.update(kwargs)
    return JobConfig(**defaults)


def all_state(runner: JobRunner) -> dict:
    return {
        k: v
        for instance in runner.tasks()
        for k, v in instance.stores["means"].items()
    }


class TestCrashRecovery:
    def test_state_identical_after_crash(self):
        _clock, cluster, producer = make_env()
        for i in range(100):
            producer.send("nums", float(i), key=f"k{i % 7}")
        runner = JobRunner(job_config(), cluster)
        runner.run_until_idle()
        runner.checkpoint()
        before = all_state(runner)
        runner.crash()
        report = runner.recover()
        assert report.records_replayed > 0
        assert all_state(runner) == before

    def test_continues_correctly_after_recovery(self):
        """Recovered state + new input == never-crashed state."""
        _clock, cluster, producer = make_env()
        for i in range(50):
            producer.send("nums", float(i), key=f"k{i % 3}")
        crashing = JobRunner(job_config(name="crashing"), cluster)
        crashing.run_until_idle()
        crashing.checkpoint()
        crashing.crash()
        crashing.recover()
        for i in range(50, 80):
            producer.send("nums", float(i), key=f"k{i % 3}")
        crashing.run_until_idle()

        steady = JobRunner(job_config(name="steady"), cluster)
        steady.run_until_idle()

        crashed_state = {
            k: v for t in crashing.tasks() for k, v in t.stores["means"].items()
        }
        steady_state = {
            k: v for t in steady.tasks() for k, v in t.stores["means"].items()
        }
        assert crashed_state == steady_state

    def test_changelog_survives_broker_failure(self):
        """The changelog is itself replicated: losing a broker doesn't lose
        state recovery (the paper's fallback-to-messaging-layer argument)."""
        _clock, cluster, producer = make_env()
        for i in range(60):
            producer.send("nums", float(i), key=f"k{i % 5}")
        runner = JobRunner(job_config(), cluster)
        runner.run_until_idle()
        runner.checkpoint()
        before = all_state(runner)
        # Kill the broker leading the changelog partition 0, then recover.
        changelog = changelog_topic_name("avg", "means")
        cluster.tick(0.1)
        leader = cluster.leader_of(changelog, 0)
        cluster.kill_broker(leader)
        runner.crash()
        runner.recover()
        assert all_state(runner) == before

    def test_compacted_changelog_recovers_same_state_faster(self):
        """E4's effect at the job level."""
        _clock, cluster, producer = make_env(partitions=1)
        for i in range(400):
            producer.send("nums", float(i), key=f"k{i % 4}")  # 100 updates/key
        # Four records a pass: every pass writes every key once, so the
        # changelog holds all 100 updates per key.
        runner = JobRunner(
            job_config(changelog_segment_messages=50), cluster,
            max_fetch_per_partition=4,
        )
        runner.run_until_idle()
        runner.checkpoint()
        before = all_state(runner)

        runner.crash()
        uncompacted = runner.recover()

        # Now compact the changelog and recover again.
        for broker in cluster.brokers():
            broker.run_compaction()
        runner.crash()
        compacted = runner.recover()

        assert all_state(runner) == before
        assert compacted.records_replayed < uncompacted.records_replayed
        assert compacted.simulated_seconds < uncompacted.simulated_seconds
