"""Unit tests for dataflow graphs of jobs."""

from contextlib import nullcontext

import pytest

from repro.chaos.failpoints import registry, skipping
from repro.common.clock import SimClock
from repro.common.errors import JobConfigError
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.dataflow import Dataflow
from repro.processing.job import JobConfig


class Forward:
    def __init__(self, output):
        self.output = output

    def process(self, record, collector):
        collector.send(self.output, record.value, key=record.key)


def make_env(topics=("a", "b", "c")):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    for topic in topics:
        cluster.create_topic(topic, num_partitions=1, replication_factor=1)
    return clock, cluster


class TestTopology:
    def test_stages_in_topological_order(self):
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        flow.add_job(
            JobConfig(name="second", inputs=["b"],
                      task_factory=lambda: Forward("c")),
            outputs=["c"],
        )
        flow.add_job(
            JobConfig(name="first", inputs=["a"],
                      task_factory=lambda: Forward("b")),
            outputs=["b"],
        )
        assert flow.stages() == [["first"], ["second"]]

    def test_cycle_rejected(self):
        """Every entry point that sorts the topology refuses a cycle with the
        same typed error, naming the cycle's nodes in data-flow order."""
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        flow.add_job(
            JobConfig(name="x", inputs=["a"], task_factory=lambda: Forward("b")),
            outputs=["b"],
        )
        flow.add_job(
            JobConfig(name="y", inputs=["b"], task_factory=lambda: Forward("a")),
            outputs=["a"],
        )
        cycle = "job:x -> topic:b -> job:y -> topic:a -> job:x"
        for entry_point in (flow.validate, flow.stages, flow.poll_all):
            with pytest.raises(JobConfigError) as raised:
                entry_point()
            assert str(raised.value) == f"dataflow contains a cycle: {cycle}"

    def test_duplicate_job_rejected(self):
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        config = JobConfig(name="x", inputs=["a"], task_factory=lambda: Forward("b"))
        flow.add_job(config)
        with pytest.raises(JobConfigError):
            flow.add_job(config)

    def test_unknown_runner_rejected(self):
        _clock, cluster = make_env()
        with pytest.raises(JobConfigError):
            Dataflow(cluster).runner("ghost")


class TestExecution:
    def test_two_stage_pipeline_drains(self):
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        flow.add_job(
            JobConfig(name="first", inputs=["a"],
                      task_factory=lambda: Forward("b")),
            outputs=["b"],
        )
        flow.add_job(
            JobConfig(name="second", inputs=["b"],
                      task_factory=lambda: Forward("c")),
            outputs=["c"],
        )
        producer = Producer(cluster)
        for i in range(10):
            producer.send("a", i)
        total = flow.run_until_idle()
        assert total == 20  # 10 per stage
        from repro.common.records import TopicPartition

        assert cluster.end_offset(TopicPartition("c", 0)) == 10

    def test_backlog_reaches_zero(self):
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        flow.add_job(
            JobConfig(name="first", inputs=["a"],
                      task_factory=lambda: Forward("b")),
            outputs=["b"],
        )
        producer = Producer(cluster)
        for i in range(5):
            producer.send("a", i)
        assert flow.backlog() == 5
        flow.run_until_idle()
        assert flow.backlog() == 0

    def test_checkpoint_all(self):
        _clock, cluster = make_env()
        flow = Dataflow(cluster)
        flow.add_job(
            JobConfig(name="first", inputs=["a"],
                      task_factory=lambda: Forward("b")),
            outputs=["b"],
        )
        producer = Producer(cluster)
        producer.send("a", 1)
        flow.run_until_idle()
        flow.checkpoint_all()
        from repro.common.records import TopicPartition

        commit = cluster.offset_manager.fetch("job-first", TopicPartition("a", 0))
        assert commit.offset == 1


class TestDecoupling:
    """§3.2: "All jobs are decoupled by writing to and reading from the
    messaging layer, which avoids the need for a back-pressure mechanism."
    A stalled downstream job leaves its backlog in the topic between the two
    jobs; the upstream job runs exactly as it would beside a healthy one."""

    PASSES = 6
    PER_PASS = 7

    def run(self, stall_second):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("a", num_partitions=2, replication_factor=1)
        cluster.create_topic("b", num_partitions=2, replication_factor=1)
        cluster.create_topic("c", num_partitions=1, replication_factor=1)
        flow = Dataflow(cluster)
        first = flow.add_job(
            JobConfig(name="first", inputs=["a"], task_factory=lambda: Forward("b"),
                      checkpoint_interval=5),
            outputs=["b"],
        )
        second = flow.add_job(
            JobConfig(name="second", inputs=["b"], task_factory=lambda: Forward("c")),
            outputs=["c"],
        )
        passes = []
        poll_once = first.poll_once

        def recorded_poll(*args, **kwargs):
            result = poll_once(*args, **kwargs)
            passes.append(result)
            return result

        first.poll_once = recorded_poll

        def stall(job, **ctx):
            return skipping(**ctx) if job == "second" else None

        producer = Producer(cluster)
        commits, backlogs = [], []
        armed = registry().scoped("job.poll", stall) if stall_second else nullcontext()
        with armed:
            for n in range(self.PASSES):
                for i in range(self.PER_PASS):
                    producer.send("a", n * 100 + i, key=f"k{i}")
                flow.poll_all()
                commits.append({
                    tp: commit.offset
                    for tp, commit in first.checkpoints.fetch_all().items()
                })
                backlogs.append(second.backlog())
        per_pass = passes[:]
        flow.run_until_idle()
        out = cluster.fetch("c", 0, 0, max_messages=1000).records
        return per_pass, commits, backlogs, sorted((r.key, r.value) for r in out)

    def test_a_stalled_job_changes_nothing_upstream_and_drains_after(self):
        passes, commits, backlogs, out = self.run(stall_second=False)
        stalled_passes, stalled_commits, stalled_backlogs, stalled_out = self.run(
            stall_second=True
        )
        # The upstream job's passes are the same, record for record and in
        # simulated latency, and so are the offsets it commits.
        assert [p.records_emitted for p in passes] == [self.PER_PASS] * self.PASSES
        assert stalled_passes == passes
        assert stalled_commits == commits
        # The stalled job's backlog is exactly what upstream wrote.
        assert backlogs == [0] * self.PASSES
        emitted = 0
        for result, backlog in zip(stalled_passes, stalled_backlogs):
            emitted += result.records_emitted
            assert backlog == emitted
        # Disarmed, it drains to the same output.
        assert stalled_out == out and len(out) == self.PASSES * self.PER_PASS
