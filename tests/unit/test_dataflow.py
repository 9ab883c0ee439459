"""Unit tests for dataflow graphs of jobs."""

import pytest

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
