"""Executable demonstrations of the paper's figures (F1-F3).

The paper's three figures are architecture diagrams; these tests assert the
*behaviour* each diagram depicts, so the reproduction of the figures is
checked, not just drawn.
"""

from repro.baselines.dfs import SimulatedDFS
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec
from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.core.etl import MapTask
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig


class TestFigure1:
    """F1: the MR/DFS stack vs. Liquid's low-latency path.

    Same workload (user activity -> normalize -> back-end); the figure's
    point is that Liquid serves the back-end in seconds while the MR path
    needs a batch job.
    """

    def test_liquid_path_beats_mr_dfs_path(self):
        clock = SimClock()
        events = [{"user": f"u{i}", "action": "view"} for i in range(200)]

        # Legacy path: land in DFS, run an MR normalize job, read output.
        dfs = SimulatedDFS(clock)
        dfs.write_file("/activity/part-0", events)
        engine = MapReduceEngine(dfs)
        result = engine.run(
            MRJobSpec(
                name="normalize",
                input_paths=["/activity"],
                output_path="/normalized",
                map_fn=lambda r: [(r["user"], r)],
                reduce_fn=lambda key, values: values,
            ),
            advance_clock=False,
        )
        mr_latency = result.total_seconds

        # Liquid path: produce to a feed, run the job, consume.
        liquid = Liquid(num_brokers=3, clock=SimClock())
        liquid.create_feed("activity", partitions=2)
        runner = liquid.submit_job(
            JobConfig(name="normalize", inputs=["activity"],
                      task_factory=lambda: MapTask("normalized")),
            outputs=["normalized"],
        )
        producer = liquid.producer()
        start = liquid.clock.now()
        for event in events:
            producer.send("activity", event, key=event["user"])
        liquid.process_available()
        liquid_latency = liquid.clock.now() - start

        assert runner.records_processed == 200
        # The figure's claim: orders of magnitude, driven by job startup.
        assert mr_latency > 100 * liquid_latency


class TestFigure2:
    """F2: two layers exchanging data through feeds with stateful tasks."""

    def test_feed_job_feed_topology(self):
        liquid = Liquid(num_brokers=3)
        liquid.create_feed("in-feed", partitions=3)
        runner = liquid.submit_job(
            JobConfig(name="job", inputs=["in-feed"],
                      task_factory=lambda: MapTask("out-feed")),
            outputs=["out-feed"],
        )
        # One task per partition, as drawn.
        assert len(runner.tasks()) == 3
        # Data flows in at the messaging layer and out at the messaging layer.
        producer = liquid.producer()
        for i in range(30):
            producer.send("in-feed", i, key=str(i))
        liquid.process_available()
        liquid.tick(0.1)
        total_out = sum(
            liquid.cluster.end_offset(tp)
            for tp in liquid.cluster.partitions_of("out-feed")
        )
        assert total_out == 30
        # The derived feed knows its derivation (lineage annotations).
        assert liquid.feed("out-feed").lineage.produced_by == "job"


class TestFigure3:
    """F3: producers, brokers/partitions, and consumer-group semantics."""

    def test_figure3_exact_topology(self):
        cluster = MessagingCluster(num_brokers=2, clock=SimClock())
        cluster.create_topic("topic-a", num_partitions=2, replication_factor=1)
        cluster.create_topic("topic-b", num_partitions=2, replication_factor=1)
        gc = GroupCoordinator(cluster)

        producer_1 = Producer(cluster)
        producer_2 = Producer(cluster)
        for i in range(20):
            producer_1.send("topic-a", {"from": "p1", "i": i})
            producer_2.send("topic-a", {"from": "p2", "i": i})
            producer_2.send("topic-b", {"from": "p2", "i": i})
        cluster.tick(0.1)

        # CG-1 subscribed to topic-a; CG-2 (two members) to topic-b.
        cg1 = Consumer(cluster, ConsumerConfig(group="cg-1"), group_coordinator=gc)
        cg1.subscribe(["topic-a"])
        cg2_a = Consumer(cluster, ConsumerConfig(group="cg-2"), group_coordinator=gc)
        cg2_b = Consumer(cluster, ConsumerConfig(group="cg-2"), group_coordinator=gc)
        cg2_a.subscribe(["topic-b"])
        cg2_b.subscribe(["topic-b"])

        got_cg1, got_cg2a, got_cg2b = [], [], []
        for _ in range(10):
            got_cg1.extend(cg1.poll(20))
            got_cg2a.extend(cg2_a.poll(20))
            got_cg2b.extend(cg2_b.poll(20))

        # CG-1 alone receives all of topic-a (from both producers).
        assert len(got_cg1) == 40
        assert {r.value["from"] for r in got_cg1} == {"p1", "p2"}
        # Within CG-2, topic-b behaves as a queue: each message to exactly
        # one member, the two members splitting the load.
        coords_a = {(r.partition, r.offset) for r in got_cg2a}
        coords_b = {(r.partition, r.offset) for r in got_cg2b}
        assert coords_a.isdisjoint(coords_b)
        assert len(coords_a | coords_b) == 20
        assert got_cg2a and got_cg2b

    def test_partitions_distributed_over_brokers(self):
        cluster = MessagingCluster(num_brokers=2, clock=SimClock())
        cluster.create_topic("topic-a", num_partitions=2, replication_factor=1)
        leaders = {
            cluster.leader_of("topic-a", p)
            for p in range(2)
        }
        assert leaders == {0, 1}  # one partition per broker, as drawn

    def test_offsets_identify_positions(self):
        """The distributed-commit-log inset: offsets are dense per partition
        and independent across partitions."""
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=2, replication_factor=1)
        for i in range(6):
            cluster.produce("t", i % 2, [(None, i, None, {})])
        tp0 = TopicPartition("t", 0)
        tp1 = TopicPartition("t", 1)
        assert cluster.end_offset(tp0) == 3
        assert cluster.end_offset(tp1) == 3
        records = cluster.fetch("t", 0, 0).records
        assert [r.offset for r in records] == [0, 1, 2]
