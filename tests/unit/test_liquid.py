"""Unit tests for the Liquid facade (§3)."""

import pytest

from repro.common.errors import FeedNotFoundError
from repro.common.records import TopicPartition
from repro.core.liquid import Liquid
from repro.processing.job import JobConfig, StoreConfig
from repro.processing.containers import ResourceQuota
from repro.core.etl import GroupCountTask, MapTask


def make_liquid(**kwargs) -> Liquid:
    return Liquid(num_brokers=3, **kwargs)


class TestFeeds:
    def test_create_feed_registers_topic_and_feed(self):
        liquid = make_liquid()
        feed = liquid.create_feed("raw", partitions=2)
        assert feed.is_source_of_truth
        assert "raw" in liquid.cluster.topics()
        assert len(liquid.cluster.partitions_of("raw")) == 2

    def test_default_replication_capped_by_brokers(self):
        liquid = Liquid(num_brokers=2)
        liquid.create_feed("raw")
        assert liquid.cluster.topic_config("raw").replication_factor == 2

    def test_feed_lookup(self):
        liquid = make_liquid()
        liquid.create_feed("raw")
        assert liquid.feed("raw").name == "raw"
        with pytest.raises(FeedNotFoundError):
            liquid.feed("ghost")


class TestJobSubmission:
    def test_submit_creates_derived_feeds_with_lineage(self):
        liquid = make_liquid()
        liquid.create_feed("raw", partitions=2)
        liquid.submit_job(
            JobConfig(name="j", inputs=["raw"],
                      task_factory=lambda: MapTask("out"), version="v2"),
            outputs=["out"],
            description="identity",
        )
        feed = liquid.feed("out")
        assert feed.lineage.produced_by == "j"
        assert feed.lineage.software_version == "v2"
        assert len(liquid.cluster.partitions_of("out")) == 2

    def test_unregistered_input_rejected(self):
        liquid = make_liquid()
        liquid.cluster.create_topic("bare-topic")  # topic without feed
        with pytest.raises(FeedNotFoundError):
            liquid.submit_job(
                JobConfig(name="j", inputs=["bare-topic"],
                          task_factory=lambda: MapTask("out"))
            )

    def test_quota_registers_with_host(self):
        liquid = make_liquid()
        liquid.create_feed("raw")
        liquid.submit_job(
            JobConfig(name="j", inputs=["raw"],
                      task_factory=lambda: MapTask("out")),
            outputs=["out"],
            quota=ResourceQuota(cpu_cores=1.0),
        )
        assert liquid.host.jobs() == ["j"]

    def test_end_to_end_processing(self):
        liquid = make_liquid()
        liquid.create_feed("raw", partitions=2)
        liquid.submit_job(
            JobConfig(
                name="count", inputs=["raw"],
                task_factory=lambda: GroupCountTask("counts", lambda v: v["g"]),
                stores=[StoreConfig("counts")],
            ),
            outputs=["counts"],
        )
        producer = liquid.producer()
        for i in range(20):
            producer.send("raw", {"g": f"g{i % 2}"}, key=f"g{i % 2}")
        assert liquid.process_available() == 20
        liquid.tick(0.1)
        consumer = liquid.consumer(group="backend")
        consumer.subscribe(["counts"])
        got = []
        while True:
            batch = consumer.poll(100)
            if not batch:
                break
            got.extend(batch)
        assert len(got) == 20


class TestRewind:
    def _loaded(self) -> Liquid:
        liquid = make_liquid()
        liquid.create_feed("raw", partitions=1)
        producer = liquid.producer()
        for i in range(10):
            producer.send("raw", i, timestamp=float(i))
        liquid.tick(0.0)
        return liquid

    def test_rewind_to_time(self):
        liquid = self._loaded()
        offsets = liquid.rewind_to_time("raw", 5.0)
        assert offsets[TopicPartition("raw", 0)] == 5

    def test_rewind_to_version(self):
        liquid = self._loaded()
        tp = TopicPartition("raw", 0)
        liquid.cluster.offset_manager.commit(
            "g", tp, 7, {"software_version": "v1"}
        )
        offsets = liquid.rewind_to_version("raw", "g", "v1")
        assert offsets[tp] == 7

    def test_rewind_to_commit_time(self):
        liquid = self._loaded()
        tp = TopicPartition("raw", 0)
        liquid.cluster.offset_manager.commit("g", tp, 3)
        liquid.tick(10.0)
        liquid.cluster.offset_manager.commit("g", tp, 9)
        offsets = liquid.rewind_to_commit_time("raw", "g", 5.0)
        assert offsets[tp] == 3

    def test_rewind_unknown_feed_rejected(self):
        liquid = make_liquid()
        with pytest.raises(FeedNotFoundError):
            liquid.rewind_to_time("ghost", 0.0)


class TestIncrementalHelper:
    def test_incremental_fold_over_feed(self):
        liquid = make_liquid()
        liquid.create_feed("raw", partitions=1)
        producer = liquid.producer()
        for i in range(10):
            producer.send("raw", i)
        liquid.tick(0.0)
        fold = liquid.incremental_fold(
            "raw", "stats", init=lambda: 0, fold=lambda s, r: s + r.value
        )
        report = fold.update()
        assert report.records_read == 10
        assert fold.state == sum(range(10))


class TestOperations:
    def test_broker_lifecycle_via_facade(self):
        liquid = make_liquid()
        liquid.create_feed("raw")
        liquid.cluster.kill_broker(2)
        assert 2 not in liquid.cluster.controller.live_brokers()
        liquid.cluster.restart_broker(2)
        assert 2 in liquid.cluster.controller.live_brokers()

    def test_stats_include_processing_shape(self):
        liquid = make_liquid()
        liquid.create_feed("raw", partitions=2)
        liquid.submit_job(
            JobConfig(name="j", inputs=["raw"],
                      task_factory=lambda: MapTask("out")),
            outputs=["out"],
        )
        stats = liquid.stats()
        assert stats["feeds"] == 2
        assert stats["source_feeds"] == 1
        assert stats["derived_feeds"] == 1
        assert stats["jobs"] == 1
        assert stats["processing_tasks"] == 2
