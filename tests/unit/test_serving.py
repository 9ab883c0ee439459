"""Unit tests for the state-serving read path (router / server / standby).

The serving subsystem's contract has three load-bearing pieces:

* routing agrees byte-for-byte with the producer's hash partitioner, so a
  key's query always lands on the shard that stored it;
* every response reports who served it and how stale it may be;
* standby replicas converge on the primary's state from the changelog
  alone — including through a retention storm (the reseat regression).
"""

import dataclasses

import pytest

from repro.chaos.failpoints import registry
from repro.common.clock import SimClock
from repro.common.errors import MessagingError, ServingError
from repro.common.partitioning import partition_for_key
from repro.common.records import TopicPartition, estimate_size
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.topic import LogConfig, RetentionConfig, TopicConfig
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.processing.recovery import worst_standby_lag
from repro.processing.state import changelog_topic_name
from repro.serving import (
    CONSISTENCY_BOUNDED,
    CONSISTENCY_SNAPSHOT,
    QueryResult,
    StandbyReplica,
    StateQueryRouter,
    StateServer,
)


@pytest.fixture(autouse=True)
def clean_failpoints():
    registry().disarm_all()
    yield
    registry().disarm_all()


class CountingTask:
    def init(self, context):
        self.store = context.store("counts")

    def process(self, record, collector):
        self.store.put(record.key, (self.store.get(record.key) or 0) + 1)


def make_job(partitions=2, standbys=0, records=40, keys=8, store_type="memory"):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    producer = Producer(cluster)
    for i in range(records):
        producer.send("in", {"i": i}, key=f"k{i % keys}")
    runner = JobRunner(
        JobConfig(
            name="served",
            inputs=["in"],
            task_factory=CountingTask,
            stores=[StoreConfig("counts", store_type=store_type)],
            num_standby_replicas=standbys,
        ),
        cluster,
    )
    runner.run_until_idle()
    runner.checkpoint()
    return cluster, runner, producer


def direct_read(runner, key):
    """What the owning task's raw store holds for ``key`` right now."""
    task_id = partition_for_key(key, runner.num_tasks)
    return runner.task(task_id).stores["counts"].get(key)


class TestRouting:
    def test_routing_agrees_with_producer_partitioner(self):
        _cluster, runner, _producer = make_job(partitions=3)
        router = StateQueryRouter(runner)
        for i in range(50):
            key = f"key-{i}"
            assert router.task_for_key(key) == partition_for_key(
                key, runner.num_tasks
            )

    def test_routed_get_matches_direct_store_read(self):
        _cluster, runner, _producer = make_job(partitions=3, records=60, keys=10)
        router = StateQueryRouter(runner)
        for i in range(10):
            key = f"k{i}"
            result = router.get("counts", key)
            assert result.value == direct_read(runner, key)
            assert result.found is True
            assert result.served_by == "primary"
            assert result.staleness_records == 0
            assert result.task_id == router.task_for_key(key)

    def test_missing_key_reports_not_found(self):
        _cluster, runner, _producer = make_job()
        result = StateQueryRouter(runner).get("counts", "nope")
        assert result.found is False
        assert result.value is None

    def test_out_of_range_task_rejected(self):
        _cluster, runner, _producer = make_job(partitions=2)
        router = StateQueryRouter(runner)
        with pytest.raises(ServingError):
            router.server(2)
        with pytest.raises(ServingError):
            StateServer(runner, -1)

    def test_unknown_store_rejected(self):
        _cluster, runner, _producer = make_job()
        with pytest.raises(ServingError) as exc:
            StateQueryRouter(runner).get("tables", "k1")
        assert "counts" in str(exc.value)  # names the known stores

    def test_unknown_consistency_mode_rejected(self):
        _cluster, runner, _producer = make_job()
        with pytest.raises(ServingError):
            StateQueryRouter(runner).get("counts", "k1", consistency="linear")

    def test_query_result_is_frozen(self):
        _cluster, runner, _producer = make_job()
        result = StateQueryRouter(runner).get("counts", "k1")
        # What a frozen dataclass raises is an AttributeError too, so a
        # caller written to catch either keeps working.
        assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
        with pytest.raises(AttributeError):
            result.value = 99
        with pytest.raises(AttributeError):
            result.extra = 1
        with pytest.raises(TypeError):
            result[1] = 99

    def test_query_result_keeps_its_ten_fields_in_order(self):
        assert QueryResult._fields == (
            "key", "value", "found", "store", "task_id", "served_by",
            "consistency", "staleness_records", "staleness_seconds", "latency",
        )

    def test_query_result_builds_by_keyword_and_compares_by_value(self):
        fields = dict(
            key="k", value=3, found=True, store="counts", task_id=0,
            served_by="primary", consistency=CONSISTENCY_BOUNDED,
            staleness_records=0, staleness_seconds=0.0, latency=0.25,
        )
        by_keyword = QueryResult(**fields)
        positional = QueryResult(*fields.values())
        assert by_keyword == positional
        assert hash(by_keyword) == hash(positional)
        assert by_keyword != by_keyword._replace(value=4)
        slower = by_keyword._replace(latency=0.5)
        assert (slower.latency, by_keyword.latency) == (0.5, 0.25)
        assert slower._replace(latency=0.25) == by_keyword

    def test_served_results_equal_a_keyword_built_twin(self):
        _cluster, runner, _producer = make_job()
        router = StateQueryRouter(runner)
        for result in (
            router.get("counts", "k1"),
            router.range("counts", "k1", "k3"),
            router.approximate_count("counts"),
            router.server(0).get("counts", "k1"),
        ):
            assert type(result) is QueryResult
            assert QueryResult(**result._asdict()) == result

    def test_query_result_is_still_exported(self):
        import repro.api
        import repro.serving

        assert repro.api.QueryResult is QueryResult
        assert repro.serving.QueryResult is QueryResult
        assert "QueryResult" in repro.api.__all__
        assert len(repro.api.__all__) == 80

    def test_latency_accounts_probe_and_response(self):
        _cluster, runner, _producer = make_job()
        result = StateQueryRouter(runner).get("counts", "k1")
        assert result.latency > 0.0

    def test_range_latency_is_the_scan_plus_the_pairs_on_the_wire(self):
        _cluster, runner, _producer = make_job(store_type="lsm")
        result = StateQueryRouter(runner).server(0).range("counts")
        store = runner.task(0).stores["counts"].store
        # The answer is sized as the tuple it is; a list of the same pairs
        # weighs the same, so no copy is made to size it.
        assert estimate_size(result.value) == estimate_size(list(result.value))
        assert result.latency == store.scan_cost() + runner.cluster.cost_model.network_oneway(
            estimate_size(list(result.value))
        )
        assert result.latency == 0.000250552  # pinned to the last digit


class TestScatterGather:
    def test_range_merges_all_shards_in_key_order(self):
        _cluster, runner, _producer = make_job(partitions=3, records=60, keys=10)
        expected = sorted(
            (
                pair
                for instance in runner.tasks()
                for pair in instance.stores["counts"].items()
            ),
            key=lambda kv: repr(kv[0]),
        )
        result = StateQueryRouter(runner).range("counts")
        assert list(result.value) == expected
        assert result.task_id == -1

    def test_range_respects_bounds(self):
        _cluster, runner, _producer = make_job(partitions=2, records=60, keys=10)
        result = StateQueryRouter(runner).range("counts", "k2", "k6")
        keys = [k for k, _v in result.value]
        assert keys == ["k2", "k3", "k4", "k5"]

    def test_approximate_count_sums_shards(self):
        _cluster, runner, _producer = make_job(partitions=3, records=60, keys=10)
        result = StateQueryRouter(runner).approximate_count("counts")
        assert result.value == sum(
            len(instance.stores["counts"].store) for instance in runner.tasks()
        )
        assert result.value == 10

    def test_works_over_lsm_stores(self):
        _cluster, runner, _producer = make_job(store_type="lsm")
        router = StateQueryRouter(runner)
        assert router.get("counts", "k1").value == direct_read(runner, "k1")
        assert router.approximate_count("counts").value == 8


class TestStaleReads:
    def test_stale_read_comes_from_standby_after_checkpoint(self):
        _cluster, runner, _producer = make_job(standbys=2)
        router = StateQueryRouter(runner)
        fresh = router.get("counts", "k1")
        stale = router.get("counts", "k1", allow_stale=True)
        assert stale.served_by == "standby"
        # Standbys caught up at the checkpoint, so no staleness right now.
        assert stale.staleness_records == 0
        assert stale.value == fresh.value

    def test_staleness_reported_between_checkpoints(self):
        _cluster, runner, producer = make_job(standbys=1, keys=4)
        router = StateQueryRouter(runner)
        before = router.get("counts", "k1", allow_stale=True).value
        for _ in range(8):
            producer.send("in", {"x": 1}, key="k1")
        runner.run_until_idle()  # processed + changelogged, NOT checkpointed
        stale = router.get("counts", "k1", allow_stale=True)
        assert stale.served_by == "standby"
        assert stale.staleness_records > 0
        assert stale.value == before  # the standby has not seen the tail
        assert router.get("counts", "k1").value == before + 8
        runner.checkpoint()  # standbys catch up at the boundary
        assert router.get("counts", "k1", allow_stale=True).value == before + 8

    def test_allow_stale_without_standbys_serves_primary(self):
        _cluster, runner, _producer = make_job(standbys=0)
        result = StateQueryRouter(runner).get("counts", "k1", allow_stale=True)
        assert result.served_by == "primary"

    def test_router_counts_queries_and_stale_serves(self):
        cluster, runner, _producer = make_job(standbys=1)
        router = StateQueryRouter(runner)
        router.get("counts", "k1")
        router.get("counts", "k1", allow_stale=True)
        metrics = cluster.metrics
        assert metrics.counter("serving.router.served.queries").value == 2
        assert metrics.counter("serving.router.served.stale_served").value == 1


def changelog_outage(key="k1"):
    """A job whose changelog partition for ``key`` has lost its only copy:
    3 brokers, input rf=3, changelog rf=1, one standby per task, and the
    broker leading that changelog partition killed."""
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("in", num_partitions=3, replication_factor=3)
    producer = Producer(cluster)
    for i in range(30):
        producer.send("in", {"i": i}, key=f"k{i % 6}")
    runner = JobRunner(
        JobConfig(
            name="served",
            inputs=["in"],
            task_factory=CountingTask,
            stores=[StoreConfig("counts")],
            changelog_replication=1,
            num_standby_replicas=1,
        ),
        cluster,
    )
    runner.run_until_idle()
    runner.checkpoint()
    task_id = partition_for_key(key, runner.num_tasks)
    tp = TopicPartition(changelog_topic_name("served", "counts"), task_id)
    cluster.kill_broker(cluster.controller.leader_for(tp))
    assert cluster.controller.leader_for(tp) is None
    return cluster, runner, task_id


class TestChangelogOutage:
    def test_stale_read_falls_back_to_the_primary(self):
        _cluster, runner, _task_id = changelog_outage("k1")
        router = StateQueryRouter(runner)
        fresh = router.get("counts", "k1")
        assert fresh.served_by == "primary"
        # This read used to raise BrokerUnavailableError.
        assert router.get("counts", "k1", allow_stale=True) == fresh
        assert fresh.value == direct_read(runner, "k1")

    def test_standby_staleness_skips_the_standby_with_no_leader(self):
        cluster, runner, task_id = changelog_outage("k1")
        router = StateQueryRouter(runner)
        assert router.server(task_id).standby_staleness() == {}
        for task in range(runner.num_tasks):
            tp = TopicPartition(changelog_topic_name("served", "counts"), task)
            online = cluster.controller.leader_for(tp) is not None
            assert router.server(task).standby_staleness() == (
                {"counts": 0} if online else {}
            )
        assert worst_standby_lag([runner], router.servers) == 0


class TestSnapshotReads:
    def test_snapshot_equals_live_at_checkpoint(self):
        _cluster, runner, _producer = make_job()
        router = StateQueryRouter(runner)
        live = router.get("counts", "k1")
        snap = router.get("counts", "k1", consistency=CONSISTENCY_SNAPSHOT)
        assert snap.served_by == "snapshot"
        assert snap.value == live.value

    def test_snapshot_pins_to_last_checkpoint(self):
        _cluster, runner, producer = make_job(keys=4)
        router = StateQueryRouter(runner)
        at_checkpoint = router.get("counts", "k1").value
        for _ in range(6):
            producer.send("in", {"x": 1}, key="k1")
        runner.run_until_idle()
        snap = router.get("counts", "k1", consistency=CONSISTENCY_SNAPSHOT)
        live = router.get("counts", "k1", consistency=CONSISTENCY_BOUNDED)
        assert snap.value == at_checkpoint  # nothing uncommitted is served
        assert snap.staleness_records > 0
        assert live.value == at_checkpoint + 6
        runner.checkpoint()
        snap = router.get("counts", "k1", consistency=CONSISTENCY_SNAPSHOT)
        assert snap.value == at_checkpoint + 6
        assert snap.staleness_records == 0

    def test_snapshot_needs_a_changelog(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        Producer(cluster).send("in", {"x": 1}, key="k")
        runner = JobRunner(
            JobConfig(
                name="nolog",
                inputs=["in"],
                task_factory=CountingTask,
                stores=[StoreConfig("counts", changelog=False)],
            ),
            cluster,
        )
        runner.run_until_idle()
        with pytest.raises(ServingError):
            StateServer(runner, 0).get(
                "counts", "k", consistency=CONSISTENCY_SNAPSHOT
            )


def make_changelog_env(retention=None, segment_messages=100):
    """A bare changelog partition a StandbyReplica can tail directly."""
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    kwargs = {}
    if retention is not None:
        kwargs["retention"] = RetentionConfig(retention_seconds=retention)
    cluster.create_system_topic(
        TopicConfig(
            name=changelog_topic_name("j", "s"),
            num_partitions=1,
            replication_factor=1,
            log=LogConfig(segment_max_messages=segment_messages),
            **kwargs,
        )
    )
    return clock, cluster, Producer(cluster)


class TestStandbyReplica:
    def test_tail_applies_puts_and_tombstones(self):
        _clock, cluster, producer = make_changelog_env()
        topic = changelog_topic_name("j", "s")
        for i in range(10):
            producer.send(topic, i, key=f"k{i % 3}")
        producer.send(topic, None, key="k0")  # tombstone
        replica = StandbyReplica(cluster, "j", "s", 0)
        stats = replica.catch_up()
        assert stats.records_applied == 11
        assert replica.lag() == 0
        assert replica.store.get("k0") is None
        assert replica.store.get("k1") == 7
        assert replica.store.get("k2") == 8

    def test_incremental_catch_up(self):
        _clock, cluster, producer = make_changelog_env()
        topic = changelog_topic_name("j", "s")
        for i in range(6):
            producer.send(topic, i, key=f"k{i}")
        replica = StandbyReplica(cluster, "j", "s", 0)
        assert replica.catch_up(max_records=4).records_applied == 4
        assert replica.lag() == 2
        assert replica.catch_up().records_applied == 2
        assert replica.lag() == 0

    def test_limit_offset_caps_the_tail(self):
        _clock, cluster, producer = make_changelog_env()
        topic = changelog_topic_name("j", "s")
        for i in range(8):
            producer.send(topic, i, key=f"k{i}")
        replica = StandbyReplica(cluster, "j", "s", 0)
        replica.catch_up(limit_offset=5)
        assert replica.position == 5
        assert replica.store.get("k4") == 4
        assert replica.store.get("k5") is None

    def test_catch_up_does_not_advance_the_clock(self):
        clock, cluster, producer = make_changelog_env()
        topic = changelog_topic_name("j", "s")
        for i in range(20):
            producer.send(topic, i, key=f"k{i}")
        before = clock.now()
        StandbyReplica(cluster, "j", "s", 0).catch_up()
        assert clock.now() == before

    def test_lag_follows_the_changelog_leader_when_it_moves(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=2, clock=clock)
        topic = changelog_topic_name("j", "s")
        cluster.create_system_topic(
            TopicConfig(name=topic, num_partitions=1, replication_factor=2)
        )
        producer = Producer(cluster, ProducerConfig(acks="all"))
        for i in range(5):
            producer.send(topic, i, key=f"k{i}")
        replica = StandbyReplica(cluster, "j", "s", 0)
        replica.catch_up()
        assert replica.lag() == 0
        tp = TopicPartition(topic, 0)
        old_leader = cluster.controller.leader_for(tp)
        cluster.kill_broker(old_leader)
        assert cluster.controller.leader_for(tp) not in (None, old_leader)
        for i in range(7):
            producer.send(topic, i, key=f"k{i}")
        assert replica.lag() == cluster.end_offset(tp) - replica.position == 7

    def test_reseat_after_retention_storm(self):
        """Regression: a slow standby must survive the changelog shrinking.

        Retention deletes segments the replica had not read yet; the next
        catch-up must reseat at the surviving head (clear + replay), not
        crash — and must account the offsets it had to jump over.
        """
        clock, cluster, producer = make_changelog_env(
            retention=5.0, segment_messages=5
        )
        topic = changelog_topic_name("j", "s")
        for i in range(20):
            producer.send(topic, i, key=f"gone{i % 4}")
        replica = StandbyReplica(cluster, "j", "s", 0)
        replica.catch_up(max_records=3)  # seated near offset 0, then stalls
        clock.advance(60.0)
        for i in range(20, 40):
            producer.send(topic, i, key=f"k{i % 4}")
        cluster.tick(1.0)  # retention pass deletes the old segments
        from repro.common.records import TopicPartition

        tp = TopicPartition(topic, 0)
        head = cluster.beginning_offset(tp)
        assert head > 3  # the storm actually outran the replica
        stats = replica.catch_up()
        assert stats.reseated is True
        assert stats.records_skipped == head - 3
        assert replica.reseats == 1
        assert replica.lag() == 0
        # The rebuilt store equals a fresh replay of the surviving head.
        fresh = StandbyReplica(cluster, "j", "s", 0, replica_id=1)
        fresh.catch_up()
        assert dict(replica.store.items()) == dict(fresh.store.items())
        assert not [key for key, _ in replica.store.items() if key.startswith("gone")]


class TestPromotion:
    def test_recover_promotes_and_matches_state(self):
        _cluster, runner, _producer = make_job(standbys=1, partitions=2)
        snapshot = [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ]
        runner.crash()
        report = runner.recover()
        assert report.standby_promotions() == 2  # one per task
        assert [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ] == snapshot

    def test_promoted_tail_is_cheaper_than_cold_restore(self):
        _cluster, warm, _p1 = make_job(standbys=1, records=200, keys=8)
        _cluster2, cold, _p2 = make_job(standbys=0, records=200, keys=8)
        warm.crash()
        warm_report = warm.recover()
        cold.crash()
        cold_report = cold.recover()
        assert warm_report.records_replayed < cold_report.records_replayed
        assert warm_report.simulated_seconds < cold_report.simulated_seconds

    def test_promotion_failure_falls_back_to_cold_restore(self):
        _cluster, runner, _producer = make_job(standbys=1, partitions=2)
        snapshot = [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ]
        runner.crash()
        with registry().scoped(
            "serving.promote",
            lambda **ctx: (_ for _ in ()).throw(MessagingError("chaos")),
        ):
            report = runner.recover()
        assert report.standby_promotions() == 0
        assert all(e.source == "changelog" for e in report.entries)
        assert [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ] == snapshot

    def test_catch_up_failure_during_promotion_falls_back(self):
        _cluster, runner, _producer = make_job(standbys=1, partitions=2)
        snapshot = [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ]
        runner.crash()
        with registry().scoped(
            "serving.catch_up",
            lambda **ctx: (_ for _ in ()).throw(MessagingError("chaos")),
        ):
            report = runner.recover()
        assert report.standby_promotions() == 0
        assert [
            dict(instance.stores["counts"].items())
            for instance in runner.tasks()
        ] == snapshot

    def test_standby_set_replenished_after_promotion(self):
        _cluster, runner, _producer = make_job(standbys=2)
        runner.crash()
        runner.recover()
        runner.checkpoint()
        for task_id in range(runner.num_tasks):
            sets = runner.standbys.of(task_id)
            assert len(sets) == 2
        # The replacement standby is warm again and can serve reads.
        result = StateQueryRouter(runner).get("counts", "k1", allow_stale=True)
        assert result.served_by == "standby"
        assert result.value == direct_read(runner, "k1")
