"""Unit tests for incremental processing (§4.2, the E3 mechanism)."""

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.core.incremental import IncrementalFold
from repro.messaging.cluster import MessagingCluster
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig


def make_cluster(n=50) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=2, replication_factor=1)
    append(cluster, n)
    return cluster


def append(cluster, n, start=0):
    for i in range(start, start + n):
        cluster.produce("t", i % 2, [(f"k{i}", {"n": i}, None, {})])


def counting_fold(cluster) -> IncrementalFold:
    return IncrementalFold(
        cluster,
        "t",
        group="stats",
        init=lambda: {"count": 0, "sum": 0},
        fold=lambda s, r: {"count": s["count"] + 1, "sum": s["sum"] + r.value["n"]},
    )


class TestIncrementalUpdate:
    def test_first_update_reads_everything(self):
        cluster = make_cluster(50)
        fold = counting_fold(cluster)
        report = fold.update()
        assert report.records_read == 50
        assert fold.state["count"] == 50
        assert fold.state["sum"] == sum(range(50))

    def test_second_update_reads_only_delta(self):
        cluster = make_cluster(50)
        fold = counting_fold(cluster)
        fold.update()
        append(cluster, 5, start=50)
        report = fold.update()
        assert report.records_read == 5
        assert fold.state["count"] == 55

    def test_no_new_data_reads_nothing(self):
        cluster = make_cluster(10)
        fold = counting_fold(cluster)
        fold.update()
        report = fold.update()
        assert report.records_read == 0
        assert report.simulated_seconds == 0.0

    def test_positions_survive_process_restart(self):
        """§4.2: after failure, fetch offsets from the offset manager."""
        cluster = make_cluster(30)
        counting_fold(cluster).update()  # processed and checkpointed, then "dies"
        fresh = counting_fold(cluster)   # new process, same group
        append(cluster, 4, start=30)
        report = fresh.update()
        assert report.records_read == 4  # resumed, not restarted

    def test_checkpoints_carry_version(self):
        cluster = make_cluster(10)
        fold = IncrementalFold(
            cluster, "t", "stats", init=dict, fold=lambda s, r: s, version="v3"
        )
        fold.update()
        from repro.common.records import TopicPartition

        commit = cluster.offset_manager.fetch("stats", TopicPartition("t", 0))
        assert commit.metadata["software_version"] == "v3"

    def test_checkpoint_deleted_by_retention_reseats_instead_of_wedging(self):
        """Retention deletes the offsets below the fold's position: the
        next update reseats at the earliest offset and counts what it
        jumped, where every update used to raise OffsetOutOfRangeError."""
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic(
            TopicConfig(
                name="t",
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=1.0),
                log=LogConfig(segment_max_messages=5),
            )
        )

        def append_one(i):
            cluster.produce("t", 0, [(None, i, None, {})])

        for i in range(3):
            append_one(i)
        fold = IncrementalFold(
            cluster, "t", "stats", init=list, fold=lambda s, r: s + [r.offset]
        )
        assert fold.update().records_read == 3
        for i in range(3, 23):
            append_one(i)
        cluster.tick(10.0)  # the sweep deletes offsets 0-19
        tp = TopicPartition("t", 0)
        assert cluster.beginning_offset(tp) == 20
        report = fold.update()
        assert (report.records_read, report.records_skipped) == (3, 17)
        assert fold.state == [0, 1, 2, 20, 21, 22]
        assert cluster.offset_manager.fetch("stats", tp).offset == 23
        assert fold.update().records_skipped == 0


class TestFullRecompute:
    def test_recompute_reads_everything_again(self):
        cluster = make_cluster(50)
        fold = counting_fold(cluster)
        fold.update()
        report = fold.recompute_from_scratch()
        assert report.records_read == 50
        assert report.from_scratch
        assert fold.state["count"] == 50  # state equals incremental result

    def test_incremental_equals_recompute(self):
        cluster = make_cluster(40)
        incremental = counting_fold(cluster)
        incremental.update()
        append(cluster, 10, start=40)
        incremental.update()
        scratch = IncrementalFold(
            cluster, "t", "other-group",
            init=lambda: {"count": 0, "sum": 0},
            fold=lambda s, r: {
                "count": s["count"] + 1, "sum": s["sum"] + r.value["n"]
            },
        )
        scratch.recompute_from_scratch()
        assert incremental.state == scratch.state

    def test_recompute_cost_grows_with_history_incremental_does_not(self):
        """The paper's claim: full-recompute cost "would increase linearly
        with data size" while incremental cost tracks only the delta."""
        costs = {}
        for history in (1000, 4000):
            cluster = make_cluster(history)
            fold = counting_fold(cluster)
            fold.update()
            append(cluster, 10, start=history)
            incremental = fold.update().simulated_seconds
            recompute = fold.recompute_from_scratch().simulated_seconds
            costs[history] = (incremental, recompute)
        # Recompute scales with history (4x data -> >2x cost)...
        assert costs[4000][1] > 2 * costs[1000][1]
        # ...incremental does not (same 10-record delta, similar cost).
        assert costs[4000][0] < 2 * costs[1000][0]
        # And at the larger history, incremental decisively wins.
        assert costs[4000][1] > 5 * costs[4000][0]
