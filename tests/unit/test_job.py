"""Unit tests for the job runner (§3.2)."""

import contextlib

import pytest

from repro.chaos.failpoints import registry
from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    JobConfigError,
    MessagingError,
    ProducerFlushError,
    TaskFailedError,
)
from repro.common.records import EMPTY_HEADERS, TRACE_HEADER, TopicPartition
from repro.messaging.cluster import ACKS_LEADER, ACKS_NONE, MessagingCluster
from repro.messaging.producer import Producer
from repro.messaging.topic import TopicConfig
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.observability.trace import tracing
from repro.processing.state import changelog_topic_name
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig


class EchoTask:
    def process(self, record, collector):
        collector.send("out", record.value, key=record.key)


class CountTask:
    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        n = self.counts.get_or_default(record.key, 0) + 1
        self.counts.put(record.key, n)


class TagTask:
    """Emit each input back out on its own partition, tagged with the input
    offset — duplicates and holes are then directly countable downstream."""

    def process(self, record, collector):
        collector.send(
            "out", record.offset, key=record.key, partition=record.partition
        )


class CountAndTagTask(CountTask):
    def process(self, record, collector):
        super().process(record, collector)
        TagTask.process(self, record, collector)


class HeaderReuseTask:
    """Emits every record with one dict it then changes for the next."""

    def __init__(self):
        self.headers = {}

    def process(self, record, collector):
        self.headers["i"] = record.value["i"]
        collector.send("out", record.value, key=record.key, headers=self.headers)
        self.headers["i"] = "changed"


class FailingTask:
    def process(self, record, collector):
        raise RuntimeError("boom")


class WindowedTask:
    def __init__(self):
        self.windows_fired = 0

    def process(self, record, collector):
        pass

    def window(self, collector):
        self.windows_fired += 1
        collector.send("out", {"window": self.windows_fired})


def make_env(partitions=2, n=20):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    cluster.create_topic("out", num_partitions=partitions, replication_factor=1)
    producer = Producer(cluster)
    for i in range(n):
        producer.send("in", {"i": i}, key=f"k{i % 4}")
    return clock, cluster, producer


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "inputs": ["a"], "task_factory": EchoTask},
            {"name": "j", "inputs": [], "task_factory": EchoTask},
            {"name": "j", "inputs": ["a"], "task_factory": EchoTask,
             "checkpoint_interval": 0},
            {"name": "j", "inputs": ["a"], "task_factory": EchoTask,
             "window_interval": 0},
            {"name": "j", "inputs": ["a"], "task_factory": EchoTask,
             "stores": [StoreConfig("s"), StoreConfig("s")]},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(JobConfigError):
            JobConfig(**kwargs)


class TestParallelism:
    def test_one_task_per_partition(self):
        _clock, cluster, _producer = make_env(partitions=3)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EchoTask), cluster
        )
        assert runner.num_tasks == 3
        assert len(runner.tasks()) == 3

    def test_task_owns_matching_partition_of_each_input(self):
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("a", num_partitions=3, replication_factor=1)
        cluster.create_topic("b", num_partitions=2, replication_factor=1)
        runner = JobRunner(
            JobConfig(name="j", inputs=["a", "b"], task_factory=EchoTask), cluster
        )
        assert runner.num_tasks == 3
        assert runner.task(1).partitions == [
            TopicPartition("a", 1),
            TopicPartition("b", 1),
        ]
        assert runner.task(2).partitions == [TopicPartition("a", 2)]


class TestProcessing:
    def test_drains_input_and_emits(self):
        _clock, cluster, _producer = make_env(n=20)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EchoTask), cluster
        )
        total = runner.run_until_idle()
        assert total == 20
        assert runner.records_emitted == 20
        tp_counts = sum(
            cluster.end_offset(tp) for tp in cluster.partitions_of("out")
        )
        assert tp_counts == 20

    def test_poll_respects_budget(self):
        _clock, cluster, _producer = make_env(n=20, partitions=1)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EchoTask), cluster
        )
        result = runner.poll_once(max_messages=5)
        assert result.records_processed == 5

    def test_task_exception_wrapped(self):
        _clock, cluster, _producer = make_env()
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=FailingTask), cluster
        )
        with pytest.raises(TaskFailedError, match="boom"):
            runner.poll_once()

    def test_a_failed_pass_keeps_its_changelog_writes(self):
        """At-least-once: what a task staged before it raised is handed over
        like any pass's writes, so the changelog keeps matching the store
        (the replay then counts the replayed records twice, by design)."""
        _clock, cluster, _producer = make_env(partitions=1, n=10)

        class CountThenFailAt5(CountTask):
            def process(self, record, collector):
                super().process(record, collector)
                if record.offset == 5:
                    raise RuntimeError("boom")

        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=CountThenFailAt5,
                stores=[StoreConfig("counts")],
            ),
            cluster,
        )
        with pytest.raises(TaskFailedError):
            runner.poll_once()
        # One entry per key the six processed records wrote.
        assert runner._changelog_producer.pending() == 4
        runner.checkpoint()  # ships them; positions stay where the pass began
        state = dict(runner.task(0).stores["counts"].items())
        assert sum(state.values()) == 6
        runner.crash()
        runner.recover()
        assert dict(runner.task(0).stores["counts"].items()) == state

    def test_a_failed_pass_still_observes_the_ages_it_saw(self):
        """Ages are observed once per pass; a pass whose task raises on its
        third record still leaves the first two in ``record_age``, in
        arrival order."""
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic("in", num_partitions=1, replication_factor=1)
        producer = Producer(cluster)
        for i in range(5):
            producer.send("in", i, key=f"k{i}", timestamp=float(i))
        clock.advance(10.0)

        class FailOnThird:
            def process(self, record, collector):
                if record.offset == 2:
                    raise RuntimeError("boom")

        runner = JobRunner(
            JobConfig(name="aged", inputs=["in"], task_factory=FailOnThird),
            cluster,
        )
        with pytest.raises(TaskFailedError):
            runner.poll_once()
        ages = cluster.metrics.histogram("processing.job.aged.record_age")
        assert ages.count == 2
        assert ages.snapshot(since=0)["max"] == 10.0  # offset 0 first
        assert ages.snapshot(since=1)["max"] == 9.0   # then offset 1

    def test_auto_advance_moves_clock(self):
        clock, cluster, _producer = make_env()
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EchoTask), cluster
        )
        before = clock.now()
        runner.run_until_idle()
        assert clock.now() > before

    def test_backlog_counts_unprocessed(self):
        _clock, cluster, _producer = make_env(n=20)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EchoTask), cluster
        )
        assert runner.backlog() == 20
        runner.run_until_idle()
        assert runner.backlog() == 0


class TestEmitsKeepTheirHeaders:
    def test_a_change_after_send_does_not_reach_the_output(self):
        _clock, cluster, _producer = make_env(partitions=1, n=3)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=HeaderReuseTask),
            cluster,
        )
        runner.run_until_idle()
        out = cluster.fetch("out", 0, 0).records
        assert [r.headers for r in out] == [{"i": 0}, {"i": 1}, {"i": 2}]

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_a_reader_cannot_change_the_output_headers(self, traced):
        _clock, cluster, _producer = make_env(partitions=1, n=2)
        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=HeaderReuseTask),
            cluster,
        )
        with tracing() if traced else contextlib.nullcontext():
            runner.run_until_idle()
        delivered = cluster.fetch("out", 0, 0).records[0].headers
        with pytest.raises(TypeError):
            delivered["i"] = "x"
        assert cluster.fetch("out", 0, 0).records[0].headers["i"] == 0
        assert (TRACE_HEADER in delivered) is traced

    def test_empty_headers_stage_as_the_shared_instance(self):
        class EmptyHeaderTask:
            def process(self, record, collector):
                collector.send("out", record.value, headers={})

        _clock, cluster, _producer = make_env(partitions=1, n=2)
        JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=EmptyHeaderTask),
            cluster,
        ).run_until_idle()
        out = cluster.fetch("out", 0, 0).records
        assert [r.headers is EMPTY_HEADERS for r in out] == [True, True]


class TestCheckpointing:
    def test_resume_from_checkpoint(self):
        _clock, cluster, producer = make_env(partitions=1, n=10)
        config = JobConfig(
            name="j", inputs=["in"], task_factory=EchoTask, checkpoint_interval=5
        )
        runner = JobRunner(config, cluster)
        runner.run_until_idle()
        runner.checkpoint()
        # A fresh runner (same name) resumes where the first left off.
        for i in range(3):
            producer.send("in", {"late": i}, key="k")
        fresh = JobRunner(config, cluster)
        total = fresh.run_until_idle()
        assert total == 3

    def test_checkpoint_metadata_has_version(self):
        _clock, cluster, _producer = make_env(partitions=1)
        config = JobConfig(
            name="j", inputs=["in"], task_factory=EchoTask, version="v9"
        )
        runner = JobRunner(config, cluster)
        runner.run_until_idle()
        runner.checkpoint()
        commit = cluster.offset_manager.fetch("job-j", TopicPartition("in", 0))
        assert commit.metadata["software_version"] == "v9"

    def test_auto_checkpoint_by_interval(self):
        _clock, cluster, _producer = make_env(partitions=1, n=20)
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=EchoTask,
                checkpoint_interval=5,
            ),
            cluster,
        )
        runner.run_until_idle()
        commit = cluster.offset_manager.fetch("job-j", TopicPartition("in", 0))
        assert commit is not None and commit.offset >= 5

    def test_checkpoint_deleted_by_retention_reseats_instead_of_wedging(self):
        """Retention deletes the offsets below a job's position: the next
        pass reseats at the earliest offset and counts what it jumped,
        where every pass used to raise OffsetOutOfRangeError for good."""
        clock = SimClock()
        cluster = MessagingCluster(num_brokers=1, clock=clock)
        cluster.create_topic(
            TopicConfig(
                name="in",
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=1.0),
                log=LogConfig(segment_max_messages=5),
            )
        )
        producer = Producer(cluster)
        for i in range(3):
            producer.send("in", i)
        seen = []

        class Record:
            def process(self, record, collector):
                seen.append(record.offset)

        runner = JobRunner(
            JobConfig(name="j", inputs=["in"], task_factory=Record), cluster
        )
        assert runner.poll_once().records_processed == 3
        runner.checkpoint()
        for i in range(20):
            producer.send("in", i)
        cluster.tick(10.0)  # the sweep deletes offsets 0-19
        tp = TopicPartition("in", 0)
        assert cluster.beginning_offset(tp) == 20
        result = runner.poll_once()
        assert seen[3:] == [20, 21, 22]
        assert result.records_processed == 3
        assert result.records_skipped == 17
        assert runner.poll_once().records_skipped == 0
        runner.checkpoint()
        assert cluster.offset_manager.fetch("job-j", tp).offset == 23


class TestStateAndRecovery:
    def test_changelog_topic_created(self):
        _clock, cluster, _producer = make_env()
        JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=CountTask,
                stores=[StoreConfig("counts")],
            ),
            cluster,
        )
        assert changelog_topic_name("j", "counts") in cluster.topics()
        assert cluster.topic_config(changelog_topic_name("j", "counts")).compacted

    def test_crash_recover_restores_state(self):
        _clock, cluster, _producer = make_env(partitions=2, n=20)
        config = JobConfig(
            name="j", inputs=["in"], task_factory=CountTask,
            stores=[StoreConfig("counts")],
        )
        runner = JobRunner(config, cluster)
        runner.run_until_idle()
        runner.checkpoint()
        before = {
            k: v
            for instance in runner.tasks()
            for k, v in instance.stores["counts"].items()
        }
        runner.crash()
        with pytest.raises(JobConfigError):
            runner.poll_once()
        report = runner.recover()
        # One pass per task: one changelog record per key, not per update.
        assert report.records_replayed == 4
        after = {
            k: v
            for instance in runner.tasks()
            for k, v in instance.stores["counts"].items()
        }
        assert after == before

    def test_recovery_does_not_reprocess_checkpointed_input(self):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        config = JobConfig(
            name="j", inputs=["in"], task_factory=CountTask,
            stores=[StoreConfig("counts")],
        )
        runner = JobRunner(config, cluster)
        runner.run_until_idle()
        runner.checkpoint()
        runner.crash()
        runner.recover()
        assert runner.run_until_idle() == 0  # nothing re-processed
        counts = dict(runner.task(0).stores["counts"].items())
        assert sum(counts.values()) == 10  # not doubled

    def test_transient_store_lost_on_crash(self):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        config = JobConfig(
            name="j", inputs=["in"], task_factory=CountTask,
            stores=[StoreConfig("counts", changelog=False)],
        )
        runner = JobRunner(config, cluster)
        runner.run_until_idle()
        runner.checkpoint()
        runner.crash()
        report = runner.recover()
        assert report.records_replayed == 0
        assert len(runner.task(0).stores["counts"]) == 0


class TestPassIsTheBatch:
    """Pinned by request count, not by wall-clock: a pass ships one request
    per touched partition, however many records it processed."""

    PARTITIONS = 3
    RECORDS = 60

    def _one_pass(self, changelog=True):
        """Run one pass of a counting, emitting job over every input; returns
        the cluster, the runner and the produce requests the pass made,
        counted and timed per acks mode."""
        _clock, cluster, _producer = make_env(
            partitions=self.PARTITIONS, n=self.RECORDS
        )
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=CountAndTagTask,
                stores=[StoreConfig("counts", changelog=changelog)],
            ),
            cluster,
        )
        requests = {
            acks: cluster.metrics.histogram(
                f"messaging.cluster.produce_latency.{acks}"
            )
            for acks in ("leader", "all")
        }
        before = {acks: (h.count, h.total) for acks, h in requests.items()}
        result = runner.poll_once()
        assert result.records_processed == result.records_emitted == self.RECORDS
        made = {
            acks: (h.count - before[acks][0], h.total - before[acks][1])
            for acks, h in requests.items()
        }
        return cluster, runner, result, made

    def test_one_pass_is_one_request_per_touched_partition(self):
        cluster, runner, _result, made = self._one_pass()
        # P output requests (the job's acks) + P changelog requests (acks=all).
        assert made["leader"][0] == self.PARTITIONS
        assert made["all"][0] == self.PARTITIONS
        assert runner.producer.pending() == 0
        for partition in range(self.PARTITIONS):
            changelog = TopicPartition(changelog_topic_name("j", "counts"), partition)
            inputs = cluster.fetch("in", partition, 0, max_messages=self.RECORDS)
            # The pass's net effect: one changelog record per key it wrote.
            assert cluster.end_offset(changelog) == len(
                {record.key for record in inputs.records}
            )

    def test_pass_latency_includes_the_changelog_acks(self):
        """The changelog's acks=all round trips are part of what a pass
        costs; the per-record closure used to drop them on the floor.  Its
        requests to the one broker are one request: the dispatch and round
        trip are paid once, not once per partition."""
        _, _, without, made = self._one_pass(changelog=False)
        assert made["all"] == (0, 0.0)
        cluster, _, with_changelog, made = self._one_pass(changelog=True)
        assert made["all"][1] > 0
        model = cluster.cost_model
        shared = (self.PARTITIONS - 1) * (model.request_overhead + model.network_rtt)
        assert with_changelog.latency == pytest.approx(
            without.latency + made["all"][1] - shared
        )


class TestPassIsOneRoundPerSide:
    """A pass runs every task at one simulated instant: its input fetches
    are one client round and its pass-end flushes another, so requests to
    different brokers overlap and requests to one broker queue.  What one
    client sends one broker is one request, paying the dispatch and round
    trip once: the container's fetches, and each producer's batches."""

    RECORDS = 40

    def _one_pass(self, brokers, guarantee, acks=ACKS_LEADER):
        """One pass of a counting, tagging job over two input partitions;
        returns its result and the (client, broker, latency) of every fetch
        and produce request the pass made, in order.  A produce request's
        client is its producer: per topic at least once (the output and the
        changelog producer), per task exactly once (its transactional
        producer)."""
        cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
        for topic in ("in", "out"):
            cluster.create_topic(topic, num_partitions=2, replication_factor=1)
        producer = Producer(cluster)
        for i in range(self.RECORDS):
            producer.send("in", {"i": i}, key=f"k{i % 4}", partition=i % 2)
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=CountAndTagTask,
                stores=[StoreConfig("counts")], checkpoint_interval=1000,
                processing_guarantee=guarantee, acks=acks,
            ),
            cluster,
        )
        requests = {"fetch": [], "produce": []}
        fetch, produce = cluster.fetch, cluster.produce

        def fetched(*args, **kwargs):
            reply = fetch(*args, **kwargs)
            requests["fetch"].append(("container", reply.broker, reply.latency))
            return reply

        def produced(*args, **kwargs):
            reply = produce(*args, **kwargs)
            tp = reply.partition
            client = tp.partition if guarantee == EXACTLY_ONCE else tp.topic
            requests["produce"].append((client, reply.broker, reply.latency))
            return reply

        cluster.fetch, cluster.produce = fetched, produced
        before = cluster.clock.now()
        result = runner.poll_once()
        assert result.records_processed == self.RECORDS
        assert cluster.clock.now() == before + result.latency
        cpu = 0.0
        for _ in range(self.RECORDS):
            cpu += runner.cpu_cost
        return cluster, result, requests["fetch"], cpu, requests["produce"]

    @staticmethod
    def _round(requests, fixed):
        """The largest per-broker sum, a repeated (client, broker) pair
        paying ``fixed`` less, in request order."""
        per_broker, seen = {}, set()
        for client, broker, latency in requests:
            if (client, broker) in seen:
                latency -= fixed
            seen.add((client, broker))
            per_broker[broker] = per_broker.get(broker, 0.0) + latency
        return max(per_broker.values())

    @pytest.mark.parametrize("guarantee", [AT_LEAST_ONCE, EXACTLY_ONCE])
    def test_pass_costs_fetch_round_cpu_and_flush_round(self, guarantee):
        cluster, result, fetches, cpu, flushes = self._one_pass(2, guarantee)
        changelog = changelog_topic_name("j", "counts")
        for topic in ("in", "out", changelog):
            assert [cluster.leader_of(topic, p) for p in range(2)] == [0, 1]
        # One input fetch per task; per task an output and a changelog
        # request, to the task's own broker.
        assert [broker for _, broker, _ in fetches] == [0, 1]
        assert sorted(broker for _, broker, _ in flushes) == [0, 0, 1, 1]
        model = cluster.cost_model
        fixed = model.request_overhead + model.network_rtt
        fetch_round = max(fetches[0][2], fetches[1][2])
        assert self._round(fetches, fixed) == fetch_round
        flush_round = self._round(flushes, fixed)
        assert result.latency == fetch_round + cpu + flush_round
        whole = self._round(flushes, 0.0)
        if guarantee == EXACTLY_ONCE:
            # A task's one producer sends its output and changelog batches
            # to its broker as one request.
            assert flush_round == pytest.approx(whole - fixed, rel=1e-12)
        else:
            # Two producers, two requests: they queue whole.
            assert flush_round == whole
        serial = sum(latency for _, _, latency in fetches + flushes) + cpu
        assert result.latency < serial

    @pytest.mark.parametrize("guarantee", [AT_LEAST_ONCE, EXACTLY_ONCE])
    def test_on_one_broker_a_pass_costs_the_serial_sum(self, guarantee):
        """On one broker each client's requests are one request: the
        serial sum, less the dispatch and round trip that the container's
        second fetch and each producer's second batch no longer pay."""
        cluster, result, fetches, cpu, flushes = self._one_pass(1, guarantee)
        assert len(fetches) == 2 and len(flushes) == 4
        assert len({client for client, _, _ in flushes}) == 2
        model = cluster.cost_model
        shared = 3 * (model.request_overhead + model.network_rtt)
        serial = sum(latency for _, _, latency in fetches + flushes) + cpu
        assert result.latency == pytest.approx(serial - shared, rel=1e-12)

    def test_a_fire_and_forget_producer_shares_half_a_round_trip(self):
        """acks=none sends pay half the round trip, and so share half: the
        output producer's two batches save the dispatch and half a round
        trip, the acks=all changelog's two the dispatch and a whole one."""
        cluster, result, fetches, cpu, flushes = self._one_pass(
            1, AT_LEAST_ONCE, acks=ACKS_NONE
        )
        model = cluster.cost_model
        rtt, overhead = model.network_rtt, model.request_overhead
        shared = (overhead + rtt) + (overhead + rtt / 2) + (overhead + rtt)
        serial = sum(latency for _, _, latency in fetches + flushes) + cpu
        assert result.latency == pytest.approx(serial - shared, rel=1e-12)


class TestFailedOutputFlush:
    """At-least-once twin of ``test_exactly_once_job.py::TestFailedCheckpoint``.

    Regression: nothing in the job ever flushed its output producer, so one
    batch that exhausted its retries parked its partition for good — every
    later emit queued behind it while checkpoints kept committing: offset
    10, output ``[]``, 11 records pending.

    The accepted conservative property: the output and changelog producers
    are shared by the runner's tasks, so while one partition's batch is
    parked *every* task's pass-end flush (and checkpoint) fails until it
    drains.  Never lossy.
    """

    IN = TopicPartition("in", 0)

    @staticmethod
    def _out_is_down(partition=None, **_ctx):
        if partition.topic == "out":
            raise BrokerUnavailableError("out is down")

    def _runner_after_one_failed_pass(self, still_down=lambda runner: None):
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=TagTask,
                checkpoint_interval=10,
            ),
            cluster,
        )
        with registry().scoped("cluster.produce", self._out_is_down):
            with pytest.raises(MessagingError):
                runner.poll_once()  # 10 records, then the pass-end flush
            still_down(runner)
        assert cluster.end_offset(TopicPartition("out", 0)) == 0
        assert runner.checkpoints.fetch(self.IN) is None
        return cluster, runner

    @staticmethod
    def _output_offsets(cluster):
        fetched = cluster.fetch("out", 0, 0, max_messages=100_000)
        return [record.value for record in fetched.records]

    def test_parked_output_drains_before_the_checkpoint(self):
        cluster, runner = self._runner_after_one_failed_pass()
        assert runner.producer.pending() == 10
        runner.run_until_idle()
        runner.checkpoint()
        assert self._output_offsets(cluster) == list(range(10))
        assert runner.checkpoints.fetch(self.IN).offset == 10
        assert runner.producer.pending() == 0

    def test_forced_checkpoint_commits_nothing_while_output_is_down(self):
        def forced_checkpoint(runner):
            with pytest.raises(MessagingError):
                runner.checkpoint()
            assert runner.checkpoints.fetch(self.IN) is None

        self._runner_after_one_failed_pass(still_down=forced_checkpoint)

    def test_crash_drops_the_parked_batch_and_the_replay_re_emits_it(self):
        cluster, runner = self._runner_after_one_failed_pass()
        runner.crash()  # the parked batch was container memory
        assert runner.producer.pending() == 0
        runner.recover()
        runner.run_until_idle()
        runner.checkpoint()
        assert self._output_offsets(cluster) == list(range(10))
        assert runner.checkpoints.fetch(self.IN).offset == 10


    def test_a_failed_output_flush_still_ships_the_changelog(self):
        """Regression: the output flush raised before the changelog flush
        ran, so the pass's state updates stayed unsent while its outputs
        parked.  Both producers flush; one error carries both outcomes."""
        _clock, cluster, _producer = make_env(partitions=1, n=10)
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=CountAndTagTask,
                stores=[StoreConfig("counts")], checkpoint_interval=10,
            ),
            cluster,
        )
        changelog = TopicPartition(changelog_topic_name("j", "counts"), 0)
        with registry().scoped("cluster.produce", self._out_is_down):
            with pytest.raises(ProducerFlushError) as failed:
                runner.poll_once()
        assert cluster.end_offset(changelog) == 4  # one record per key
        assert [ack.partition for ack in failed.value.acks] == [changelog]
        assert [tp for tp, _exc in failed.value.failures] == [
            TopicPartition("out", 0)
        ]
        assert runner.producer.pending() == 10
        assert runner.checkpoints.fetch(self.IN) is None


class TestWindowing:
    def test_window_fires_on_interval(self):
        clock, cluster, _producer = make_env(partitions=1)
        runner = JobRunner(
            JobConfig(
                name="j", inputs=["in"], task_factory=WindowedTask,
                window_interval=5.0,
            ),
            cluster,
        )
        runner.run_until_idle()
        emitted_before = runner.records_emitted
        clock.advance(6.0)
        runner.poll_once()
        assert runner.records_emitted == emitted_before + 1
