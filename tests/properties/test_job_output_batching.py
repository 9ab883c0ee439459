"""Property-based tests: how much a pass processes is invisible in content.

A task's emits and changelog entries only stage while a poll pass runs and
leave it in one flush at pass end, so the pass size decides the batch size —
and nothing else.  ``poll_once(max_messages=1)`` is the per-record reference
(one request per write, what the job layer did before it batched): every
other pass size must produce the same derived feed, the same compacted
changelog and the same store, under both processing guarantees.

The second part pins the crash window the flush opens: a crash after the
pass-end flush but before the checkpoint's commit replays the pass.
At-least-once may show its outputs twice, never lose one; exactly-once
shows each exactly once.

The third part pins *how* writes reach the producers.  A task stages its
emits and changelog entries as runs per partition and the runner hands each
run over once at pass end; before, every write went through
``Producer.send`` on its own.  That per-record staging survives here as
:class:`ReferenceJobRunner`.  Two same-seed clusters, one per side, take
the same random schedule — produce, poll with a produce failure armed (a
batch parks, stays parked, later runs queue behind it), checkpoint, window
ticks, crash + recover, migrate — under both guarantees, 0–1 standbys, rf 1
or 2, with or without a tracer.  After every step they must agree on the
outcome, every log and batch index, producer acks and pending records,
checkpoints, stores, standbys, every metric (``bytes_on_wire`` among them),
the clock and every span.
"""

import random
from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import raising, registry
from repro.common.clock import SimClock
from repro.common.errors import BrokerUnavailableError, LiquidError, TaskFailedError
from repro.common.records import TRACE_HEADER, TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.observability.trace import Tracer, current_tracer, tracing
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.output import OUTPUT_PATHS, AtLeastOnceOutput, ExactlyOnceOutput
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import make_store
from repro.processing.task import MessageCollector

PASS_SIZES = (1, 2, 7, 200)
PARTITIONS = 2
KEYS = 5

seeds = st.integers(min_value=0, max_value=2**32 - 1)
input_sizes = st.integers(min_value=1, max_value=40)
guarantees = st.sampled_from((AT_LEAST_ONCE, EXACTLY_ONCE))


@pytest.fixture(autouse=True)
def _clean_failpoints():
    registry().disarm_all()
    yield
    registry().disarm_all()


class CountAndTagTask:
    """Running count per key in a changelogged store; one emit per input on
    the input's partition, tagged with its offset and carrying its
    timestamp and a user header."""

    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        n = self.counts.get_or_default(record.key, 0) + 1
        self.counts.put(record.key, n)
        collector.send(
            "out",
            {"offset": record.offset, "n": n},
            key=record.key,
            partition=record.partition,
            timestamp=record.timestamp,
            headers={"source": record.topic},
        )


def build(seed, n, guarantee, checkpoint_interval):
    """The same seeded keyed input, pre-loaded with explicit timestamps (the
    clock runs differently for every pass size; content must not)."""
    rng = random.Random(seed)
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("in", num_partitions=PARTITIONS, replication_factor=1)
    cluster.create_topic("out", num_partitions=PARTITIONS, replication_factor=1)
    producer = Producer(cluster)
    for i in range(n):
        producer.send(
            "in",
            {"i": i},
            key=f"k{rng.randrange(KEYS)}",
            partition=rng.randrange(PARTITIONS),
            timestamp=i * 0.001,
        )
    runner = JobRunner(
        JobConfig(
            name="batching",
            inputs=["in"],
            task_factory=CountAndTagTask,
            stores=(StoreConfig("counts"),),
            checkpoint_interval=checkpoint_interval,
            processing_guarantee=guarantee,
        ),
        cluster,
    )
    return cluster, runner


def drain(runner, max_messages):
    while runner.poll_once(max_messages=max_messages).records_processed:
        pass
    runner.checkpoint()


def read(cluster, runner, topic):
    """Per partition, the records a reader at the job's own isolation level
    sees."""
    return [
        cluster.fetch(
            topic, partition, 0, max_messages=100_000, isolation=runner.isolation
        ).records
        for partition in range(PARTITIONS)
    ]


def observable_content(seed, n, guarantee, max_messages):
    # One checkpoint, at the end: where commit markers land is a function of
    # the checkpoint schedule, which is not under test here.
    cluster, runner = build(seed, n, guarantee, checkpoint_interval=10_000)
    drain(runner, max_messages)
    changelog = changelog_topic_name("batching", "counts")
    return {
        # Headers whole: a batch boundary shows in no record (it shows in
        # the log's batch index — see the last test of the class below).
        "derived": [
            [
                (r.offset, r.key, r.value, r.timestamp, sorted(r.headers.items()))
                for r in records
            ]
            for records in read(cluster, runner, "out")
        ],
        # What compaction keeps of the changelog, its last value per key: a
        # pass ships its net effect, so the records themselves depend on
        # the pass size.
        "changelog": [
            {r.key: r.value for r in records}
            for records in read(cluster, runner, changelog)
        ],
        "state": [
            sorted(instance.stores["counts"].items())
            for instance in runner.tasks()
        ],
    }


class TestPassSizeIsInvisibleInContent:
    @given(seeds, input_sizes, guarantees)
    @settings(max_examples=20, deadline=None)
    def test_every_pass_size_matches_the_per_record_reference(
        self, seed, n, guarantee
    ):
        reference = observable_content(seed, n, guarantee, max_messages=1)
        assert sum(len(p) for p in reference["derived"]) == n
        for max_messages in PASS_SIZES[1:]:
            assert (
                observable_content(seed, n, guarantee, max_messages) == reference
            ), f"pass size {max_messages} changed what the job wrote"


    def test_the_batch_index_is_where_the_pass_size_shows(self):
        """Exactly-once writes carry producer state; it travels once per
        batch — one index entry per pass and partition — not on the records."""
        for max_messages, one_per_record in ((1, True), (200, False)):
            cluster, runner = build(7, 30, EXACTLY_ONCE, checkpoint_interval=10_000)
            drain(runner, max_messages)
            for partition, records in enumerate(read(cluster, runner, "out")):
                assert all(dict(r.headers) == {"source": "in"} for r in records)
                log = cluster.broker(0).replica(TopicPartition("out", partition)).log
                *runs, marker = log.batches()
                assert marker[4] == "commit" and marker[0] == len(records)
                assert {kind for *_entry, kind, _f in runs} == {"transactional"}
                assert [seq for _b, _l, _pid, seq, _k, _f in runs] == sorted(
                    {seq for _b, _l, _pid, seq, _k, _f in runs}
                )
                sizes = [last - base + 1 for base, last, *_rest in runs]
                assert sum(sizes) == len(records)
                assert sizes == ([1] * len(records) if one_per_record else [len(records)])


class CheckpointCrash(Exception):
    """The container died inside the checkpoint, before it decided."""


class TestCrashBetweenFlushAndCommit:
    @given(seeds, st.integers(10, 40), st.sampled_from(PASS_SIZES), guarantees)
    @settings(max_examples=20, deadline=None)
    def test_the_flushed_pass_replays_without_loss(
        self, seed, n, max_messages, guarantee
    ):
        cluster, runner = build(seed, n, guarantee, checkpoint_interval=3)
        # The first checkpoint that comes due dies after its pass's flush
        # and before its commit.
        registry().arm("job.checkpoint", raising(CheckpointCrash), times=1)
        flushed_uncommitted = None
        for _ in range(n + 1):
            try:
                runner.poll_once(max_messages=max_messages)
            except CheckpointCrash:
                flushed_uncommitted = sum(
                    cluster.end_offset(TopicPartition("out", p))
                    for p in range(PARTITIONS)
                )
                break
        assert flushed_uncommitted, "no checkpoint came due; nothing was tested"
        assert all(
            runner.checkpoints.fetch(TopicPartition("in", p)) is None
            for p in range(PARTITIONS)
        )
        runner.crash()
        runner.recover()
        drain(runner, max_messages)

        seen = [
            (partition, record.value["offset"])
            for partition, records in enumerate(read(cluster, runner, "out"))
            for record in records
        ]
        expected = {
            (p, offset)
            for p in range(PARTITIONS)
            for offset in range(cluster.end_offset(TopicPartition("in", p)))
        }
        assert set(seen) == expected  # none missing, under either guarantee
        if guarantee == EXACTLY_ONCE:
            assert len(seen) == n
        else:
            # The flushed pass reached the log before the crash and again in
            # the replay: duplicates, by design.
            assert len(seen) > n


# ---------------------------------------------------------------------------
# Run staging equals the per-record staging it replaced
# ---------------------------------------------------------------------------


class ReferenceState(KeyValueState):
    """``KeyValueState`` whose hand-over calls the injected
    ``changelog_append`` once per entry of the pass's net writes."""

    def __init__(self, name, store, changelog_append):
        super().__init__(name, store)
        self._changelog_append = changelog_append

    def hand_over(self):
        written = super().hand_over()
        if self._changelog_append is not None:
            for key, value in written.items():
                self._changelog_append(key, value)  # value None: tombstone
        return written


class ReferenceAtLeastOnce(AtLeastOnceOutput):
    """Emits go to ``output.emits.send``, the shared output producer."""

    def __init__(self, runner, task_id):
        super().__init__(runner, task_id)
        self.emits = runner.producer


class ReferenceExactlyOnce(ExactlyOnceOutput):
    """Emits and changelog entries go to the output's own ``send``, which
    begins the transaction at the first write after a commit and stages
    through ``TransactionalProducer.send`` (one fencing check per record)."""

    def __init__(self, runner, task_id):
        super().__init__(runner, task_id)
        self.emits = self.changelog = self

    def send(
        self, topic, value, key=None, partition=None, timestamp=None, headers=None
    ):
        producer = self.producer
        if not producer.in_transaction:
            producer.begin()
        return producer.send(topic, value, key, partition, timestamp, headers)


REFERENCE_OUTPUTS = {
    AT_LEAST_ONCE: ReferenceAtLeastOnce,
    EXACTLY_ONCE: ReferenceExactlyOnce,
}


class ReferenceJobRunner(JobRunner):
    """The runner with the per-record staging that run staging replaced,
    copied as it was: a fresh ``MessageCollector`` per pass drained after every record
    into ``Producer.send`` (``_send_emits``), each store's changelog closure
    through the task table, the exactly-once ``send`` wrapper.  Only the
    changelog's *content* follows the write-behind rule: each store sends
    its pass's net writes, one ``Producer.send`` per key, at pass end.

    What the two share is everything after the producers' buffers: the
    pass-end flush (so the fixed at-least-once flush, which ships the
    changelog even when the output partition fails, is on both sides),
    checkpoints, recovery and migration.
    """

    def __init__(self, config, cluster):
        with mock.patch.dict(OUTPUT_PATHS, REFERENCE_OUTPUTS):
            super().__init__(config, cluster)

    def _build_stores(self, task_id, staged):
        stores = {}
        for store_config in self.config.stores:
            append = None
            if store_config.changelog:
                topic = changelog_topic_name(self.config.name, store_config.name)

                def append(key, value, _topic=topic, _p=task_id):
                    self._tasks[_p].output.changelog.send(
                        _topic, value, key=key, partition=_p
                    )

            stores[store_config.name] = ReferenceState(
                store_config.name,
                make_store(
                    store_config.store_type,
                    self.cluster.clock,
                    **store_config.store_options,
                ),
                append,
            )
        return stores

    def _poll_task(self, instance, budget, result):
        collector = MessageCollector()
        tracer = current_tracer()
        for tp in instance.partitions:
            if budget <= 0:
                break
            fetched = self.cluster.fetch(
                tp.topic, tp.partition, instance.positions[tp], budget,
                isolation=self.isolation,
            )
            result.latency += fetched.latency
            for record in fetched.records:
                ctx = self._reference_process_record(
                    instance, record, collector, result, tracer
                )
                self._send_emits(instance, collector.drain(), ctx, result)
            if fetched.records:
                budget -= len(fetched.records)
            instance.positions[tp] = max(
                instance.positions[tp], fetched.next_offset
            )
        self._reference_maybe_window(instance, result)
        for state in instance.stores.values():
            state.hand_over()
        result.latency += instance.output.flush()
        if instance.records_since_checkpoint >= self.config.checkpoint_interval:
            self._checkpoint_task(instance)

    def _send_emits(self, instance, emits, ctx, result):
        send = instance.output.emits.send
        for emit in emits:
            headers = emit.headers
            if ctx is not None:
                headers = {**(headers or {}), TRACE_HEADER: ctx}
            send(
                emit.topic,
                emit.value,
                key=emit.key,
                partition=emit.partition,
                timestamp=emit.timestamp,
                headers=headers,
            )
        result.records_emitted += len(emits)
        self.records_emitted += len(emits)

    def _reference_process_record(self, instance, record, collector, result, tracer):
        span = None
        if tracer is not None and record.headers:
            parent = record.headers.get(TRACE_HEADER)
            if parent is not None:
                span = tracer.open_span(
                    "job.process",
                    parent,
                    start=self.clock.now(),
                    job=self.config.name,
                    task=instance.task_id,
                    topic=record.topic,
                    partition=record.partition,
                    offset=record.offset,
                )
        try:
            instance.task.process(record, collector)
        except Exception as exc:
            if span is not None:
                span.attrs["error"] = type(exc).__name__
                tracer.close(span)
            raise TaskFailedError(
                f"job {self.config.name!r} task {instance.task_id} failed on "
                f"{record.topic}-{record.partition}@{record.offset}: {exc}"
            ) from exc
        result.records_processed += 1
        result.latency += self.cpu_cost
        instance.records_since_checkpoint += 1
        self.records_processed += 1
        age = self.clock.now() - record.timestamp
        if age >= 0:
            self._h_record_age.observe(age)
            self._g_freshness.set(age)
        if span is not None:
            tracer.close(span, end=span.start + self.cpu_cost)
            return span.context()
        return None

    def _reference_maybe_window(self, instance, result):
        if self.config.window_interval is None:
            return
        window = getattr(instance.task, "window", None)
        if not callable(window):
            return
        now = self.clock.now()
        if now - instance.last_window_at >= self.config.window_interval:
            instance.last_window_at = now
            collector = MessageCollector()
            window(collector)
            self._send_emits(instance, collector.drain(), None, result)


OUT_PARTITIONS = 3


class EveryWrite:
    """Writes of every kind a job stages: two changelogged stores written in
    a record-dependent order (puts and tombstones), and from ``init``; emits
    keyed, to an explicit partition with a user header, keyless
    (round-robin) and from ``window``."""

    def init(self, context):
        self.a = context.store("a")
        self.b = context.store("b")
        self.b.put("incarnations", self.b.get_or_default("incarnations", 0) + 1)

    def process(self, record, collector):
        key, value = record.key, record.value
        first, second = (self.a, self.b) if value % 2 else (self.b, self.a)
        first.put(key, value)
        if value % 5 == 0:
            second.delete(key)
        else:
            second.put(key, second.get_or_default(key, 0) + 1)
        collector.send("out", value, key=key, timestamp=record.timestamp)
        if value % 3 == 0:
            collector.send(
                "out", {"v": value}, partition=value % OUT_PARTITIONS,
                headers={"source": record.topic},
            )
        if value % 4 == 0:
            collector.send("side", value)

    def window(self, collector):
        collector.send("side", "tick")


def build_pair_side(reference, guarantee, standbys, replication, traced):
    cluster = MessagingCluster(num_brokers=2, clock=SimClock())
    cluster.create_topic("in", num_partitions=2, replication_factor=replication)
    for topic in ("out", "side"):
        cluster.create_topic(
            topic, num_partitions=OUT_PARTITIONS, replication_factor=replication
        )
    config = JobConfig(
        name="staging",
        inputs=["in"],
        task_factory=EveryWrite,
        stores=[StoreConfig("a", store_type="lsm"), StoreConfig("b")],
        checkpoint_interval=5,
        window_interval=0.5,
        processing_guarantee=guarantee,
        num_standby_replicas=standbys,
        changelog_replication=replication,
    )
    runner = (ReferenceJobRunner if reference else JobRunner)(config, cluster)
    return SimpleNamespace(
        cluster=cluster,
        runner=runner,
        producer=Producer(cluster),
        tracer=Tracer(seed=3) if traced else None,
    )


def _topic_is_down(prefix):
    def fail(partition=None, **_ctx):
        if partition.topic.startswith(prefix):
            raise BrokerUnavailableError(f"{partition} is down")

    return fail


def apply(env, step):
    """Run one step; returns what it observed, or the error it raised."""
    kind, arg, armed = step
    runner = env.runner
    with ExitStack() as stack:
        if env.tracer is not None:
            stack.enter_context(tracing(env.tracer))
        if armed is not None:
            prefix, times = armed
            stack.enter_context(
                registry().scoped("cluster.produce", _topic_is_down(prefix), times=times)
            )
        try:
            if kind == "produce":
                for key, value in arg:
                    env.producer.send("in", value, key=f"k{key}")
                return None
            if kind == "poll":
                result = runner.poll_once(max_messages=arg)
                return (result.records_processed, result.records_emitted, result.latency)
            if kind == "checkpoint":
                runner.checkpoint()
                return None
            if kind == "advance":
                env.cluster.clock.advance(arg)
                return None
            if kind == "recover":
                runner.crash()
                return runner.recover().entries
            if kind == "migrate":
                return runner.migrate_task(arg % runner.num_tasks).entries
            raise AssertionError(kind)
        except LiquidError as exc:
            return type(exc).__name__


def observe(env):
    cluster, runner = env.cluster, env.runner
    logs = {}
    for topic in cluster.topics():
        for tp in cluster.partitions_of(topic):
            fetched = cluster.fetch(topic, tp.partition, 0, max_messages=100_000)
            logs[tp] = (
                [
                    (r.offset, r.key, r.value, r.timestamp, sorted(r.headers.items()))
                    for r in fetched.records
                ],
                [
                    (b.broker_id, b.replica(tp).log.log_end_offset, b.replica(tp).log.batches())
                    for b in cluster.brokers()
                    if b.hosts(tp)
                ],
            )
    producers = [runner.producer, runner._changelog_producer] + [
        instance.output.producer for instance in runner.tasks()
    ]
    return {
        "logs": logs,
        "acks": [(p.acks_received, p.retries, p.pending()) for p in producers],
        "checkpoints": [
            (commit.offset, commit.metadata) if commit is not None else None
            for commit in (
                runner.checkpoints.fetch(tp) for tp in cluster.partitions_of("in")
            )
        ],
        "stores": [
            {name: sorted(state.items()) for name, state in instance.stores.items()}
            for instance in runner.tasks()
        ],
        "standbys": {
            task_id: [
                {name: (replica.position, sorted(replica.store.items()))
                 for name, replica in replicas.items()}
                for replicas in sets
            ]
            for task_id, sets in runner.standbys._sets.items()
        },
        "counts": (runner.records_processed, runner.records_emitted, runner.freshness()),
        # Every instrument: bytes_on_wire, request counts and latencies, the
        # transaction lifecycle counters, record ages.
        "metrics": cluster.metrics.snapshot(),
        "now": cluster.clock.now(),
        "spans": [
            (s.trace_id, s.span_id, s.parent_id, s.name, s.start, s.end, s.attrs)
            for s in (env.tracer.spans() if env.tracer is not None else ())
        ],
    }


FAIL_FLUSH = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["out", "side", "__changelog", ""]),  # topic prefix
        st.sampled_from([1, None]),  # one failed attempt, or down for the round
    ),
)
#: One round of work: input, then passes, all with the round's produce
#: failure armed (so a batch can park, stay parked and have later runs queue
#: behind it), then a pass with nothing armed; then at most one event.
ROUND = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 40)), min_size=1, max_size=20
    ),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),  # pass budgets
    FAIL_FLUSH,
    st.booleans(),  # checkpoint
    st.sampled_from([0.0, 0.6]),  # clock jump; 0.6 s makes a window due
    st.one_of(
        st.none(),
        st.just(("recover", None)),
        st.tuples(st.just("migrate"), st.integers(0, 1)),
    ),
)


def expand(rounds):
    steps = []
    for records, budgets, armed, checkpoint, jump, event in rounds:
        steps.append(("produce", records, None))
        steps += [("poll", budget, armed) for budget in budgets]
        steps.append(("poll", 12, None))
        if checkpoint:
            steps.append(("checkpoint", None, None))
        if jump:
            steps.append(("advance", jump, None))
        if event is not None:
            steps.append((event[0], event[1], None))
    return steps


#: Sized from the profile: 40 in tier-1, the ``deep`` profile's in CI's
#: ``determinism`` job.
EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 40


class TestRunStagingMatchesPerRecordStaging:
    @given(
        guarantees,
        st.integers(0, 1),  # standbys
        st.integers(1, 2),  # replication factor of every topic
        st.booleans(),  # traced
        st.lists(ROUND, min_size=1, max_size=6).map(expand),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_every_step_equals_the_reference(
        self, guarantee, standbys, replication, traced, steps
    ):
        new = build_pair_side(False, guarantee, standbys, replication, traced)
        ref = build_pair_side(True, guarantee, standbys, replication, traced)
        assert observe(new) == observe(ref)
        for step in steps:
            assert apply(new, step) == apply(ref, step), step
            assert observe(new) == observe(ref), step
