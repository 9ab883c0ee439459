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
``Producer.send`` on its own.  That per-record staging survives as
:class:`~tests.reference.job.ReferenceJobRunner`.  Two same-seed clusters,
one per side, take the same random schedule — produce, poll with a produce
failure armed (a batch parks, stays parked, later runs queue behind it),
checkpoint, window ticks, crash + recover, migrate — under both guarantees,
0–1 standbys, rf 1 or 2, with or without a tracer.  After every step they
must agree on the outcome, every log and batch index, producer acks and
pending records, checkpoints, stores, standbys, every metric
(``bytes_on_wire`` among them), the clock and every span.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import raising, registry
from repro.common.errors import BrokerUnavailableError
from repro.common.records import TopicPartition
from repro.processing.job import AT_LEAST_ONCE, EXACTLY_ONCE, JobRunner, StoreConfig
from repro.processing.state import changelog_topic_name
from tests.reference import examples
from tests.reference.job import ReferenceJobRunner, job, keyed, lockstep, read, states

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


def preloaded(seed, n, guarantee, checkpoint_interval):
    """The same seeded keyed input, pre-loaded with explicit timestamps (the
    clock runs differently for every pass size; content must not)."""
    env = job(
        {"in": (PARTITIONS, 1), "out": (PARTITIONS, 1)},
        name="batching", task_factory=CountAndTagTask, stores=(StoreConfig("counts"),),
        checkpoint_interval=checkpoint_interval, processing_guarantee=guarantee,
    )
    rng = random.Random(seed)
    for i in range(n):
        env.producer.send(
            "in", {"i": i}, key=f"k{rng.randrange(KEYS)}",
            partition=rng.randrange(PARTITIONS), timestamp=i * 0.001,
        )
    return env


def drain(runner, max_messages):
    while runner.poll_once(max_messages=max_messages).records_processed:
        pass
    runner.checkpoint()


def observable_content(seed, n, guarantee, max_messages):
    # One checkpoint, at the end: where commit markers land is a function of
    # the checkpoint schedule, which is not under test here.
    env = preloaded(seed, n, guarantee, checkpoint_interval=10_000)
    drain(env.runner, max_messages)
    changelog = changelog_topic_name("batching", "counts")
    return {
        # Headers whole: a batch boundary shows in no record (it shows in
        # the log's batch index — see the last test of the class below).
        "derived": [
            [(r.offset, r.key, r.value, r.timestamp, sorted(r.headers.items()))
             for r in records]
            for records in read(env, "out")
        ],
        # What compaction keeps of the changelog, its last value per key: a
        # pass ships its net effect, so the records themselves depend on
        # the pass size.
        "changelog": [{r.key: r.value for r in rs} for rs in read(env, changelog)],
        "state": [sorted(task.stores["counts"].items()) for task in env.runner.tasks()],
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
            env = preloaded(7, 30, EXACTLY_ONCE, checkpoint_interval=10_000)
            drain(env.runner, max_messages)
            for partition, records in enumerate(read(env, "out")):
                assert all(dict(r.headers) == {"source": "in"} for r in records)
                log = env.cluster.broker(0).replica(TopicPartition("out", partition)).log
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
        env = preloaded(seed, n, guarantee, checkpoint_interval=3)
        cluster, runner = env.cluster, env.runner
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
            for partition, records in enumerate(read(env, "out"))
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


def side(reference, guarantee, standbys, replication, traced):
    topics = {"in": (2, replication)}
    topics.update((topic, (OUT_PARTITIONS, replication)) for topic in ("out", "side"))
    return job(
        topics, brokers=2, traced=traced,
        runner=ReferenceJobRunner if reference else JobRunner,
        name="staging", task_factory=EveryWrite,
        stores=[StoreConfig("a"), StoreConfig("b")],
        checkpoint_interval=5, window_interval=0.5, processing_guarantee=guarantee,
        num_standby_replicas=standbys, changelog_replication=replication,
    )


def topic_is_down(prefix, partition=None, **_ctx):
    if partition.topic.startswith(prefix):
        raise BrokerUnavailableError(f"{partition} is down")


def observe(env, _step, outcome):
    cluster, runner = env.cluster, env.runner
    logs = {}
    for topic in cluster.topics():
        for tp, records in zip(cluster.partitions_of(topic),
                               read(env, topic, "read_uncommitted")):
            logs[tp] = (
                [(r.offset, r.key, r.value, r.timestamp, sorted(r.headers.items()))
                 for r in records],
                [(b.broker_id, b.replica(tp).log.log_end_offset,
                  b.replica(tp).log.batches()) for b in cluster.brokers() if b.hosts(tp)],
            )
    producers = [runner.producer, runner._changelog_producer] + [
        instance.output.producer for instance in runner.tasks()
    ]
    return {
        "outcome": outcome,
        "logs": logs,
        "acks": [(p.acks_received, p.retries, p.pending()) for p in producers],
        "checkpoints": [
            (commit.offset, commit.metadata) if commit is not None else None
            for commit in map(runner.checkpoints.fetch, cluster.partitions_of("in"))
        ],
        "stores and standbys": states(env),
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
        st.just("cluster.produce"),
        st.sampled_from(["out", "side", "__changelog", ""]).map(  # topic prefix
            lambda prefix: partial(topic_is_down, prefix)
        ),
        st.sampled_from([1, None]),  # one failed attempt, or down for the round
    ),
)
#: One round of work: input, then passes, all with the round's produce
#: failure armed (so a batch can park, stay parked and have later runs queue
#: behind it), then a pass with nothing armed; then at most one event.
ROUND = st.tuples(
    st.lists(st.builds(keyed, st.integers(0, 6), st.integers(0, 40)),
             min_size=1, max_size=20),
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


class TestRunStagingMatchesPerRecordStaging:
    @given(
        guarantees,
        st.integers(0, 1),  # standbys
        st.integers(1, 2),  # replication factor of every topic
        st.booleans(),  # traced
        st.lists(ROUND, min_size=1, max_size=6).map(expand),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_every_step_equals_the_reference(
        self, guarantee, standbys, replication, traced, steps
    ):
        setup = (guarantee, standbys, replication, traced)
        lockstep(side(False, *setup), side(True, *setup), steps, observe)
