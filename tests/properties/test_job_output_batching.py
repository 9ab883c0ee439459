"""Property-based tests: how much a pass processes is invisible in content.

A task's emits and changelog entries only stage while a poll pass runs and
leave it in one flush at pass end, so the pass size decides the batch size —
and nothing else.  ``poll_once(max_messages=1)`` is the per-record reference
(one request per write, what the job layer did before it batched): every
other pass size must produce the same derived feed, the same changelog and
the same store, under both processing guarantees.

The second half pins the crash window the flush opens: a crash after the
pass-end flush but before the checkpoint's commit replays the pass.
At-least-once may show its outputs twice, never lose one; exactly-once
shows each exactly once.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import raising, registry
from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.state import changelog_topic_name

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
        # No timestamps: the broker stamps changelog entries at flush time.
        "changelog": [
            [(r.offset, r.key, r.value) for r in records]
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
        assert sum(len(p) for p in reference["changelog"]) == n
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
                assert {kind for *_entry, kind in runs} == {"transactional"}
                assert [seq for _b, _l, _pid, seq, _k in runs] == sorted(
                    {seq for _b, _l, _pid, seq, _k in runs}
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
