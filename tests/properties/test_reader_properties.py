"""No reader wedges on a position retention deleted.

Five library clients read a log partition through one
:class:`~repro.messaging.reader.PartitionReader`: the consumer, a job's
pass, changelog replay, MirrorMaker and the incremental fold.  Over a drawn
schedule of appends, retention sweeps and reads by any subset of them,
every read delivers exactly the model's retained offsets at or above the
reader's position, in order, once each; a reader whose position was swept
away jumps to the model's head and counts the gap; no read raises.

The model is the retention rule itself: five-record segments, one sealed
once a later record exists, and a sweep drops sealed segments from the
head while the newest record in each is older than the retention window.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.core.incremental import IncrementalFold
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.mirror import MirrorMaker
from repro.messaging.topic import TopicConfig
from repro.processing.job import JobConfig, JobRunner
from repro.processing.state import replay_changelog
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig

TP = TopicPartition("t", 0)
SEGMENT = 5
RETENTION = 1.0
BATCH = 7
CALLERS = ("consumer", "job", "replay", "mirror", "fold")

steps = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(1, 12)),
        st.tuples(st.just("sweep"), st.sampled_from([0.5, 1.0, 1.5, 4.0])),
        st.tuples(
            st.just("read"),
            st.lists(st.sampled_from(CALLERS), min_size=1, unique=True),
        ),
    ),
    min_size=1,
    max_size=30,
)


class Model:
    """The retained range of a one-partition topic under time retention."""

    def __init__(self, clock):
        self.clock = clock
        self.timestamps = []  # by offset
        self.head = 0

    def append(self, count):
        now = self.clock.now()
        self.timestamps += [now] * count

    def sweep(self):
        horizon = self.clock.now() - RETENTION
        end = len(self.timestamps)
        while (
            self.head + SEGMENT < end  # sealed: a later record exists
            and self.timestamps[self.head + SEGMENT - 1] < horizon
        ):
            self.head += SEGMENT


class RecordingStore:
    """Stands in for a store under replay: logs what reaches it."""

    def __init__(self):
        self.applied = []
        self.clears = 0

    def put_many(self, entries):
        self.applied += entries

    def clear(self):
        self.clears += 1


class Readers:
    """The five callers over one source partition, each read to the end."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=BATCH))
        self.consumer.assign([TP])
        self.processed = []

        processed = self.processed

        class Record:
            def process(self, record, collector):
                processed.append(record.offset)

        self.job = JobRunner(
            JobConfig(name="j", inputs=["t"], task_factory=Record),
            cluster,
            auto_advance_clock=False,
        )
        self.replay_position = None
        self.target = MessagingCluster(num_brokers=1, clock=SimClock())
        self.mirror = MirrorMaker(cluster, self.target, topics=["t"], batch=BATCH)
        self.mirrored = 0
        self.fold = IncrementalFold(
            cluster, "t", "fold", init=list,
            fold=lambda state, record: state + [record.offset], batch=BATCH,
        )

    def read(self, caller):
        """What ``caller`` delivers reading to the end, what it skipped, and
        (replay only) how often it cleared its store."""
        if caller == "consumer":
            before = self.consumer._reader.skipped
            delivered = []
            while batch := self.consumer.poll():
                delivered += [record.offset for record in batch]
            return delivered, self.consumer._reader.skipped - before, None
        if caller == "job":
            start, skipped = len(self.processed), 0
            while True:
                result = self.job.poll_once(max_messages=BATCH)
                skipped += result.records_skipped
                if not result.records_processed:
                    return self.processed[start:], skipped, None
        if caller == "replay":
            store = RecordingStore()
            self.replay_position, stats = replay_changelog(
                self.cluster, TP, store, self.replay_position,
                "read_uncommitted", BATCH,
            )
            assert stats.reseated == (store.clears == 1)
            return store.applied, stats.records_skipped, store.clears
        if caller == "mirror":
            skipped = 0
            while True:
                stats = self.mirror.poll()
                skipped += stats.records_skipped
                if not stats.records_mirrored:
                    break
            self.target.tick(0.0)
            fetched = self.target.fetch("t", 0, self.mirrored, 100_000)
            self.mirrored += len(fetched.records)
            return [record.value for record in fetched.records], skipped, None
        start = len(self.fold.state)
        report = self.fold.update()
        return self.fold.state[start:], report.records_skipped, None


def run(schedule):
    clock = SimClock()
    cluster = MessagingCluster(
        num_brokers=1, clock=clock, maintenance_interval=float("inf")
    )
    cluster.create_topic(
        TopicConfig(
            name="t",
            replication_factor=1,
            retention=RetentionConfig(retention_seconds=RETENTION),
            log=LogConfig(segment_max_messages=SEGMENT),
        )
    )
    model = Model(clock)
    readers = Readers(cluster)
    # The consumer, the job and the fold are placed at construction; the
    # mirror and replay at their first read.
    positions = {"consumer": 0, "job": 0, "replay": None, "mirror": None, "fold": 0}
    for action, arg in schedule:
        if action == "produce":
            end = len(model.timestamps)
            cluster.produce(
                "t", 0,
                [(i, i, clock.now(), {}) for i in range(end, end + arg)],
            )
            model.append(arg)
        elif action == "sweep":
            clock.advance(arg)
            cluster.broker(0).run_retention()
            model.sweep()
            assert cluster.beginning_offset(TP) == model.head
        else:
            for caller in arg:
                position = positions[caller]
                gap = 0
                if position is None:
                    position = model.head
                elif position < model.head:
                    gap = model.head - position
                    position = model.head
                end = len(model.timestamps)
                delivered, skipped, clears = readers.read(caller)
                assert delivered == list(range(position, end)), caller
                assert skipped == gap, caller
                if clears is not None:  # a reseated replay starts over
                    assert clears == (1 if gap else 0)
                positions[caller] = end


class TestNoReaderWedges:
    @given(steps)
    @settings(deadline=None)
    def test_every_caller_delivers_the_retained_offsets_and_counts_its_gaps(
        self, schedule
    ):
        run(schedule)
