"""No per-record pass where a column already answers.

``PartitionReplica.fetch`` hands the log's run straight through when nothing
in it can be hidden (no marker or aborted run intersects it, last offset
under the HW/LSO bound), and every ``ReadResult`` carries the stored-byte total the
segments' cumulative positions already give and the offset column the segments'
offsets already give.  Nothing downstream re-walks the records, so these
properties do: over random partition histories — plain,
idempotent, compressed, committed and aborted transactional batches, control
markers with and without a producer id, a high watermark that stops
mid-run, compaction gaps and a hot/cold tier boundary — the fetch must return
exactly what the per-record visibility filter it replaced returns (kept below
as the reference, over a model of the transactions the history ran: which
offsets each wrote, which it aborted — the replica's own bookkeeping is not
consulted), and every byte total and offset column must equal the
per-record ones, for hot, cold and stitched cold→hot reads, with and without
``max_bytes``.
"""

from array import array

from hypothesis import example, given, settings, strategies as st

from repro.baselines.dfs import SimulatedDFS
from repro.common.clock import SimClock
from repro.common.compression import compress_entries
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import OffsetOutOfRangeError
from repro.common.records import TopicPartition
from repro.common.serde import JsonSerde
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.fetchbuffer import build_fetch_batches
from repro.messaging.partition import PartitionReplica
from repro.messaging.producer import Producer
from repro.messaging.topic import TopicConfig
from repro.messaging.transactions import TransactionalProducer
from repro.storage.compaction import LogCompactor
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.retention import RetentionConfig, RetentionEnforcer
from repro.storage.tiered import ColdTier, DfsObjectStore, TieredConfig
from tests.reference import examples
from tests.reference.log import RecordsLog

TP = TopicPartition("t", 0)
ISOLATIONS = ("read_uncommitted", "read_committed")


pids = st.integers(0, 1)
appends = st.tuples(st.sampled_from(["plain", "idempotent", "zlib"]), st.integers(1, 6))
transactions = st.one_of(
    st.tuples(st.just("txn"), pids, st.integers(1, 4)),
    # Ends the oldest open transaction (a stray marker when none is open).
    st.tuples(st.just("end"), st.sampled_from(["commit", "abort"])),
    st.tuples(st.just("bare_marker")),
)
# ``ack``: the follower acknowledges up to a fraction of the leader's log, so
# the high watermark lands anywhere, usually mid-batch.
upkeep = st.one_of(
    st.tuples(st.just("ack"), st.floats(0.0, 1.0)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("archive")),
)
plain_histories = st.lists(st.one_of(appends, appends, upkeep), min_size=1, max_size=24)
histories = st.one_of(
    plain_histories,
    st.lists(st.one_of(appends, transactions, upkeep), min_size=1, max_size=24),
)
final_acks = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


def build(history, final_ack=1.0):
    """Replay ``history`` onto a leader replica whose one follower only
    acknowledges on ``ack`` steps and once at the end.  Returns the replica,
    the records the cold tier holds, in offset order, and the transaction
    model: ``(aborted offsets, first offset of each open transaction)``."""
    clock = SimClock()
    log = PartitionLog("t-0", LogConfig(segment_max_messages=4), clock=clock)
    replica = PartitionReplica(TP, 0, log)
    replica.cold_tier = ColdTier(
        log,
        DfsObjectStore(SimulatedDFS(clock)),
        namespace="t/0",
        config=TieredConfig(),
    )
    replica.become_leader(1, [0, 1])
    archived = []
    open_offsets = {}  # pid -> offsets its open transaction wrote, oldest first
    aborted = set()
    sequence = 0
    for step in [*history, ("ack", final_ack)]:
        now = clock.now()
        kind = step[0]
        if kind in ("plain", "idempotent", "zlib", "txn"):
            # Every third key is never written again, so compaction leaves
            # gaps between survivors instead of one dense tail.
            entries = [
                (f"k{n if n % 3 == 0 else n % 4}", f"v{n}" * (1 + n % 5), now, {})
                for n in range(sequence, sequence + step[-1])
            ]
            sequence += len(entries)
            if kind == "idempotent":
                replica.append_batch(entries, producer_id=7, producer_seq=sequence)
            elif kind == "txn":
                written = replica.append_batch(
                    entries, producer_id=100 + step[1], producer_seq=sequence,
                    transactional=True,
                )
                open_offsets.setdefault(100 + step[1], []).extend(
                    range(written.base_offset, written.last_offset + 1)
                )
            elif kind == "zlib":
                frame = compress_entries(entries, "zlib", 6)
                replica.append_batch(entries, frame=frame, sizes=frame.sizes)
            else:
                replica.append_batch(entries)
        elif kind == "end":
            pid = next(iter(open_offsets), 100)
            replica.append_batch([(None, None, now, {"__ctrl": step[1], "__pid": pid})])
            written = open_offsets.pop(pid, [])
            if step[1] == "abort":
                aborted.update(written)
        elif kind == "bare_marker":
            replica.append_batch([(None, None, now, {"__ctrl": "commit"})])
        elif kind == "ack":
            replica.record_follower_position(1, int(step[1] * log.log_end_offset))
        elif kind == "compact":
            LogCompactor(clock=clock).compact(log)
        else:
            before = log.all_messages()
            RetentionEnforcer(
                RetentionConfig(retention_seconds=0.0),
                clock,
                archiver=replica.cold_tier.archiver,
            ).enforce(log)
            archived += [m for m in before if m.offset < log.log_start_offset]
        clock.advance(1.0)
    still_open = [written[0] for written in open_offsets.values()]
    return replica, archived, (aborted, still_open)


def reference_fetch(replica, model, offset, max_messages, max_bytes, isolation):
    """``PartitionReplica.fetch`` as it was: one visibility check per record."""
    aborted, still_open = model
    if offset < replica.log.log_start_offset:
        result = replica.cold_tier.read_through(offset, max_messages, max_bytes)
    else:
        result = replica.log.read(offset, max_messages, max_bytes)
    bound = replica.high_watermark
    if isolation == "read_committed":
        bound = min([bound, *still_open])
    visible = []
    for message in result.messages:
        if message.offset >= bound:
            break
        if "__ctrl" in message.headers:
            continue
        if isolation == "read_committed" and message.offset in aborted:
            continue
        visible.append(message)
    return visible, max(min(result.next_offset, bound), offset)


def reference_prefix(records, max_messages, max_bytes):
    """The budget rule, one record at a time: records are delivered in order
    while they fit, and the first one always is (Kafka semantics)."""
    out = []
    budget = max_bytes if max_bytes is not None else float("inf")
    for record in records:
        if len(out) >= max_messages or (record.stored_size > budget and out):
            break
        out.append(record)
        budget -= record.stored_size
    return out


def outcome(read, *args):
    try:
        return read(*args)
    except OffsetOutOfRangeError as exc:
        return type(exc)


def stored(messages):
    return sum(m.stored_size for m in messages)


class TestFetchEqualsThePerRecordFilter:
    @given(histories, final_acks, st.integers(1, 9), st.integers(0, 400))
    @settings(max_examples=examples(150), deadline=None)
    def test_same_objects_same_next_offset_same_bytes(
        self, history, final_ack, few, budget
    ):
        replica, _archived, model = build(history, final_ack)
        framed = any(step[0] == "zlib" for step in history)
        for offset in range(replica.earliest_offset, replica.log_end_offset + 1):
            for max_messages, max_bytes in ((1000, None), (few, budget)):
                for isolation in ISOLATIONS:
                    want = outcome(
                        reference_fetch, replica, model, offset, max_messages,
                        max_bytes, isolation,
                    )
                    got = outcome(
                        replica.fetch, offset, max_messages, max_bytes, True, isolation
                    )
                    if want is OffsetOutOfRangeError:
                        assert got is want
                        continue
                    visible, next_offset = want
                    assert len(got.messages) == len(visible)
                    # The log's own records; a run held as its frame is
                    # built per read, equal to the records it stands for.
                    assert got.messages == visible
                    assert [m.stored_size for m in got.messages] == [
                        m.stored_size for m in visible
                    ]
                    if not framed:
                        assert all(a is b for a, b in zip(got.messages, visible))
                    assert got.next_offset == next_offset
                    assert got.stored_bytes == stored(visible)
                    assert list(got.offsets) == [m.offset for m in visible]

    @given(plain_histories)
    @settings(max_examples=examples(60), deadline=None)
    def test_untouched_run_is_passed_through_not_copied(self, history):
        """With no marker in the run and the run under the bound, the fetch
        result *is* the log's list: no per-record pass ran."""
        replica, _archived, _model = build(history)
        seen = []
        read = replica.log.read

        def recording_read(*args):
            seen.append(read(*args))
            return seen[-1]

        replica.log.read = recording_read
        for isolation in ISOLATIONS:
            result = replica.fetch(
                replica.log.log_start_offset, 1000, isolation=isolation
            )
            assert result.messages is seen[-1].messages


    def test_a_marker_elsewhere_does_not_cost_a_run_its_pass_through(self):
        """Hidden runs are intervals, so only a read that intersects one is
        sliced — not every read after the partition's first marker."""
        history = [("txn", 0, 2), ("end", "abort"), ("txn", 1, 2), ("end", "commit"),
                   ("plain", 6)]
        replica, _archived, _model = build(history)
        runs = []  # the list each log read returned
        read = replica.log.read

        def recording_read(*args):
            result = read(*args)
            runs.append(result.messages)
            return result

        replica.log.read = recording_read
        for isolation in ISOLATIONS:
            after = replica.fetch(6, 1000, isolation=isolation)
            assert after.messages is runs[-1] and len(after.messages) == 6
            across = replica.fetch(0, 1000, isolation=isolation)
            assert across.messages is not runs[-1]
            hidden = {2, 5} | ({0, 1} if isolation == "read_committed" else set())
            assert [m.offset for m in across.messages] == [
                o for o in range(12) if o not in hidden
            ]


class TestStoredBytesIsAColumn:
    @given(histories, st.integers(1, 9), st.integers(0, 400))
    @settings(max_examples=examples(150), deadline=None)
    def test_hot_cold_and_stitched_reads(self, history, few, budget):
        replica, archived, _model = build(history)
        log, tier = replica.log, replica.cold_tier
        hot = log.all_messages()
        for max_messages, max_bytes in ((1000, None), (few, budget), (few, None)):
            for offset in range(log.log_start_offset, log.log_end_offset + 1):
                result = log.read(offset, max_messages, max_bytes)
                want = reference_prefix(
                    [m for m in hot if m.offset >= offset], max_messages, max_bytes
                )
                assert result.messages == want
                assert result.stored_bytes == stored(want)
                follower = replica.fetch(offset, max_messages, max_bytes, False)
                assert follower.stored_bytes == stored(follower.messages)
            if not archived:
                continue
            for offset in range(archived[0].offset, tier.manifest.end_offset):
                tail = [m for m in archived if m.offset >= offset]
                cold = tier.reader.read(offset, max_messages, max_bytes)
                want = reference_prefix(tail, max_messages, max_bytes)
                assert cold.messages == want
                assert cold.stored_bytes == stored(want)
                assert list(cold.offsets) == [m.offset for m in want]

                stitched = tier.read_through(offset, max_messages, max_bytes)
                left = None if max_bytes is None else max_bytes - stored(want)
                if (
                    len(want) == len(tail)
                    and len(want) < max_messages
                    and (left is None or left > 0)
                    and tier.manifest.end_offset >= log.log_start_offset
                ):
                    want = want + reference_prefix(hot, max_messages - len(want), left)
                assert stitched.messages == want
                assert stitched.stored_bytes == stored(want)
                assert list(stitched.offsets) == [m.offset for m in want]


# -- a kept frame reads as the records it stands for ----------------------------------


def replica_set(log_class):
    """A leader replica with a cold tier and two followers, every log of
    ``log_class`` on a clock of its own."""
    clock = SimClock()
    config = LogConfig(segment_max_messages=4, segment_max_bytes=400)
    replicas = []
    for broker_id in range(3):
        log = log_class(f"t-0@{broker_id}", config, clock=clock, partition=TP)
        replicas.append(PartitionReplica(TP, broker_id, log))
    leader = replicas[0]
    leader.cold_tier = ColdTier(
        leader.log,
        DfsObjectStore(SimulatedDFS(clock)),
        namespace="t/0",
        config=TieredConfig(),
    )
    leader.become_leader(1, [0, 1, 2])
    for follower in replicas[1:]:
        follower.become_follower(1)
    return clock, replicas


framed_steps = st.one_of(
    st.tuples(st.just("append"), st.booleans(), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("append"), st.just(True), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("marker")),
    st.tuples(st.just("ack"), st.floats(0.0, 1.0)),
    st.tuples(st.just("replicate"), st.integers(1, 5)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("archive")),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
)


class Twins:
    """The same history driven into a replica set of ordinary logs and one
    of :class:`RecordsLog`\\ s, in lockstep."""

    def __init__(self) -> None:
        self.sets = [replica_set(PartitionLog), replica_set(RecordsLog)]
        self.sent = 0  # records appended so far
        self.seq = 0  # the idempotent producer's next sequence

    def step(self, step) -> None:
        batch = None
        if step[0] == "append":
            _kind, framed, count, idempotent = step
            now = self.sets[0][0].now()
            entries = [
                (
                    f"k{n % 4}",
                    {"n": n, "pad": "x" * (n % 7)},
                    None if n % 5 == 0 else now - n % 3,
                    {"h": n} if n % 2 else {},
                )
                for n in range(self.sent, self.sent + count)
            ]
            # One request, so both sets are handed the same frame object.
            request = {}
            if framed:
                request["frame"] = compress_entries(entries, "zlib", 6)
            if idempotent:
                request.update(producer_id=7, producer_seq=self.seq)
            batch = entries, request
            self.sent += count
            self.seq += 1
        for clock, replicas in self.sets:
            self._apply(step, batch, clock, replicas)

    def _apply(self, step, batch, clock, replicas) -> None:
        leader, followers = replicas[0], replicas[1:]
        log = leader.log
        now = clock.now()
        kind = step[0]
        if kind == "append":
            entries, request = batch
            leader.append_batch(entries, **request)
        elif kind == "marker":
            leader.append_batch([(None, None, now, {"__ctrl": "commit"})])
        elif kind == "ack":
            for follower in followers:
                leader.record_follower_position(
                    follower.broker_id, int(step[1] * log.log_end_offset)
                )
        elif kind == "replicate":
            for follower in followers:
                offset = follower.log_end_offset
                if not leader.earliest_offset <= offset <= log.log_end_offset:
                    continue  # a real follower would truncate or reset first
                read = leader.fetch(offset, step[1], committed_only=False)
                if read.messages:
                    follower.replicate_batch(
                        read, log.batches_spanned_by(offset, read.offsets)
                    )
        elif kind == "compact":
            for replica in replicas:
                LogCompactor(clock=clock).compact(replica.log)
        elif kind == "archive":
            RetentionEnforcer(
                RetentionConfig(retention_seconds=0.5),
                clock,
                archiver=leader.cold_tier.archiver,
            ).enforce(log)
            leader.trim_producer_state()
        else:
            for replica in replicas:
                lo = replica.log.log_start_offset
                replica.truncate_to(
                    lo + int(step[1] * (replica.log_end_offset - lo))
                )
        clock.advance(1.0)

    def check(self, few: int, budget: int) -> None:
        (_c, framed), (_r, records) = self.sets
        for mine, theirs in zip(framed, records):
            same_run(mine.log.all_messages(), theirs.log.all_messages())
            assert mine.log.batches() == theirs.log.batches()
            assert mine.high_watermark == theirs.high_watermark
        leader, reference = framed[0], records[0]
        for timestamp in range(-3, int(self.sets[0][0].now()) + 2):
            assert leader.log.offset_for_timestamp(
                timestamp
            ) == reference.log.offset_for_timestamp(timestamp)
            assert leader.cold_tier.offset_for_timestamp(
                timestamp
            ) == reference.cold_tier.offset_for_timestamp(timestamp)
        start = leader.earliest_offset
        for offset in range(start, leader.log_end_offset + 1):
            for max_messages, max_bytes in ((1000, None), (few, budget), (few, None)):
                if offset >= leader.log.log_start_offset:
                    same_read(
                        leader.log.read(offset, max_messages, max_bytes),
                        reference.log.read(offset, max_messages, max_bytes),
                    )
                for isolation in ISOLATIONS:
                    got = leader.fetch(
                        offset, max_messages, max_bytes, True, isolation
                    )
                    want = reference.fetch(
                        offset, max_messages, max_bytes, True, isolation
                    )
                    same_read(got, want)
                    # What a consumer is served: the same frames, and the
                    # same records out of them.
                    served = [
                        build_fetch_batches(
                            "t", 0, read.messages, read.offsets,
                            replica.log.batches_spanned_by(offset, read.offsets),
                        )
                        for read, replica in ((got, leader), (want, reference))
                    ]
                    assert [b.frame for b in served[0]] == [b.frame for b in served[1]]
                    delivered = [
                        [r for b in batches for r in b.inflate(DEFAULT_COST_MODEL)[0]]
                        for batches in served
                    ]
                    assert delivered[0] == delivered[1]


def same_run(got, want) -> None:
    """Equal records, ``stored_size`` included (equality leaves it out)."""
    assert got == want
    assert [m.stored_size for m in got] == [m.stored_size for m in want]


def same_read(got, want) -> None:
    same_run(got.messages, want.messages)
    assert got.offsets == want.offsets == array("q", [m.offset for m in want.messages])
    assert (got.next_offset, got.stored_bytes, got.log_end_offset) == (
        want.next_offset, want.stored_bytes, want.log_end_offset
    )
    assert got.latency == want.latency


class TestFramedRunsReadAsRecords:
    """A log that holds a kept frame as itself reads, serves, copies,
    truncates, compacts and archives exactly like one that held a record
    object per framed record (:class:`RecordsLog`): random histories of
    framed and plain batches, idempotent or not, commit markers, acks that
    stop mid-frame, rf=3 copies cut mid-frame, compaction, retention onto
    the cold tier and truncation; after every step, every read at every
    offset — hot, cold or stitched, whole or budgeted, high-watermark and
    marker filtered — returns equal records with equal stored sizes, bytes,
    next offset and simulated latency, a consumer is served the same frames
    and records, every timestamp lookup lands on the same offset, and every
    replica lists the same records and the same batch index (the same frame
    objects)."""

    @given(
        st.lists(framed_steps, min_size=1, max_size=18),
        st.integers(1, 7),
        st.integers(0, 300),
    )
    @settings(max_examples=examples(60), deadline=None)
    # Compaction empties offsets 1-3 of the first segment before it is
    # archived, so offset 1 lies between the archive's end and the hot
    # log's start: a fetch there resumes at the hot log's first record.
    @example(
        steps=[("marker",), ("append", False, 2, False), ("append", False, 5, False),
               ("compact",), ("archive",)],
        few=1,
        budget=0,
    )
    def test_every_read_equals_the_records_log(self, steps, few, budget):
        twins = Twins()
        for step in steps:
            twins.step(step)
            twins.check(few, budget)

    def test_frames_are_held_as_frames(self):
        """The pinned shape: a framed batch copied whole to both followers
        leaves no record object in any replica's segments, and a copy cut
        mid-frame holds the cut as records."""
        twins = Twins()
        for step in [("append", True, 6, False), ("replicate", 10),
                     ("append", True, 6, False), ("replicate", 3)]:
            twins.step(step)
        twins.check(2, 100)
        (_c, framed), _reference = twins.sets
        leader, follower, _other = framed
        assert all(not s._messages for s in leader.log.segments())
        held = [m for s in follower.log.segments() for m in s._messages]
        assert [m.offset for m in held] == [6, 7, 8]


# -- a delivered list is the caller's own ----------------------------------------------

#: Appended to every delivered list once it has been compared, so a list the
#: log, a cache or a buffer still reads shows up as a record that was never
#: written.
SENTINEL = object()
SERDE = JsonSerde()

owned_steps = st.one_of(
    st.tuples(
        st.just("send"), st.integers(0, 1), st.integers(1, 5),
        st.sampled_from(["none", "zlib:6"]),
    ),
    st.tuples(
        st.just("txn"), st.integers(0, 1), st.integers(1, 3),
        st.sampled_from(["commit", "abort"]),
    ),
    st.tuples(st.just("compact")),
    st.tuples(st.just("archive")),
)


class World:
    """A one-broker cluster with a tiered two-partition topic (four records
    a segment, two seconds of hot retention), and a consumer per isolation
    level, value serde and poll size."""

    def __init__(self, few: int) -> None:
        self.clock = SimClock()
        self.cluster = cluster = MessagingCluster(num_brokers=1, clock=self.clock)
        cluster.create_topic(
            TopicConfig(
                name="t",
                num_partitions=2,
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=2.0),
                log=LogConfig(segment_max_messages=4),
                tiered=TieredConfig(),
            )
        )
        self.partitions = [TopicPartition("t", p) for p in range(2)]
        self.consumers = []
        for isolation in ISOLATIONS:
            for serde in (None, SERDE):
                for size in (few, 1000):
                    consumer = Consumer(
                        cluster,
                        ConsumerConfig(
                            max_poll_messages=size,
                            isolation_level=isolation,
                            value_serde=serde,
                        ),
                    )
                    consumer.assign(self.partitions)
                    self.consumers.append(consumer)
        self.txns = 0

    def replicas(self):
        broker = self.cluster.broker(0)
        return [broker.replica(tp) for tp in self.partitions]

    def step(self, step, sent: int) -> None:
        kind = step[0]
        # Values travel serialized, so consumers with and without the serde
        # read the same log; three keys take turns, so compaction has
        # something to remove.
        values = [
            (f"k{n % 3}", SERDE.serialize({"n": n, "pad": "x" * (n % 5)}))
            for n in range(sent, sent + (step[2] if len(step) > 2 else 0))
        ]
        if kind == "send":
            _kind, partition, _count, compression = step
            producer = Producer(
                self.cluster,
                ProducerConfig(linger_messages=len(values), compression=compression),
            )
            for key, value in values:
                producer.send("t", value, key=key, partition=partition)
            producer.flush()
        elif kind == "txn":
            _kind, partition, _count, outcome = step
            self.txns += 1
            producer = TransactionalProducer(
                self.cluster, f"tx{self.txns}", linger_messages=len(values)
            )
            producer.begin()
            for key, value in values:
                producer.send("t", value, key=key, partition=partition)
            if outcome == "commit":
                producer.commit()
            else:
                producer.abort()
        elif kind == "compact":
            for replica in self.replicas():
                LogCompactor(clock=self.clock).compact(
                    replica.log, bounds=replica.compaction_bounds
                )
        else:
            self.cluster.broker(0).run_retention()
        self.clock.advance(1.0)

    def deliveries(self, few: int):
        """Every list a consumer's rewind over the whole topic and a
        non-lazy fetch at every offset return, in one fixed order."""
        for consumer in self.consumers:
            for tp in self.partitions:
                consumer.seek_to_beginning(tp)
            for _ in range(200):
                records = consumer.poll()
                drained = not records
                yield records
                if drained:
                    break
        cluster = self.cluster
        for tp in self.partitions:
            start = cluster.beginning_offset(tp)
            for offset in range(start, cluster.end_offset(tp) + 1):
                for max_messages in (few, 4, 1000):
                    for isolation in ISOLATIONS:
                        yield cluster.fetch(
                            "t", tp.partition, offset, max_messages,
                            isolation=isolation,
                        ).records

    def held(self):
        """What each partition's log and cold tier hold."""
        out = []
        for replica in self.replicas():
            tier = replica.cold_tier
            archived = (
                list(tier.reader.read(tier.manifest.start_offset, 10**6).messages)
                if tier.manifest.start_offset is not None
                else []
            )
            out.append((replica.log.all_messages(), archived))
        return out


class TestDeliveredListsAreTheCallersOwn:
    """A list ``Consumer.poll`` or a non-lazy ``MessagingCluster.fetch``
    returns is the caller's: clearing it and appending to it changes
    nothing any later read returns.  Two worlds run the same history —
    plain and zlib batches, committed and aborted transactions with their
    markers, compaction, retention onto the cold tier — and after every step
    each reads everything back, hot, cold and stitched, through consumers
    with and without a value serde under both isolation levels and through
    fetches at every offset.  The first world clears every list it is
    handed and appends a sentinel to it once it has been compared with the
    twin's; the second leaves them alone.  Every read must still equal the
    twin's, and both worlds' segments and archives must hold the same
    records."""

    @given(st.lists(owned_steps, min_size=1, max_size=10), st.integers(1, 5))
    @settings(max_examples=examples(30), deadline=None)
    def test_clearing_what_was_delivered_changes_no_later_read(self, steps, few):
        abused, untouched = World(few), World(few)
        sent = 0
        # Each pass seeks back over what the one before it cleared; a last
        # send gives every history a record, and one more pass reads back
        # what the last step's pass cleared.
        for step in [*steps, ("send", 0, 1, "none"), None]:
            if step is not None:
                abused.step(step, sent)
                untouched.step(step, sent)
                sent += step[2] if len(step) > 2 else 0
            for got, want in zip(
                abused.deliveries(few), untouched.deliveries(few), strict=True
            ):
                assert got == want
                assert [(type(r), r.size) for r in got] == [
                    (type(r), r.size) for r in want
                ]
                got.clear()
                got.append(SENTINEL)
            assert abused.held() == untouched.held()
