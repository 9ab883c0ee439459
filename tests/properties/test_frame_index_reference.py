"""One batch index serves the frames the separate frame registry served.

A log used to keep its compressed frames in a registry of their own —
``(base, last, frame)`` runs beside the batch index, with their own
invalidation — and every replication hop shipped both lists.  A frame is
now a field of its batch-index entry.  The registry survives as
:class:`~tests.reference.log.ReferenceFrames`: pure Python, sharing nothing
with the index, fed by every log of a real rf=3 cluster the calls that fed
the registry (appends, a copy's shipped frames, truncation, compaction,
retention).

After every step of a random schedule — plain, idempotent and
transactional batches with codec ``none`` or ``zlib``, commit and abort
markers, acks ``leader`` / ``all``, replica fetches cut mid-batch, leader
crashes with clean and unclean elections, compaction, retention with and
without a cold tier — every replica must hold exactly the registry's
frames, the same objects, and serve each range a fetch can ask for with the
same frames; through the cluster too, from the cold tier up.  A replica's
read_uncommitted fetch must hide exactly the control markers, so a
frame-only entry folded as producer state shows.

:class:`TestFoldPitfalls` pins the three places where a frame on the entry
meets producer state.
"""

from __future__ import annotations

from array import array

from hypothesis import example, given, settings, strategies as st

from repro.common.records import TopicPartition
from repro.messaging.broker import Broker
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER
from repro.messaging.fetchbuffer import build_fetch_batches
from repro.messaging.topic import CLEANUP_COMPACT, TopicConfig
from repro.storage.log import LogConfig, PartitionLog
from repro.storage.retention import RetentionConfig
from repro.storage.tiered import TieredConfig
from tests.reference import examples
from tests.reference.cluster import IDEMPOTENT, NO_ID, TICK, TXN, Cluster, send
from tests.reference.log import ReferenceFrames

_MAX_OFFSET = 1 << 62


def shadowed_log_class(shipped: dict):
    """A ``PartitionLog`` subclass whose every instance carries a
    :class:`ReferenceFrames` and feeds it what the registry was fed.

    ``shipped`` maps ``id(messages)`` of a replica fetch's run to the
    registry frames the leader shipped beside it."""

    class ShadowedLog(PartitionLog):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.ref = ReferenceFrames()
            #: Truncations that took a registered frame with them.
            self.frames_truncated = 0

        def append_batch(self, entries, frame=None, sizes=None, *args, **kwargs):
            result = super().append_batch(entries, frame, sizes, *args, **kwargs)
            # Kept only when the whole batch landed (a raise registers none).
            if frame is not None and result.count == frame.count:
                self.ref.register(result.base_offset, result.last_offset, frame)
            return result

        def append_stored_batch(self, messages, offsets):
            result = super().append_stored_batch(messages, offsets)
            _run, frames = shipped.pop(id(messages), (None, ()))
            for base, last, frame in frames:  # fully appended coverage only
                if result.base_offset <= base and last <= result.last_offset:
                    self.ref.register(base, last, frame)
            return result

        def truncate_to(self, offset):
            held = len(self.ref.runs)
            self.ref.drop_overlapping(offset, _MAX_OFFSET)
            self.frames_truncated += len(self.ref.runs) < held
            return super().truncate_to(offset)

        def drop_segment(self, segment):
            last = segment.last_offset
            self.ref.drop_overlapping(
                segment.base_offset, last if last is not None else segment.base_offset
            )
            return super().drop_segment(segment)

        def rewrite_segment(self, segment, survivors):
            if segment.last_offset is not None:
                self.ref.drop_overlapping(segment.base_offset, segment.last_offset)
            return super().rewrite_segment(segment, survivors)

    return ShadowedLog


def shipping(broker: Broker, shipped: dict):
    """``broker.replica_fetch`` that also ships the leader registry's frames
    spanned by the run, as the two-list fetch did."""
    fetch = broker.replica_fetch

    def replica_fetch(partition, offset, follower_id, max_messages=1000):
        response = fetch(partition, offset, follower_id, max_messages)
        messages = response[0].messages
        shipped[id(messages)] = (
            messages, broker.replica(partition).log.ref.spanned_by(messages)
        )
        return response

    return replica_fetch


def as_entries(runs) -> list[tuple]:
    """Registry runs in the shape ``build_fetch_batches`` reads."""
    return [(base, last, None, None, None, frame) for base, last, frame in runs]


def shape(batches) -> list:
    """What a response is served as: each framed batch as its frame (by
    identity) and range, each plain batch as its offsets."""
    return [
        (batch.base_offset, batch.count, batch.frame)
        if batch.frame is not None
        else [m.offset for m in batch.messages]
        for batch in batches
    ]


def served(messages, entries) -> list:
    offsets = array("q", [m.offset for m in messages])
    return shape(build_fetch_batches("t", 0, messages, offsets, entries))


# -- the schedule ---------------------------------------------------------------------

#: One partition each: retention, compaction, retention onto a cold tier.
TOPICS = [
    TopicConfig(name=name, replication_factor=3, log=LogConfig(segment_max_messages=3),
                **config)
    for name, config in (
        ("plain", {"retention": RetentionConfig(retention_seconds=4.0)}),
        ("compact", {"cleanup_policy": CLEANUP_COMPACT}),
        ("tiered", {"retention": RetentionConfig(retention_seconds=4.0),
                    "tiered": TieredConfig()}),
    )
]
TPS = [TopicPartition(config.name, 0) for config in TOPICS]
PLAIN, COMPACT, TIERED = range(len(TOPICS))
ISOLATIONS = ("read_uncommitted", "read_committed")

#: Senders: a transactional producer, an idempotent one, and one with no
#: producer id at all.
topics = st.integers(0, len(TOPICS) - 1)
sends = st.tuples(
    st.just("send"), topics, st.sampled_from([TXN, IDEMPOTENT, NO_ID]),
    st.integers(1, 5), st.booleans(),
    st.sampled_from([ACKS_LEADER, ACKS_LEADER, ACKS_ALL]),
)
brokers = st.integers(0, 2)
steps = st.one_of(
    sends, sends, sends,
    st.tuples(st.just("end"), topics, st.just(TXN), st.sampled_from(["commit", "abort"])),
    st.just(TICK), st.just(TICK),
    st.tuples(st.just("kill"), brokers),
    st.tuples(st.just("restart"), brokers),
    st.tuples(st.just("maintain"), st.floats(0.0, 8.0)),
)
schedules = st.lists(steps, min_size=1, max_size=20)


def check(driven, few: int) -> None:
    cluster = driven.cluster
    for tp in TPS:
        for broker in cluster.brokers():
            check_replica(broker.replica(tp), few)
        leader_id = cluster.leader_of(tp.topic, 0)
        if leader_id is None:
            continue
        leader = cluster.broker(leader_id).replica(tp)  # through the cluster too
        for isolation in ISOLATIONS:
            got = leader.fetch(leader.earliest_offset, 1000, isolation=isolation).messages
            result = cluster.fetch(tp.topic, 0, leader.earliest_offset, max_messages=1000,
                                   isolation=isolation, lazy=True)
            want = served(got, as_entries(leader.log.ref.spanned_by(got)))
            assert shape(result.batches) == want


def check_replica(replica, few: int) -> None:
    log = replica.log
    # The index holds exactly the registry's frames: same runs, same objects.
    framed = [(base, last, f) for base, last, *_entry, f in log.batches() if f is not None]
    assert framed == log.ref.runs
    for offset in range(replica.earliest_offset, replica.log_end_offset + 1):
        raw = replica.fetch(offset, few, committed_only=False).messages
        read = replica.fetch(offset, few)
        got = read.messages
        # read_uncommitted hides the control markers and nothing else.
        want = [m for m in raw
                if m.offset < replica.high_watermark and "__ctrl" not in (m.headers or {})]
        assert [m.offset for m in got] == [m.offset for m in want]
        assert served(got, log.batches_spanned_by(offset, read.offsets)) == served(
            want, as_entries(log.ref.spanned_by(want))
        )


def run(schedule, unclean=False, max_fetch=2, few=2) -> Cluster:
    """Three topics of shadowed logs whose leaders ship the registry's
    frames beside every replica fetch; copies cut inside batches."""
    shipped: dict = {}
    driven = Cluster(
        TOPICS, unclean=unclean, max_fetch=max_fetch,
        log_class=shadowed_log_class(shipped),
    )
    for broker in driven.cluster.brokers():
        broker.replica_fetch = shipping(broker, shipped)
    check(driven, few)
    return driven.run(schedule, lambda driven, *_: check(driven, few))


# -- pinned schedules -----------------------------------------------------------------


def SEND(topic, sender, count=3, acks=ACKS_LEADER):
    return send(sender, count, topic=topic, framed=True, acks=acks)


#: Frames of every producer kind, copied in cuts, then compacted and retained
#: onto the cold tier.
EVERY_INVALIDATION = [
    SEND(PLAIN, NO_ID, 4), SEND(PLAIN, IDEMPOTENT, 4), SEND(PLAIN, TXN, 3), TICK, TICK,
    ("end", PLAIN, TXN, "abort"), TICK, TICK, TICK,
    SEND(COMPACT, NO_ID), SEND(COMPACT, IDEMPOTENT), SEND(COMPACT, NO_ID, 1),
    SEND(TIERED, NO_ID), SEND(TIERED, IDEMPOTENT, acks=ACKS_ALL), SEND(TIERED, NO_ID, 1),
    ("maintain", 6.0), TICK,
]

#: A framed batch no follower copies whole; the leader dies, an unclean
#: election crowns a follower holding a cut, the old leader truncates.
UNCLEAN_TRUNCATION = [
    SEND(PLAIN, NO_ID, 2, acks=ACKS_ALL), TICK, TICK,
    SEND(PLAIN, NO_ID, 4), SEND(PLAIN, IDEMPOTENT, 3), TICK,
    ("kill", 0), SEND(PLAIN, IDEMPOTENT, 2), TICK,
    ("restart", 0), TICK, TICK, TICK, TICK,
]


class TestOneIndexServesTheRegistrysFrames:
    @given(schedules, st.booleans(), st.integers(1, 4), st.integers(1, 4))
    @example(EVERY_INVALIDATION, False, 2, 2)
    @example(UNCLEAN_TRUNCATION, True, 2, 3)
    @settings(max_examples=examples(60), deadline=None)
    def test_every_replica_serves_the_registrys_frames_after_every_step(
        self, schedule, unclean, max_fetch, few
    ):
        run(schedule, unclean, max_fetch, few)

    def test_the_pinned_schedules_reach_what_they_are_pinned_for(self):
        def leader_and_followers(driven, tp):
            replicas = [broker.replica(tp) for broker in driven.cluster.brokers()]
            leader = replicas.pop(driven.cluster.leader_of(tp.topic, 0))
            return leader, replicas

        # Cut copies: the leader holds three frames, no follower any.
        copied = run(EVERY_INVALIDATION[:5])
        leader, followers = leader_and_followers(copied, TPS[PLAIN])
        assert len(leader.log.ref.runs) == 3
        assert all(f.log_end_offset > 0 and not f.log.ref.runs for f in followers)

        every = run(EVERY_INVALIDATION)
        for tp in TPS[COMPACT:]:
            # Compaction / archiving took the first two batches' frames: the
            # frame-only entry went, the idempotent one stayed; the active
            # segment's batch kept its frame.
            leader, _followers = leader_and_followers(every, tp)
            assert [
                (pid, frame is None) for _b, _l, pid, _s, _k, frame in leader.log.batches()
            ] == [(7, True), (None, False)]
        assert leader.earliest_offset < leader.log.log_start_offset  # archived

        crowned = run(UNCLEAN_TRUNCATION, unclean=True, max_fetch=2, few=3)
        assert sum(
            broker.replica(TPS[PLAIN]).log.frames_truncated
            for broker in crowned.cluster.brokers()
        ) > 0


# -- where a frame on the entry meets producer state -----------------------------------


def one_topic(**config):
    """One broker, one partition that retention trims after 4 s."""
    retention = RetentionConfig(retention_seconds=4.0)
    log = LogConfig(segment_max_messages=3)
    topic = TopicConfig(name="t", retention=retention, log=log, **config)
    return Cluster([topic], brokers=1)


class TestFoldPitfalls:
    def test_a_frame_only_entry_is_not_folded_as_a_marker(self):
        driven = Cluster([TopicConfig(name="t", replication_factor=2)], brokers=2)
        cluster = driven.run([SEND(0, NO_ID, 4)]).cluster
        cluster.run_until_replicated()
        leader_log = cluster.broker(cluster.leader_of("t", 0)).replica(
            TopicPartition("t", 0)
        ).log
        (frame,) = [entry[5] for entry in leader_log.batches()]
        for broker in cluster.brokers():
            replica = broker.replica(TopicPartition("t", 0))
            # Copied whole: the same frame object, and no producer state.
            assert replica.log.batches() == [(0, 3, None, None, None, frame)]
            for refold in (False, True):
                if refold:
                    replica._refold_producer_state()
                assert (replica._markers, replica._hidden, replica._windows) == ([], [], {})
                assert [m.offset for m in replica.fetch(0, 100).messages] == [0, 1, 2, 3]

    def test_a_window_entry_whose_frame_retention_cleared_still_answers(self):
        driven = one_topic()
        cluster = driven.run([SEND(0, IDEMPOTENT)]).cluster
        cluster.clock.advance(10.0)
        driven.step(SEND(0, IDEMPOTENT))
        replica = cluster.broker(0).replica(TopicPartition("t", 0))
        assert cluster.broker(0).run_retention() == 3
        assert replica.earliest_offset == 3
        assert replica.log.batches()[0] == (0, 2, 7, 0, "idempotent", None)
        assert driven.step(("retry", 0, IDEMPOTENT, 1)) == (0, 2, True)  # sequence 0

    def test_archived_runs_are_served_from_the_cold_tier_not_their_frames(self):
        driven = one_topic(tiered=TieredConfig())
        cluster = driven.run([SEND(0, NO_ID), SEND(0, IDEMPOTENT)]).cluster
        cluster.clock.advance(10.0)
        driven.step(SEND(0, NO_ID))
        replica = cluster.broker(0).replica(TopicPartition("t", 0))
        assert cluster.broker(0).run_retention() == 6
        assert (replica.earliest_offset, replica.log.log_start_offset) == (0, 6)
        # Still in reach of a cold read, the archived runs keep their entries
        # but not their frames: the idempotent entry stays frameless, the
        # frame-only one goes.
        assert [(e[:5], e[5] is None) for e in replica.log.batches()] == [
            ((3, 5, 7, 0, "idempotent"), True),
            ((6, 8, None, None, None), False),
        ]
        result = cluster.fetch("t", 0, 0, max_messages=100, lazy=True)
        assert [(b.frame is not None, b.count) for b in result.batches] == [
            (False, 6), (True, 3),
        ]
