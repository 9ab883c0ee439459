"""Producer state as batch metadata equals the per-record rule it replaced.

Before this suite's PR, producer state travelled *on the records*: a
transactional client stamped ``__pid`` / ``__txn`` on every entry, the leader
stamped ``__pid`` / ``__seq``, and every replica rebuilt dedup and transaction
state by reading those headers back, one record at a time, filtering fetches
with a per-record loop.  That rule survives as
:class:`~tests.reference.replica.ReferenceReplica` — pure Python, no logs,
sharing nothing with the code under test — and runs beside every replica
of a real rf=3 partition: each call a replica gets
(append, copy, truncate, role and watermark changes) its reference gets too.

After every step of a random schedule — idempotent and transactional batches
from interleaved producers, plain and ``zlib`` framed, same-sequence retries,
commit and abort markers, replica fetches cut mid-batch by a small
``max_fetch``, leader crashes with clean and unclean elections, truncations,
retention and compaction — every replica must agree with its reference, under
both isolation levels, on: the offsets, keys, values, timestamps and *user*
headers a fetch delivers (the reference's headers minus its stamps), where
the fetch says to continue, the last stable offset, the high watermark, the
log end, and every dedup answer.  The leader is also read through
``MessagingCluster.fetch``, so frame-served records are covered.

Two divergences are intended and asserted, not masked:

* **truncation trims producer state.**  The reference, like the code it was
  copied from, keeps sequences and open transactions whose records a
  truncation removed.  After its truncation the reference is therefore
  re-derived from the records it still has — what the per-record rule yields
  on a replica that never saw the tail — and the phantom state it dropped is
  counted; pinned schedules assert that count is not zero.
* **the dedup window evicts.**  The reference remembers every batch's offsets
  forever.  A retry it answers ``duplicate`` may be refused by the replica
  (``ConfigError``, nothing appended) only when the sequence is older than the
  producer's window.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER
from repro.messaging.partition import DEDUP_WINDOW_BATCHES, ROLE_LEADER, PartitionReplica
from repro.messaging.topic import CLEANUP_COMPACT, CLEANUP_DELETE, TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from tests.reference import examples
from tests.reference.cluster import TICK, Cluster, send
from tests.reference.replica import STAMPS, ReferenceReplica

TP = TopicPartition("t", 0)
ISOLATIONS = ("read_uncommitted", "read_committed")


def shadowed_replica_class():
    """A ``PartitionReplica`` subclass, fresh per cluster, whose every
    instance carries a :class:`ReferenceReplica` and hands it each call."""
    # (partition, offset) -> (the record the leader appended, its stamped
    # reference twin): a copy finds its twin by where the leader put it,
    # and must equal what the leader appended (records held as a frame are
    # built per read, so identity does not carry them).
    twins: dict[tuple, tuple] = {}

    class ShadowedReplica(PartitionReplica):
        def __init__(self, partition, broker_id, log) -> None:
            super().__init__(partition, broker_id, log)
            self.ref = ReferenceReplica(broker_id)
            #: Retries refused because the window had evicted them.
            self.evicted_refusals = 0

        def append_batch(
            self, entries, epoch=None, producer_id=None, producer_seq=None,
            frame=None, sizes=None, transactional=False,
        ):
            self._check_leader(epoch)
            try:
                want = self.ref.append_batch(
                    entries, producer_id, producer_seq, transactional
                )
            except ConfigError as exc:
                want = type(exc)
            before = self.log.log_end_offset
            try:
                result = super().append_batch(
                    entries, epoch, producer_id, producer_seq, frame, sizes,
                    transactional,
                )
            except ConfigError:
                assert self.log.log_end_offset == before  # never re-appends
                if want is not ConfigError:
                    # Intended divergence 2: the reference still remembers
                    # the batch; the replica may only have forgotten it by
                    # evicting it from the producer's window.
                    assert want[2], "refused a batch the reference appended"
                    window = self._windows[producer_id]
                    assert len(window) == DEDUP_WINDOW_BATCHES
                    assert producer_seq < window[0][3]
                    self.evicted_refusals += 1
                raise
            assert (result.base_offset, result.last_offset, result.duplicate) == want
            if not result.duplicate:
                landed = self.log.read(result.base_offset, len(entries)).messages
                for message, twin in zip(landed, self.ref.records[-len(entries):]):
                    assert message.offset == twin.offset
                    twins[self.partition, message.offset] = (message, twin)
            return result

        def replicate_batch(self, read, entries=None) -> float:
            latency = super().replicate_batch(read, entries)
            copied = []
            for m in read.messages:
                appended, twin = twins[self.partition, m.offset]
                assert m == appended and m.stored_size == appended.stored_size
                copied.append(twin)
            self.ref.replicate(copied)
            return latency

        def truncate_to(self, offset) -> int:
            removed = super().truncate_to(offset)
            self.ref.truncate_to(offset)
            self.ref.rederive_after_truncation()
            return removed

    def forwarded(name):
        def method(self, *args, **kwargs):
            result = getattr(PartitionReplica, name)(self, *args, **kwargs)
            getattr(self.ref, name)(*args, **kwargs)
            return result

        return method

    # Roles, follower positions, the ISR and the HW: the same rules on both.
    for name in ("become_leader", "become_follower", "record_follower_position",
                 "set_isr", "update_high_watermark"):
        setattr(ShadowedReplica, name, forwarded(name))
    return ShadowedReplica


# -- the schedule ---------------------------------------------------------------------

#: Senders: two transactional producers, one idempotent, one with no producer
#: id at all (``None``), interleaved on the one partition.
sends = st.tuples(
    st.just("send"), st.just(0), st.integers(0, 3), st.integers(1, 4),
    st.booleans(), st.sampled_from([ACKS_LEADER, ACKS_LEADER, ACKS_ALL]),
)
retries = st.tuples(st.just("retry"), st.just(0), st.integers(0, 2), st.integers(0, 7))
ends = st.tuples(
    st.just("end"), st.just(0), st.integers(0, 1), st.sampled_from(["commit", "abort"])
)
brokers = st.integers(0, 2)
steps = st.one_of(
    sends, sends, sends, retries, ends, ends,
    st.just(TICK), st.just(TICK),
    st.tuples(st.just("kill"), brokers),
    st.tuples(st.just("restart"), brokers),
    st.tuples(st.just("maintain"), st.floats(0.0, 8.0)),
)
schedules = st.lists(steps, min_size=1, max_size=28)
policies = st.sampled_from([CLEANUP_DELETE, CLEANUP_COMPACT])


def replicas(driven):
    return [broker.replica(TP) for broker in driven.cluster.brokers()]


def check(driven, few: int, step=None) -> None:
    if step is not None and step[0] == "maintain":
        # On a healthy cluster: compaction removes records, and a replica
        # that copies them afterwards learns less from them under the
        # per-record rule than one that copied before.  Retention and
        # compaction are the log's: the reference lists what it lists.
        for replica in replicas(driven):
            replica.ref.follow_storage(replica.log)
    for replica in replicas(driven):
        ref = replica.ref
        log = replica.log
        assert [m.offset for m in log.all_messages()] == [r.offset for r in ref.records]
        assert replica.log_end_offset == ref.next_offset
        assert replica.high_watermark == ref.high_watermark
        assert replica.last_stable_offset == ref.last_stable_offset
        for message in log.all_messages():
            if "__ctrl" not in message.headers:
                assert not set(message.headers) & set(STAMPS)
        for isolation in ISOLATIONS:
            for offset in range(log.log_start_offset, log.log_end_offset + 1):
                for max_messages in (1000, few):
                    got = replica.fetch(offset, max_messages, None, True, isolation)
                    delivered = [(m.offset, m.key, m.value, m.timestamp, m.headers)
                                 for m in got.messages]
                    want = ref.fetch(offset, max_messages, isolation)
                    assert (delivered, got.next_offset) == want
        check_dedup(replica)
        check_state_is_a_fold_of_the_index(replica)
    leader_id = driven.cluster.leader_of("t", 0)
    if leader_id is not None:  # read through the cluster too
        ref = replicas(driven)[leader_id].ref
        for isolation in ISOLATIONS:
            result = driven.cluster.fetch(
                "t", 0, ref.log_start, max_messages=1000, isolation=isolation
            )
            delivered = [(r.offset, r.key, r.value, r.timestamp, dict(r.headers))
                         for r in result.records]
            want = ref.fetch(ref.log_start, 1000, isolation)
            assert (delivered, result.next_offset) == want


def check_dedup(replica) -> None:
    """Every answer the replica can still give is the reference's, and
    what it cannot give any more is older than the window."""
    ref = replica.ref
    assert set(replica._windows) == set(ref.producer_seqs)
    for pid, window in replica._windows.items():
        assert 1 <= len(window) <= DEDUP_WINDOW_BATCHES
        assert window[-1][3] == ref.producer_seqs[pid]
        answers = {seq: [base, last] for base, last, _pid, seq, _kind in window}
        assert len(answers) == len(window)
        for (ref_pid, seq), offsets in ref.producer_results.items():
            if ref_pid == pid:
                if seq in answers:
                    assert answers.pop(seq) == offsets
                else:
                    assert seq < window[0][3]  # intended divergence 2
        assert not answers


def check_state_is_a_fold_of_the_index(replica) -> None:
    def state():
        return (
            {pid: list(w) for pid, w in replica._windows.items()},
            dict(replica._open_txns),
            list(replica._markers),
            list(replica._hidden),
        )

    incremental = state()
    replica._refold_producer_state()
    assert state() == incremental
    entries = replica.log.batches()
    assert all(a[1] < b[0] for a, b in zip(entries, entries[1:]))
    assert all(base <= last < replica.log_end_offset for base, last, *_ in entries)


def run(schedule, policy=CLEANUP_DELETE, max_fetch=2, few=2) -> Cluster:
    """One rf=3 partition of shadowed replicas; unclean elections allowed,
    copies cut inside batches by ``max_fetch``."""
    topic = TopicConfig(
        name="t",
        replication_factor=3,
        cleanup_policy=policy,
        retention=RetentionConfig(
            retention_seconds=4.0 if policy == CLEANUP_DELETE else None
        ),
        log=LogConfig(segment_max_messages=3),
    )
    driven = Cluster(
        [topic], unclean=True, max_fetch=max_fetch,
        replica_class=shadowed_replica_class(),
    )
    check(driven, few)
    return driven.run(schedule, lambda driven, step, _: check(driven, few, step))


# -- pinned schedules -----------------------------------------------------------------

#: A batch of four under ``max_fetch=2``: followers copy it in two cuts.
SPLIT_COPY = [
    send(2, 4), TICK, TICK, send(0, 4), TICK, ("end", 0, 0, "abort"), TICK, TICK,
]

#: Two transactions interleaved record-run by record-run; one aborts.
INTERLEAVED_ABORT = [
    send(0, 2), send(1, 2), send(3, 1), send(0, 1), send(1, 2),
    ("end", 0, 0, "abort"), send(3, 2), ("end", 0, 1, "commit"),
    TICK, TICK, TICK, TICK,
]

#: The leader takes a transactional and an idempotent batch no follower
#: copies whole, shrinks the ISR to itself and dies; an unclean election
#: crowns a follower that holds a cut of the first and nothing of the second.
UNCLEAN_ELECTION_CROWNS_A_CUT = [
    send(3, 2), TICK, TICK,
    send(0, 3), send(2, 3), TICK,  # each follower copies 2 of the 6
    ("kill", 0), send(3, 2), send(1, 2), TICK,
    ("restart", 0), TICK, TICK, TICK, ("retry", 0, 0, 0), ("retry", 0, 2, 0),
    ("end", 0, 0, "abort"), TICK, TICK,
]

#: The leader dies with the last record of a transactional batch on no
#: follower; it returns under the new epoch and truncates that record, and
#: the sequence's answer and the transaction shrink with it.
DEPOSED_LEADER_TRUNCATES = [
    send(3, 2), TICK, TICK,
    send(0, 3), TICK,  # each follower copies 2 of the 3
    ("kill", 0), send(3, 2), send(1, 2), TICK,
    ("restart", 0), TICK, TICK, TICK, ("retry", 0, 0, 0),
    ("end", 0, 0, "abort"), ("end", 0, 1, "commit"), TICK, TICK,
]

#: The leader dies holding a whole idempotent batch and a whole open
#: transaction nobody copied; it returns and truncates both away.
DEPOSED_LEADER_LOSES_WHOLE_BATCHES = [
    send(3, 2), TICK, TICK,
    send(2, 2), send(0, 2),
    ("kill", 0), send(3, 1), ("restart", 0), TICK, TICK,
    ("retry", 0, 2, 0), ("retry", 0, 0, 0), ("end", 0, 0, "commit"), TICK, TICK,
]

#: Seven batches from one producer, then retries reaching back past the window.
WINDOW_EVICTION = [send(2, 1) for _ in range(7)] + [
    ("retry", 0, 2, 0), ("retry", 0, 2, 4), ("retry", 0, 2, 5), ("retry", 0, 2, 6),
    TICK,
]

#: Transactions old enough for retention to drop, then a late retry.
RETENTION_TRIMS = [
    send(0, 3), ("end", 0, 0, "abort"), send(1, 3), send(2, 3), ("end", 0, 1, "commit"),
    send(0, 2), ("maintain", 6.0), send(3, 3), send(3, 3), ("maintain", 6.0),
    ("retry", 0, 2, 0), ("retry", 0, 0, 1), ("end", 0, 0, "commit"), ("maintain", 6.0),
]


class TestBatchMetadataEqualsThePerRecordRule:
    @given(schedules, policies, st.integers(1, 4), st.integers(1, 4))
    @example(SPLIT_COPY, CLEANUP_DELETE, 2, 2)
    @example(INTERLEAVED_ABORT, CLEANUP_COMPACT, 3, 1)
    @example(UNCLEAN_ELECTION_CROWNS_A_CUT, CLEANUP_DELETE, 2, 3)
    @example(DEPOSED_LEADER_TRUNCATES, CLEANUP_DELETE, 2, 3)
    @example(DEPOSED_LEADER_LOSES_WHOLE_BATCHES, CLEANUP_COMPACT, 2, 3)
    @example(WINDOW_EVICTION, CLEANUP_DELETE, 2, 2)
    @example(RETENTION_TRIMS, CLEANUP_DELETE, 4, 2)
    @example(RETENTION_TRIMS, CLEANUP_COMPACT, 4, 2)
    @settings(max_examples=examples(40), deadline=None)
    def test_every_replica_agrees_with_its_reference_after_every_step(
        self, schedule, policy, max_fetch, few
    ):
        run(schedule, policy, max_fetch, few)

    def test_the_pinned_schedules_reach_what_they_are_pinned_for(self):
        """The two intended divergences and the split copy do occur."""
        split = replicas(run(SPLIT_COPY))
        follower = next(r for r in split if r.role != ROLE_LEADER)
        assert follower.log.batches()[0] == (0, 3, 7, 0, "idempotent", None)

        crowned = run(UNCLEAN_ELECTION_CROWNS_A_CUT)
        leader = replicas(crowned)[crowned.cluster.leader_of("t", 0)]
        assert (2, 3, 1000, 0, "transactional", None) in leader.log.batches()

        for schedule in (DEPOSED_LEADER_TRUNCATES, DEPOSED_LEADER_LOSES_WHOLE_BATCHES):
            truncated = replicas(run(schedule))
            assert sum(r.ref.phantoms_dropped for r in truncated) > 0

        evicting = replicas(run(WINDOW_EVICTION))
        assert sum(r.evicted_refusals for r in evicting) == 2

        for replica in replicas(run(RETENTION_TRIMS)):
            assert replica.earliest_offset > 0
            assert len(replica.log.batches()) < 8
