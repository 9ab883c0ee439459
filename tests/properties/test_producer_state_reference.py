"""Producer state as batch metadata equals the per-record rule it replaced.

Before this suite's PR, producer state travelled *on the records*: a
transactional client stamped ``__pid`` / ``__txn`` on every entry, the leader
stamped ``__pid`` / ``__seq``, and every replica rebuilt dedup and transaction
state by reading those headers back, one record at a time, filtering fetches
with a per-record loop.  That rule survives here as :class:`ReferenceReplica`
— pure Python, no logs, sharing nothing with the code under test — and runs
beside every replica of a real rf=3 partition: each call a replica gets
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

from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.chaos.failpoints import registry
from repro.common.clock import SimClock
from repro.common.compression import compress_entries
from repro.common.errors import ConfigError, MessagingError
from repro.common.records import TopicPartition
from repro.messaging import broker as broker_module
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.partition import (
    DEDUP_WINDOW_BATCHES,
    ROLE_FOLLOWER,
    ROLE_LEADER,
    PartitionReplica,
)
from repro.messaging.topic import CLEANUP_COMPACT, CLEANUP_DELETE, TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig

TP = TopicPartition("t", 0)
ISOLATIONS = ("read_uncommitted", "read_committed")
STAMPS = ("__pid", "__seq", "__txn")


def user_headers(headers):
    return {k: v for k, v in headers.items() if k not in STAMPS}


class ReferenceReplica:
    """``PartitionReplica`` as it was: producer state stamped on, and read
    back from, every record."""

    def __init__(self, broker_id: int) -> None:
        self.broker_id = broker_id
        #: Every record absorbed and not truncated away, as
        #: ``SimpleNamespace(offset, key, value, timestamp, headers)``;
        #: ``records`` is the part of it retention and compaction left.
        self.journal: list = []
        self.records: list = []
        self.log_start = 0
        self.next_offset = 0
        self.role = ROLE_FOLLOWER
        self.high_watermark = 0
        self.follower_leo: dict[int, int] = {}
        self.isr: list[int] = []
        self.phantoms_dropped = 0
        self._reset_producer_state()

    def _reset_producer_state(self) -> None:
        self.producer_seqs: dict[int, int] = {}
        self.producer_results: dict[tuple[int, int], list[int]] = {}
        self.open_txns: dict[int, int] = {}
        self.aborted_offsets: set[int] = set()
        self.txn_record_offsets: dict[int, list[int]] = {}

    def producer_state(self):
        return (
            dict(self.producer_seqs),
            {k: list(v) for k, v in self.producer_results.items()},
            dict(self.open_txns),
            set(self.aborted_offsets),
            {k: list(v) for k, v in self.txn_record_offsets.items()},
        )

    # -- roles and the high watermark (unchanged rules, copied) -------------------

    def become_leader(self, epoch, isr) -> None:
        self.role = ROLE_LEADER
        self.isr = list(isr)
        self.follower_leo = {b: 0 for b in isr if b != self.broker_id}
        self._advance_high_watermark()

    def become_follower(self, epoch) -> None:
        self.role = ROLE_FOLLOWER
        self.follower_leo.clear()
        self.isr = []

    def record_follower_position(self, follower_id, leo) -> None:
        self.follower_leo[follower_id] = leo
        self._advance_high_watermark()

    def set_isr(self, isr) -> None:
        if self.role == ROLE_LEADER:
            self.isr = list(isr)
            self._advance_high_watermark()

    def update_high_watermark(self, hw) -> None:
        if hw > self.high_watermark:
            self.high_watermark = min(hw, self.next_offset)

    def _advance_high_watermark(self) -> None:
        if self.role != ROLE_LEADER:
            return
        leos = [self.next_offset] + [
            self.follower_leo.get(b, 0) for b in self.isr if b != self.broker_id
        ]
        self.high_watermark = max(self.high_watermark, min(leos))

    # -- the per-record rule ----------------------------------------------------------

    def append_batch(self, entries, producer_id, producer_seq, transactional):
        """Returns ``(base, last, duplicate)``; raises like the leader did."""
        if transactional:  # the client's stamp, one dict copy per record
            stamp = {"__pid": producer_id, "__txn": True}
            entries = [(k, v, ts, {**h, **stamp}) for k, v, ts, h in entries]
        if producer_id is not None and producer_seq is not None:
            if producer_seq <= self.producer_seqs.get(producer_id, -1):
                cached = self.producer_results.get((producer_id, producer_seq))
                if cached is not None:
                    return cached[0], cached[1], True
                raise ConfigError("replayed seq with no cached result")
            stamp = {"__pid": producer_id, "__seq": producer_seq}  # the leader's
            entries = [(k, v, ts, {**h, **stamp}) for k, v, ts, h in entries]
        base = self.next_offset
        for key, value, timestamp, headers in entries:
            record = SimpleNamespace(
                offset=self.next_offset, key=key, value=value,
                timestamp=timestamp, headers=headers,
            )
            self._land(record)
            if headers:
                self._track_transaction(headers, record.offset)
        last = self.next_offset - 1
        if producer_id is not None and producer_seq is not None:
            self.producer_seqs[producer_id] = producer_seq
            self.producer_results[(producer_id, producer_seq)] = [base, last]
        if self.role == ROLE_LEADER and set(self.isr) <= {self.broker_id}:
            self._advance_high_watermark()
        return base, last, False

    def replicate(self, records) -> None:
        for record in records:
            self._land(record)
            if record.headers:
                self._absorb_producer_state(record)

    def _land(self, record) -> None:
        self.journal.append(record)
        self.records.append(record)
        self.next_offset = record.offset + 1

    def _track_transaction(self, headers, offset) -> None:
        producer_id = headers.get("__pid")
        if producer_id is None:
            return
        verdict = headers.get("__ctrl")
        if verdict is not None:
            self.open_txns.pop(producer_id, None)
            offsets = self.txn_record_offsets.pop(producer_id, [])
            if verdict == "abort":
                self.aborted_offsets.update(offsets)
            return
        if headers.get("__txn"):
            self.open_txns.setdefault(producer_id, offset)
            self.txn_record_offsets.setdefault(producer_id, []).append(offset)

    def _absorb_producer_state(self, record) -> None:
        self._track_transaction(record.headers, record.offset)
        producer_id = record.headers.get("__pid")
        producer_seq = record.headers.get("__seq")
        if producer_id is None or producer_seq is None:
            return
        if producer_seq > self.producer_seqs.get(producer_id, -1):
            self.producer_seqs[producer_id] = producer_seq
        cached = self.producer_results.get((producer_id, producer_seq))
        if cached is None:
            self.producer_results[(producer_id, producer_seq)] = [
                record.offset, record.offset
            ]
        else:
            cached[1] = max(cached[1], record.offset)

    def truncate_to(self, offset) -> None:
        """The log tail and the high watermark go; producer state stays."""
        self.journal = [r for r in self.journal if r.offset < offset]
        self.records = [r for r in self.records if r.offset < offset]
        self.next_offset = min(self.next_offset, offset)
        self.high_watermark = min(self.high_watermark, offset)

    @property
    def last_stable_offset(self) -> int:
        return min([self.high_watermark, *self.open_txns.values()])

    def fetch(self, offset, max_messages, isolation):
        """The per-record visibility loop; returns ``(delivered, next_offset)``
        with ``delivered`` as (offset, key, value, timestamp, user headers)."""
        scanned = [r for r in self.records if r.offset >= offset][:max_messages]
        bound = self.high_watermark
        if isolation == "read_committed":
            bound = min(bound, self.last_stable_offset)
        visible = []
        for record in scanned:
            if record.offset >= bound:
                break
            if "__ctrl" in record.headers:
                continue
            if isolation == "read_committed" and record.offset in self.aborted_offsets:
                continue
            visible.append(record)
        next_offset = scanned[-1].offset + 1 if scanned else offset
        return (
            [
                (r.offset, r.key, r.value, r.timestamp, user_headers(r.headers))
                for r in visible
            ],
            max(min(next_offset, bound), offset),
        )

    # -- not the rule: what the harness does to keep the comparison going ------------

    def rederive_after_truncation(self) -> None:
        """Intended divergence 1: forget what the truncated tail taught."""
        kept = self.producer_state()
        self._reset_producer_state()
        for record in self.journal:
            if record.headers:
                self._absorb_producer_state(record)
        if self.producer_state() != kept:
            self.phantoms_dropped += 1

    def follow_storage(self, log) -> None:
        """Retention and compaction are the log's: list what it lists."""
        present = {m.offset for m in log.all_messages()}
        assert present <= {r.offset for r in self.records}
        self.records = [r for r in self.records if r.offset in present]
        self.log_start = log.log_start_offset


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

        def become_leader(self, epoch, isr) -> None:
            super().become_leader(epoch, isr)
            self.ref.become_leader(epoch, isr)

        def become_follower(self, epoch) -> None:
            super().become_follower(epoch)
            self.ref.become_follower(epoch)

        def record_follower_position(self, follower_id, leo) -> int:
            hw = super().record_follower_position(follower_id, leo)
            self.ref.record_follower_position(follower_id, leo)
            return hw

        def set_isr(self, isr) -> None:
            super().set_isr(isr)
            self.ref.set_isr(isr)

        def update_high_watermark(self, hw) -> None:
            super().update_high_watermark(hw)
            self.ref.update_high_watermark(hw)

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

    return ShadowedReplica


# -- the schedule ---------------------------------------------------------------------

#: Senders: two transactional producers, one idempotent, one with no producer
#: id at all (``None``), interleaved on the one partition.
PRODUCERS = ((1000, True), (1001, True), (7, False), (None, False))

sends = st.tuples(
    st.just("send"), st.integers(0, 3), st.integers(1, 4),
    st.booleans(), st.sampled_from([ACKS_LEADER, ACKS_LEADER, ACKS_ALL]),
)
retries = st.tuples(st.just("retry"), st.integers(0, 2), st.integers(0, 7))
ends = st.tuples(st.just("end"), st.integers(0, 1), st.sampled_from(["commit", "abort"]))
brokers = st.integers(0, 2)
steps = st.one_of(
    sends, sends, sends, retries, ends, ends,
    st.tuples(st.just("tick")), st.tuples(st.just("tick")),
    st.tuples(st.just("kill"), brokers),
    st.tuples(st.just("restart"), brokers),
    st.tuples(st.just("maintain"), st.floats(0.0, 8.0)),
)
schedules = st.lists(steps, min_size=1, max_size=28)
policies = st.sampled_from([CLEANUP_DELETE, CLEANUP_COMPACT])


class Driven:
    """A three-broker cluster around one rf=3 partition of shadowed replicas,
    and the low-level clients that drive it."""

    def __init__(self, policy: str, max_fetch: int) -> None:
        with mock.patch.object(
            broker_module, "PartitionReplica", shadowed_replica_class()
        ):
            self.cluster = cluster = MessagingCluster(
                num_brokers=3,
                clock=SimClock(),
                allow_unclean_election=True,
                replication_max_lag=2,
                maintenance_interval=float("inf"),  # ``maintain`` steps only
            )
            cluster.create_topic(
                TopicConfig(
                    name="t",
                    replication_factor=3,
                    cleanup_policy=policy,
                    retention=RetentionConfig(
                        retention_seconds=4.0 if policy == CLEANUP_DELETE else None
                    ),
                    log=LogConfig(segment_max_messages=3),
                )
            )
        cluster.replication.max_fetch = max_fetch  # copies stop inside batches
        self.replicas = [broker.replica(TP) for broker in cluster.brokers()]
        self.next_seq = {pid: 0 for pid, _txn in PRODUCERS if pid is not None}
        self.requests: dict[tuple[int, int], dict] = {}
        self.sent = 0

    def _produce(self, entries, acks, **request):
        try:
            ack = self.cluster.produce("t", 0, entries, acks=acks, **request)
        except (MessagingError, ConfigError) as exc:
            return type(exc).__name__
        return ack.base_offset, ack.last_offset, ack.duplicate

    def step(self, step):
        cluster = self.cluster
        kind = step[0]
        if kind == "send":
            _kind, sender, count, framed, acks = step
            pid, transactional = PRODUCERS[sender]
            now = cluster.clock.now()
            entries = [
                (f"k{n % 3}", {"n": n}, now, {"h": n} if n % 2 else {})
                for n in range(self.sent, self.sent + count)
            ]
            self.sent += count
            request = {}
            if pid is not None:
                request.update(
                    producer_id=pid, producer_seq=self.next_seq[pid],
                    transactional=transactional,
                )
                self.next_seq[pid] += 1  # consumed whether or not it lands
            if framed and not transactional:
                request["frame"] = compress_entries(entries, "zlib", 6)
            if pid is not None:
                self.requests[pid, request["producer_seq"]] = (entries, acks, request)
            return self._produce(entries, acks, **request)
        if kind == "retry":
            pid, _txn = PRODUCERS[step[1]]
            sent = self.requests.get((pid, self.next_seq[pid] - 1 - step[2]))
            if sent is not None:
                entries, acks, request = sent
                return self._produce(entries, acks, **request)
        elif kind == "end":
            pid, _txn = PRODUCERS[step[1]]
            marker = (None, None, None, {"__ctrl": step[2], "__pid": pid})
            return self._produce([marker], ACKS_ALL)
        elif kind == "tick":
            cluster.tick(0.1)
        elif kind == "kill":
            if len(cluster.controller.live_brokers()) > 1:
                cluster.kill_broker(step[1])
        elif kind == "restart":
            cluster.restart_broker(step[1])
        elif kind == "maintain":
            # On a healthy cluster: compaction removes records, and a
            # replica that copies them afterwards learns less from them
            # under the per-record rule than one that copied before.
            for broker in cluster.brokers():
                cluster.restart_broker(broker.broker_id)
            cluster.run_until_replicated()
            cluster.clock.advance(step[1])
            for broker, replica in zip(cluster.brokers(), self.replicas):
                broker.run_retention()
                broker.run_compaction()
                replica.ref.follow_storage(replica.log)
        return None

    # -- the comparison -----------------------------------------------------------------

    def check(self, few: int) -> None:
        for replica in self.replicas:
            ref = replica.ref
            log = replica.log
            assert [m.offset for m in log.all_messages()] == [
                r.offset for r in ref.records
            ]
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
                        assert (
                            [
                                (m.offset, m.key, m.value, m.timestamp, m.headers)
                                for m in got.messages
                            ],
                            got.next_offset,
                        ) == ref.fetch(offset, max_messages, isolation)
            self._check_dedup(replica)
            self._check_state_is_a_fold_of_the_index(replica)
        self._check_leader_through_the_cluster()

    def _check_dedup(self, replica) -> None:
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

    def _check_state_is_a_fold_of_the_index(self, replica) -> None:
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

    def _check_leader_through_the_cluster(self) -> None:
        leader_id = self.cluster.leader_of("t", 0)
        if leader_id is None:
            return
        ref = self.replicas[leader_id].ref
        for isolation in ISOLATIONS:
            result = self.cluster.fetch(
                "t", 0, ref.log_start, max_messages=1000, isolation=isolation
            )
            assert (
                [
                    (r.offset, r.key, r.value, r.timestamp, dict(r.headers))
                    for r in result.records
                ],
                result.next_offset,
            ) == ref.fetch(ref.log_start, 1000, isolation)


def run(schedule, policy=CLEANUP_DELETE, max_fetch=2, few=2) -> Driven:
    registry().disarm_all()
    driven = Driven(policy, max_fetch)
    driven.check(few)
    for step in schedule:
        driven.step(step)
        driven.check(few)
    return driven


# -- pinned schedules -----------------------------------------------------------------

SEND = lambda sender, count=3, framed=False, acks=ACKS_LEADER: (  # noqa: E731
    "send", sender, count, framed, acks
)
TICK = ("tick",)

#: A batch of four under ``max_fetch=2``: followers copy it in two cuts.
SPLIT_COPY = [SEND(2, 4), TICK, TICK, SEND(0, 4), TICK, ("end", 0, "abort"), TICK, TICK]

#: Two transactions interleaved record-run by record-run; one aborts.
INTERLEAVED_ABORT = [
    SEND(0, 2), SEND(1, 2), SEND(3, 1), SEND(0, 1), SEND(1, 2),
    ("end", 0, "abort"), SEND(3, 2), ("end", 1, "commit"), TICK, TICK, TICK, TICK,
]

#: The leader takes a transactional and an idempotent batch no follower
#: copies whole, shrinks the ISR to itself and dies; an unclean election
#: crowns a follower that holds a cut of the first and nothing of the second.
UNCLEAN_ELECTION_CROWNS_A_CUT = [
    SEND(3, 2), TICK, TICK,
    SEND(0, 3), SEND(2, 3), TICK,  # each follower copies 2 of the 6
    ("kill", 0), SEND(3, 2), SEND(1, 2), TICK,
    ("restart", 0), TICK, TICK, TICK, ("retry", 0, 0), ("retry", 2, 0),
    ("end", 0, "abort"), TICK, TICK,
]

#: The leader dies with the last record of a transactional batch on no
#: follower; it returns under the new epoch and truncates that record, and
#: the sequence's answer and the transaction shrink with it.
DEPOSED_LEADER_TRUNCATES = [
    SEND(3, 2), TICK, TICK,
    SEND(0, 3), TICK,  # each follower copies 2 of the 3
    ("kill", 0), SEND(3, 2), SEND(1, 2), TICK,
    ("restart", 0), TICK, TICK, TICK, ("retry", 0, 0),
    ("end", 0, "abort"), ("end", 1, "commit"), TICK, TICK,
]

#: The leader dies holding a whole idempotent batch and a whole open
#: transaction nobody copied; it returns and truncates both away.
DEPOSED_LEADER_LOSES_WHOLE_BATCHES = [
    SEND(3, 2), TICK, TICK,
    SEND(2, 2), SEND(0, 2),
    ("kill", 0), SEND(3, 1), ("restart", 0), TICK, TICK,
    ("retry", 2, 0), ("retry", 0, 0), ("end", 0, "commit"), TICK, TICK,
]

#: Seven batches from one producer, then retries reaching back past the window.
WINDOW_EVICTION = [SEND(2, 1) for _ in range(7)] + [
    ("retry", 2, 0), ("retry", 2, 4), ("retry", 2, 5), ("retry", 2, 6), TICK,
]

#: Transactions old enough for retention to drop, then a late retry.
RETENTION_TRIMS = [
    SEND(0, 3), ("end", 0, "abort"), SEND(1, 3), SEND(2, 3), ("end", 1, "commit"),
    SEND(0, 2), ("maintain", 6.0), SEND(3, 3), SEND(3, 3), ("maintain", 6.0),
    ("retry", 2, 0), ("retry", 0, 1), ("end", 0, "commit"), ("maintain", 6.0),
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
    @settings(max_examples=40, deadline=None)
    def test_every_replica_agrees_with_its_reference_after_every_step(
        self, schedule, policy, max_fetch, few
    ):
        run(schedule, policy, max_fetch, few)

    def test_the_pinned_schedules_reach_what_they_are_pinned_for(self):
        """The two intended divergences and the split copy do occur."""
        split = run(SPLIT_COPY)
        follower = next(r for r in split.replicas if r.role != ROLE_LEADER)
        assert follower.log.batches()[0] == (0, 3, 7, 0, "idempotent", None)

        crowned = run(UNCLEAN_ELECTION_CROWNS_A_CUT)
        leader = crowned.replicas[crowned.cluster.leader_of("t", 0)]
        assert (2, 3, 1000, 0, "transactional", None) in leader.log.batches()

        for schedule in (DEPOSED_LEADER_TRUNCATES, DEPOSED_LEADER_LOSES_WHOLE_BATCHES):
            truncated = run(schedule)
            assert sum(r.ref.phantoms_dropped for r in truncated.replicas) > 0

        evicting = run(WINDOW_EVICTION)
        assert sum(r.evicted_refusals for r in evicting.replicas) == 2

        trimmed = run(RETENTION_TRIMS)
        for replica in trimmed.replicas:
            assert replica.earliest_offset > 0
            assert len(replica.log.batches()) < 8
