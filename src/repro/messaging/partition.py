"""Partition replicas: the broker-side unit of replication (§3.1, §4.3).

Each broker hosts a :class:`PartitionReplica` per partition assigned to it.
One replica is the *leader* (serves produces and fetches); the others are
*followers* that copy the leader's log.  The leader tracks each follower's
log-end offset (LEO) and advances the *high watermark* (HW) — the offset up
to which data is replicated to every in-sync replica.  Consumers only see
records below the HW, which is what makes an acknowledged ``acks=all`` write
survive N-1 broker failures.

Leader epochs fence zombies: every leadership change bumps the epoch, and
requests carrying a stale epoch are rejected with
:class:`~repro.common.errors.StaleEpochError`.

Idempotent produce (the paper's "ongoing effort to ... implement support for
exactly-once semantics") is supported via per-producer sequence numbers:
a retry of an already-appended batch returns the original offsets instead of
appending duplicates.

Producer state is batch metadata, as in a Kafka batch header: a run appended
under a producer id adds one ``(base, last, producer_id, producer_seq,
kind, frame)`` entry to the log's batch index, which replication ships,
truncation clips and retention trims with the records.  Everything a
replica knows about producers — the dedup window, open transactions, what
a fetch hides — is a fold over that index
(:meth:`PartitionReplica._apply_entry`), so it survives failover and
shrinks with the log.  A record's headers are the user's; only a control
marker, one record in a batch of its own, carries ``__ctrl`` / ``__pid``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.compression import BatchFrame
from repro.common.errors import (
    ConfigError,
    NotLeaderForPartitionError,
    StaleEpochError,
)
from repro.common.records import TRACE_HEADER, TopicPartition
from repro.observability.trace import current_tracer
from repro.storage.log import (
    BatchEntry,
    PartitionLog,
    ReadResult,
    clip,
    runs_overlapping,
)
from repro.storage.segment import select
from repro.storage.tiered.tier import ColdTier

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_OFFLINE = "offline"

#: Kinds of batch-index entry.  A control marker's kind is its verdict.
KIND_IDEMPOTENT = "idempotent"
KIND_TRANSACTIONAL = "transactional"
KIND_ABORT = "abort"

#: Batches per producer a replica can still answer a retry of: the dedup
#: cache is the producer's last few index entries.
DEDUP_WINDOW_BATCHES = 5


@dataclass
class ProduceResult:
    """Offsets assigned to a produced batch plus storage latency."""

    base_offset: int
    last_offset: int
    latency: float
    duplicate: bool = False


class PartitionReplica:
    """One broker's copy of one partition."""

    def __init__(
        self,
        partition: TopicPartition,
        broker_id: int,
        log: PartitionLog,
    ) -> None:
        self.partition = partition
        self.broker_id = broker_id
        self.log = log
        # Cold tier (tiered topics only): archive of segments retention has
        # offloaded from the hot log; fetches below log_start fall through
        # to it instead of erroring.
        self.cold_tier: ColdTier | None = None
        self.role = ROLE_FOLLOWER
        self.leader_epoch = 0
        self.high_watermark = 0
        # Leader-only state: follower LEOs and current ISR membership.
        self._follower_leo: dict[int, int] = {}
        self._isr: list[int] = []
        # Producer state, all of it a fold of the log's batch index:
        # each producer's last DEDUP_WINDOW_BATCHES sequenced entries, as
        # ``(base, last, pid, seq, kind)`` (the dedup cache; the last one
        # holds the last sequence) ...
        self._windows: dict[int, list[tuple[int, int, int, int, str]]] = {}
        # ... open transactions, pid -> first offset ...
        self._open_txns: dict[int, int] = {}
        # ... and what a fetch hides, as sorted disjoint (base, last) runs:
        # control markers from everyone, and from read_committed readers the
        # batches of aborted transactions too.
        self._markers: list[tuple[int, int]] = []
        self._hidden: list[tuple[int, int]] = []

    # -- role transitions ---------------------------------------------------------

    def become_leader(self, epoch: int, isr: list[int]) -> None:
        """Promote this replica to leader for ``epoch``.

        The new leader's HW starts at its own previous HW and advances as the
        (possibly singleton) ISR confirms.  If this replica is the only ISR
        member, everything in its log is immediately committed.
        """
        if epoch <= self.leader_epoch and self.role == ROLE_LEADER:
            raise StaleEpochError(
                f"{self.partition}: epoch {epoch} <= current {self.leader_epoch}"
            )
        self.role = ROLE_LEADER
        self.leader_epoch = epoch
        self._isr = list(isr)
        self._follower_leo = {b: 0 for b in isr if b != self.broker_id}
        self._advance_high_watermark()

    def become_follower(self, epoch: int) -> None:
        """Demote to follower under a new leader epoch."""
        self.role = ROLE_FOLLOWER
        self.leader_epoch = epoch
        self._follower_leo.clear()
        self._isr = []

    def mark_offline(self) -> None:
        self.role = ROLE_OFFLINE

    # -- leader produce path ----------------------------------------------------------

    def append_batch(
        self,
        entries: list[tuple[Any, Any, float, dict[str, Any]]],
        epoch: int | None = None,
        producer_id: int | None = None,
        producer_seq: int | None = None,
        frame: BatchFrame | None = None,
        sizes: Sequence[int] | None = None,
        transactional: bool = False,
    ) -> ProduceResult:
        """Leader-side append of a batch of (key, value, timestamp, headers).

        With ``producer_id``/``producer_seq`` set, a replayed batch (same or
        lower sequence) is deduplicated and the original offsets returned —
        the idempotent-producer upgrade from at-least-once — as long as it is
        one of the producer's last :data:`DEDUP_WINDOW_BATCHES`; an older
        replay is refused.  ``transactional`` opens (or continues) the
        producer's transaction on this partition; the one-record batch that
        closes it is a control marker, told by its ``__ctrl`` header.
        ``frame`` is the producer's compressed blob for this batch: the log
        stores it as an opaque unit and charges storage by its wire bytes.
        ``sizes`` is the payload-size column the cluster computed for
        ``entries`` (see :meth:`PartitionLog.append_batch`).
        """
        self._check_leader(epoch)
        if not entries:
            raise ConfigError("append_batch requires at least one entry")
        kind = None
        if producer_id is not None and producer_seq is not None:
            window = self._windows.get(producer_id)
            if window is not None and producer_seq <= window[-1][3]:
                for base, last, _pid, seq, _kind in window:
                    if seq == producer_seq:
                        return ProduceResult(base, last, 0.0, duplicate=True)
                # Sequence seen but evicted from the window: still refuse to
                # re-append.
                raise ConfigError(
                    f"producer {producer_id} replayed seq {producer_seq} "
                    "with no cached result"
                )
            kind = KIND_TRANSACTIONAL if transactional else KIND_IDEMPOTENT
        elif transactional:
            raise ConfigError("a transactional batch needs a producer id and sequence")
        elif len(entries) == 1 and entries[0][3]:
            kind = entries[0][3].get("__ctrl")
            if kind is not None:
                producer_id = entries[0][3].get("__pid")
        log = self.log
        start_offset = log.log_end_offset
        try:
            batch = log.append_batch(
                entries, frame, sizes, producer_id, producer_seq, kind
            )
        finally:
            # In a ``finally`` because a record over the size limit ends the
            # batch with its prefix appended: that prefix is the run, and the
            # log gave it its entry.
            if kind is not None and log.log_end_offset > start_offset:
                self._apply_entry(log.batches_between(start_offset, start_offset)[0])
        result = ProduceResult(batch.base_offset, batch.last_offset, batch.latency)
        tracer = current_tracer()
        if tracer is not None:
            now = self.log.clock.now()
            for i, entry in enumerate(entries):
                ctx = entry[3].get(TRACE_HEADER) if entry[3] else None
                if ctx is not None:
                    tracer.record(
                        "broker.append", ctx, now, now + batch.latency,
                        broker=self.broker_id,
                        topic=self.partition.topic,
                        partition=self.partition.partition,
                        offset=batch.base_offset + i,
                    )
        if set(self._isr) <= {self.broker_id}:
            self._advance_high_watermark()  # the only ISR member commits alone
        return result

    def _apply_entry(self, entry: BatchEntry) -> None:
        """Fold one batch-index entry into the producer state.

        Called once per entry as it joins the index — on the leader's append
        and a follower's copy alike — and, after the index lost entries
        (:meth:`truncate_to`, :meth:`trim_producer_state`), for every entry
        left.  An entry a continued copy grew arrives again, grown.  A
        frame-only entry (no ``kind``) carries no producer state.
        """
        base, last, producer_id, producer_seq, kind, _frame = entry
        if kind is None:
            return
        if producer_seq is not None:
            # The window keeps the producer state, not the frame: compaction
            # and retention clear frames without a refold.
            state = entry[:5]
            window = self._windows.get(producer_id)
            if window is None:
                self._windows[producer_id] = [state]
            elif window[-1][3] == producer_seq:
                window[-1] = state
            else:
                window.append(state)
                if len(window) > DEDUP_WINDOW_BATCHES:
                    del window[0]
            if kind == KIND_TRANSACTIONAL:
                self._open_txns.setdefault(producer_id, base)
            return
        # A control marker: it is the newest record, so both lists stay
        # sorted by appending; the runs it aborts lie before it.
        self._markers.append(entry[:2])
        self._hidden.append(entry[:2])
        first = self._open_txns.pop(producer_id, None)
        if kind == KIND_ABORT and first is not None:
            for run in self.log.batches_between(first, base):
                if run[2] == producer_id and run[4] == KIND_TRANSACTIONAL:
                    insort(self._hidden, run[:2])

    def _refold_producer_state(self) -> None:
        """Recompute the producer state from what the batch index still holds."""
        self._windows.clear()
        self._open_txns.clear()
        self._markers.clear()
        self._hidden.clear()
        for entry in self.log.batches():
            self._apply_entry(entry)

    def _check_leader(self, epoch: int | None) -> None:
        if self.role != ROLE_LEADER:
            raise NotLeaderForPartitionError(
                f"broker {self.broker_id} is {self.role} for {self.partition}"
            )
        if epoch is not None and epoch != self.leader_epoch:
            raise StaleEpochError(
                f"{self.partition}: request epoch {epoch} != leader epoch "
                f"{self.leader_epoch}"
            )

    # -- fetch paths -----------------------------------------------------------------

    def fetch(
        self,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
        committed_only: bool = True,
        isolation: str = "read_uncommitted",
    ) -> ReadResult:
        """Read records starting at ``offset``.

        Consumers use ``committed_only=True`` (bounded by the HW); follower
        replication uses ``committed_only=False`` to copy the uncommitted
        tail, including transaction markers.  ``isolation="read_committed"``
        additionally bounds the read by the last stable offset, hides
        aborted transactional records, and hides control markers.

        Visibility is one cut over the read's offset column, whatever the
        read holds — records, frames, a cold read or a cold read stitched to
        the hot log: bisect it against the bound and the hidden runs, and
        let :func:`~repro.storage.segment.select` build the visible run, its
        offsets and its stored bytes.  A read that hides nothing is returned
        as the log produced it, its run the log's own.

        On a tiered partition, an ``offset`` that retention has already
        moved below ``log_start_offset`` is served transparently from the
        cold tier (and stitched into the hot log when the read crosses the
        tier boundary) — §2.2 rewindability across the retention horizon.
        Without a cold tier the read raises
        :class:`~repro.common.errors.OffsetOutOfRangeError` as before.
        """
        cold = (
            self.cold_tier is not None
            and offset < self.log.log_start_offset
        )
        if cold:
            result = self.cold_tier.read_through(offset, max_messages, max_bytes)
        else:
            result = self.log.read(offset, max_messages, max_bytes)
        if not committed_only:
            # Replica fetches: no spans — replication has its own stage
            # (``replication.replicate``) on the follower's append.
            return result
        bound = self.high_watermark
        hidden = self._markers  # control markers are never client-visible
        if isolation == "read_committed":
            bound = min(bound, self.last_stable_offset)
            hidden = self._hidden
        offsets = result.offsets
        if offsets and (hidden or offsets[-1] >= bound):
            # The one cut, for every read: the offset column against the
            # bound and the hidden runs, by bisection.  When the read ends
            # below the bound and no hidden run intersects it, the log's own
            # run goes out untouched.
            end = bisect_left(offsets, bound)
            runs = (
                runs_overlapping(hidden, offsets[0], offsets[end - 1])
                if hidden and end
                else ()
            )
            if runs or end < len(offsets):
                spans = []
                kept = 0  # offsets[:kept] are dealt with
                for base, last in runs:
                    cut = bisect_left(offsets, base, kept, end)
                    spans.append((kept, cut))
                    kept = bisect_right(offsets, last, cut, end)
                spans.append((kept, end))
                visible = select(result.messages, offsets, spans)
                if visible is not None:
                    result.messages, result.offsets, result.stored_bytes = visible
        tracer = current_tracer()
        if tracer is not None and result.messages:
            now = self.log.clock.now()
            for message in result.messages:
                ctx = message.headers.get(TRACE_HEADER) if message.headers else None
                if ctx is not None:
                    tracer.record(
                        "broker.fetch", ctx, now, now + result.latency,
                        broker=self.broker_id,
                        topic=self.partition.topic,
                        partition=self.partition.partition,
                        offset=message.offset,
                        cold=cold,
                    )
        result.next_offset = max(min(result.next_offset, bound), offset)
        return result

    # -- replication bookkeeping ---------------------------------------------------------

    def replicate_batch(
        self, read: ReadResult, entries: list[BatchEntry] | None = None
    ) -> float:
        """Follower-side append of the leader's ``read`` (a replica fetch).

        The whole fetched run lands through one
        :meth:`~repro.storage.log.PartitionLog.append_stored_batch` call,
        handed the read's offset column — one roll/index/page-cache pass
        instead of one per record, and no column rebuilt from the records.
        ``entries`` carries the leader's batch-index entries overlapping the
        range, counted from this log's end: each is clipped to what was
        copied (a fetch may stop inside a batch; the next copy grows the
        entry), noted, and folded into the producer state, so this replica
        can keep deduplicating and filtering if it becomes leader.  An entry
        copied whole keeps its frame — the same immutable object, so a
        compressed batch crosses the hop without being re-encoded, and the
        log holds it as that frame too — and a cut one loses it, its copied
        records held as records.
        """
        if self.role == ROLE_LEADER:
            raise ConfigError(f"{self.partition}: leader cannot replicate from itself")
        if not read.offsets:
            return 0.0
        # The leader's records and frames themselves, not copies: a
        # StoredMessage is immutable once appended, like a frame.
        log = self.log
        lo = log.log_end_offset if entries else 0
        appended = log.append_stored_batch(read.messages, read.offsets)
        latency = appended.latency
        if entries:
            hi = appended.last_offset
            for entry in entries:
                entry = clip(entry, lo, hi)
                if entry is not None:
                    self._apply_entry(log.note_batch(*entry))
        tracer = current_tracer()
        if tracer is not None:
            now = self.log.clock.now()
            for message in read.messages:
                ctx = message.headers.get(TRACE_HEADER) if message.headers else None
                if ctx is not None:
                    tracer.record(
                        "replication.replicate", ctx, now, now + latency,
                        follower=self.broker_id,
                        topic=self.partition.topic,
                        partition=self.partition.partition,
                        offset=message.offset,
                    )
        return latency

    def compaction_bounds(self) -> tuple[int | None, list[tuple[int, int]]]:
        """What compaction must leave alone: the first offset of the earliest
        open transaction (``None`` when none is open), and the ``(base,
        last)`` runs of aborted transactional batches."""
        markers = set(self._markers)
        return (
            min(self._open_txns.values(), default=None),
            [run for run in self._hidden if run not in markers],
        )

    @property
    def last_stable_offset(self) -> int:
        """First offset of the earliest open transaction, capped by the HW.

        read_committed consumers never read past it, so they observe
        transactions atomically and in order.
        """
        lso = self.high_watermark
        for first_offset in self._open_txns.values():
            lso = min(lso, first_offset)
        return lso

    def record_follower_position(self, follower_id: int, leo: int) -> int:
        """Leader records a follower's LEO after a replica fetch; returns the
        (possibly advanced) high watermark."""
        self._check_leader(None)
        self._follower_leo[follower_id] = leo
        self._advance_high_watermark()
        return self.high_watermark

    def set_isr(self, isr: list[int]) -> None:
        """Controller pushed a new ISR; HW only depends on in-sync members."""
        if self.role == ROLE_LEADER:
            self._isr = list(isr)
            self._advance_high_watermark()

    def update_high_watermark(self, hw: int) -> None:
        """Follower learns the leader's HW (piggybacked on fetch responses)."""
        if hw > self.high_watermark:
            self.high_watermark = min(hw, self.log.log_end_offset)

    def _advance_high_watermark(self) -> None:
        if self.role != ROLE_LEADER:
            return
        leos = [self.log.log_end_offset]
        for broker_id in self._isr:
            if broker_id == self.broker_id:
                continue
            leos.append(self._follower_leo.get(broker_id, 0))
        new_hw = min(leos)
        if new_hw > self.high_watermark:
            self.high_watermark = new_hw

    def truncate_to(self, offset: int) -> int:
        """Follower reconciliation: drop any log tail past the leader's, and
        the producer state that tail carried — a sequence whose records are
        gone is forgotten, a transaction whose marker is gone is open again,
        one whose first record is gone never was."""
        removed = self.log.truncate_to(offset)
        self.high_watermark = min(self.high_watermark, offset)
        self._refold_producer_state()
        return removed

    def trim_producer_state(self) -> None:
        """After retention moved :attr:`earliest_offset`: forget producer
        state about records no tier can serve any more.

        Two things outlive their records.  The batches of a still-open
        transaction stay as they are (its marker has yet to judge them).  A
        producer's dedup window stays as bare dedup answers: such an entry's
        transaction is closed and its marker may be gone, so it is kept as
        an idempotent one — it must not reopen the transaction on a refold.
        """
        def keep(entry: BatchEntry) -> BatchEntry | None:
            base, last, producer_id, producer_seq, kind, frame = entry
            first = self._open_txns.get(producer_id)
            if kind == KIND_TRANSACTIONAL and first is not None and base >= first:
                return entry
            if entry[:5] in self._windows.get(producer_id, ()):
                return (base, last, producer_id, producer_seq, KIND_IDEMPOTENT, frame)
            return None

        self.log.trim_batches(self.earliest_offset, keep)
        self._refold_producer_state()

    # -- introspection ----------------------------------------------------------------------

    @property
    def log_end_offset(self) -> int:
        return self.log.log_end_offset

    @property
    def earliest_offset(self) -> int:
        """Oldest offset readable on this replica, across both tiers.

        Equals ``log.log_start_offset`` for untiered partitions; with a cold
        tier it reaches back to the oldest archived record, so
        ``seek_to_beginning`` rewinds over the full retained history.
        """
        if self.cold_tier is not None:
            return self.cold_tier.earliest_offset
        return self.log.log_start_offset

    def follower_lag(self, follower_id: int) -> int:
        """Messages the follower is behind the leader."""
        self._check_leader(None)
        return self.log.log_end_offset - self._follower_leo.get(follower_id, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionReplica({self.partition}, broker={self.broker_id}, "
            f"{self.role}, epoch={self.leader_epoch}, "
            f"leo={self.log_end_offset}, hw={self.high_watermark})"
        )
