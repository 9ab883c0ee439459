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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.compression import BatchFrame
from repro.common.errors import (
    ConfigError,
    NotLeaderForPartitionError,
    StaleEpochError,
)
from repro.common.records import (
    TRACE_HEADER,
    StoredMessage,
    TopicPartition,
    estimate_size,
)
from repro.observability.trace import current_tracer
from repro.storage.log import PartitionLog, ReadResult
from repro.storage.tiered.tier import ColdTier

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"
ROLE_OFFLINE = "offline"


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
        # Idempotent-producer dedup: (producer_id, seq) -> ProduceResult.
        self._producer_seqs: dict[int, int] = {}
        self._producer_results: dict[tuple[int, int], ProduceResult] = {}
        # Transaction bookkeeping (read_committed isolation):
        # open transactions (pid -> first offset) and aborted offset sets.
        self._open_txns: dict[int, int] = {}
        self._aborted_offsets: set[int] = set()
        self._txn_record_offsets: dict[int, list[int]] = {}
        # Whether any control marker was ever absorbed: until one is, a
        # fetch has nothing to hide below its bound and skips the filter.
        self._has_markers = False

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
    ) -> ProduceResult:
        """Leader-side append of a batch of (key, value, timestamp, headers).

        With ``producer_id``/``producer_seq`` set, a replayed batch (same or
        lower sequence) is deduplicated and the original offsets returned —
        the idempotent-producer upgrade from at-least-once.  ``frame`` is the
        producer's compressed blob for this batch: the log stores it as an
        opaque unit and charges storage by its wire bytes.  ``sizes`` is the
        payload-size column the cluster computed for ``entries`` (see
        :meth:`PartitionLog.append_batch`).
        """
        self._check_leader(epoch)
        if not entries:
            raise ConfigError("append_batch requires at least one entry")
        if producer_id is not None and producer_seq is not None:
            last_seq = self._producer_seqs.get(producer_id, -1)
            if producer_seq <= last_seq:
                cached = self._producer_results.get((producer_id, producer_seq))
                if cached is not None:
                    return ProduceResult(
                        cached.base_offset, cached.last_offset, 0.0, duplicate=True
                    )
                # Sequence seen but result evicted: still refuse to re-append.
                raise ConfigError(
                    f"producer {producer_id} replayed seq {producer_seq} "
                    "with no cached result"
                )
            # Producer state travels inside the log (as in Kafka batch
            # headers) so a newly elected leader can keep deduplicating.
            stamp = {"__pid": producer_id, "__seq": producer_seq}
            if sizes is not None:
                # The stamp grows a record by the keys it adds, not by a
                # constant: transactional entries already carry ``__pid``.
                added = estimate_size(stamp)
                sizes = [
                    size + added - estimate_size(
                        {name: held[name] for name in stamp if name in held}
                    )
                    if held
                    else size + added
                    for size, (_k, _v, _ts, held) in zip(sizes, entries)
                ]
            entries = [
                (key, value, timestamp, {**headers, **stamp})
                for key, value, timestamp, headers in entries
            ]
        start_offset = self.log.log_end_offset
        try:
            batch = self.log.append_batch(entries, frame, sizes)
        except ConfigError:
            # Per-record semantics: records before the failing one were
            # appended, so their transaction state must still be tracked.
            self._track_entry_transactions(entries, start_offset, self.log.log_end_offset)
            raise
        self._track_entry_transactions(entries, batch.base_offset, self.log.log_end_offset)
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
        if producer_id is not None and producer_seq is not None:
            self._producer_seqs[producer_id] = producer_seq
            self._producer_results[(producer_id, producer_seq)] = result
        if self._only_isr_member():
            self._advance_high_watermark()
        return result

    def _track_entry_transactions(
        self,
        entries: list[tuple[Any, Any, float, dict[str, Any]]],
        start_offset: int,
        end_offset: int,
    ) -> None:
        """Track transaction markers for the appended prefix of ``entries``."""
        offset = start_offset
        for entry in entries:
            if offset >= end_offset:
                break
            headers = entry[3]
            if headers:
                self._track_transaction(headers, offset)
            offset += 1

    def _only_isr_member(self) -> bool:
        return self.role == ROLE_LEADER and set(self._isr) <= {self.broker_id}

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
        if isolation == "read_committed":
            bound = min(bound, self.last_stable_offset)
        messages = result.messages
        if messages and (self._has_markers or messages[-1].offset >= bound):
            visible = []
            for message in messages:
                if message.offset >= bound:
                    break
                if "__ctrl" in message.headers:
                    continue  # control markers are never client-visible
                if (
                    isolation == "read_committed"
                    and message.offset in self._aborted_offsets
                ):
                    continue
                visible.append(message)
            if len(visible) != len(messages):
                result.messages = visible
                result.stored_bytes = sum([m.stored_size for m in visible])
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
        self,
        messages: list[StoredMessage],
        frames: list[tuple[int, int, BatchFrame]] | None = None,
    ) -> float:
        """Follower-side append of records fetched from the leader.

        The whole fetched batch lands through one
        :meth:`~repro.storage.log.PartitionLog.append_stored_batch` call —
        one roll/index/page-cache pass instead of one per record.  ``frames``
        carries the leader's compressed-batch registry entries for the copied
        range: the follower shares the immutable frame objects, so compressed
        batches cross the replication hop without being re-encoded.
        """
        if self.role == ROLE_LEADER:
            raise ConfigError(f"{self.partition}: leader cannot replicate from itself")
        if not messages:
            return 0.0
        # The leader's records themselves, not copies: a StoredMessage is
        # immutable once appended, like the frames shipped beside it.
        latency = self.log.append_stored_batch(messages, frames=frames).latency
        for message in messages:
            if message.headers:
                self._absorb_producer_state(message)
        tracer = current_tracer()
        if tracer is not None:
            now = self.log.clock.now()
            for message in messages:
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

    def _track_transaction(self, headers: dict[str, Any], offset: int) -> None:
        """Maintain open-transaction and aborted-range state (read_committed).

        Called for every appended record, leader- or replication-side, so
        transaction visibility survives failover like everything else in the
        log does.
        """
        if "__ctrl" in headers:
            self._has_markers = True
        producer_id = headers.get("__pid")
        if producer_id is None:
            return
        verdict = headers.get("__ctrl")
        if verdict is not None:
            self._open_txns.pop(producer_id, None)
            offsets = self._txn_record_offsets.pop(producer_id, [])
            if verdict == "abort":
                self._aborted_offsets.update(offsets)
            return
        if headers.get("__txn"):
            self._open_txns.setdefault(producer_id, offset)
            self._txn_record_offsets.setdefault(producer_id, []).append(offset)

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

    def _absorb_producer_state(self, message: StoredMessage) -> None:
        """Rebuild idempotent-producer dedup state from replicated records,
        so this replica can keep deduplicating if it becomes leader."""
        self._track_transaction(message.headers, message.offset)
        producer_id = message.headers.get("__pid")
        producer_seq = message.headers.get("__seq")
        if producer_id is None or producer_seq is None:
            return
        if producer_seq > self._producer_seqs.get(producer_id, -1):
            self._producer_seqs[producer_id] = producer_seq
        cached = self._producer_results.get((producer_id, producer_seq))
        if cached is None:
            self._producer_results[(producer_id, producer_seq)] = ProduceResult(
                message.offset, message.offset, 0.0
            )
        else:
            cached.last_offset = max(cached.last_offset, message.offset)

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
        """Follower reconciliation: drop any log tail past the leader's."""
        removed = self.log.truncate_to(offset)
        self.high_watermark = min(self.high_watermark, offset)
        return removed

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
