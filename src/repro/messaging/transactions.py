"""Exactly-once transactions: the paper's "ongoing effort" (§4.3).

"There is no built-in support to detect duplicates that can occur after a
failure ... there is an ongoing effort to design and implement support for
exactly-once semantics."

This module implements that effort, following the design Kafka eventually
shipped (KIP-98), reduced to its semantics:

* a **transaction coordinator** maps a stable ``transactional_id`` to a
  producer id and an epoch; re-initialization bumps the epoch and *fences*
  the previous incarnation (:class:`~repro.common.errors.ProducerFencedError`);
* a :class:`TransactionalProducer` groups sends into atomic units:
  ``begin() … commit()/abort()`` writes **control markers** into every
  partition the transaction touched;
* partitions track open transactions and aborted ranges, exposing the
  **last stable offset** (LSO): ``read_committed`` consumers never see
  records of an open or aborted transaction, nor records past the first
  still-open transaction (preserving order);
* **offsets can join the transaction** (`send_offsets_to_transaction`), so a
  consume-transform-produce loop commits its input position atomically with
  its output — the full exactly-once processing pattern.

Commits are **crash-atomic**: once the coordinator decides a transaction
commits, the decision is recorded before any marker or offset is applied,
and a recovering incarnation (:meth:`TransactionCoordinator.initialize`)
*completes* the half-done commit instead of aborting it.  Marker writes and
offset commits are replayed in deterministic (sorted) order, so a crash at
any of the ``txn.*`` failpoints is invisible to ``read_committed`` readers:
they observe either nothing or the full transaction — never outputs without
offsets or vice versa.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.chaos.failpoints import failpoint
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    MessagingError,
    NotEnoughReplicasError,
    NotLeaderForPartitionError,
    ProducerFencedError,
    ReservedHeaderError,
    StaleEpochError,
    TransactionError,
)
from repro.common.metrics import metric_name
from repro.common.partitioning import partition_for_key
from repro.common.records import (
    RESERVED_HEADER_PREFIX,
    TRACE_HEADER,
    TopicPartition,
)
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
from repro.observability.trace import TraceContext, current_tracer

#: Header keys for transactional records and control markers.
HDR_PID = "__pid"
HDR_TXN = "__txn"
HDR_CTRL = "__ctrl"
CTRL_COMMIT = "commit"
CTRL_ABORT = "abort"

#: Transaction observability: one instrument per lifecycle transition, plus
#: the marker/offset writes a commit or abort fans out into.
_M_BEGINS = metric_name("messaging", "transactions", "begins")
_M_COMMITS = metric_name("messaging", "transactions", "commits")
_M_ABORTS = metric_name("messaging", "transactions", "aborts")
_M_FENCINGS = metric_name("messaging", "transactions", "fencings")
_M_MARKERS = metric_name("messaging", "transactions", "markers_written")
_M_OFFSETS = metric_name("messaging", "transactions", "offsets_committed")
_M_COMMITS_RESUMED = metric_name(
    "messaging", "transactions", "commits_resumed"
)
_M_SEND_RETRIES = metric_name("messaging", "transactions", "send_retries")

#: Errors a transactional send retries under its original sequence number —
#: the same transient set the plain idempotent producer re-buffers on.
_RETRIABLE = (
    NotLeaderForPartitionError,
    BrokerUnavailableError,
    StaleEpochError,
    NotEnoughReplicasError,
)

def _sorted_partitions(partitions: set[TopicPartition]) -> list[TopicPartition]:
    """Deterministic marker/offset order regardless of PYTHONHASHSEED."""
    return sorted(partitions, key=lambda tp: (tp.topic, tp.partition))


@dataclass
class _TxnState:
    """Coordinator-side state of one transactional id."""

    producer_id: int
    epoch: int = 0
    in_flight: set[TopicPartition] = field(default_factory=set)
    open: bool = False
    pending_offsets: dict[tuple[str, TopicPartition], tuple[int, dict]] = field(
        default_factory=dict
    )
    #: Verdict durably decided but not yet fully applied ("commit"); a
    #: recovery completes it instead of aborting.  None = undecided.
    decided: str | None = None
    #: Markers still owed once a commit is decided (sorted; drained front
    #: to back so a crashed commit resumes exactly where it stopped).
    markers_pending: list[TopicPartition] = field(default_factory=list)
    #: Per-partition idempotence sequences.  They live here — not on the
    #: producer — so a restarted incarnation of the same transactional id
    #: continues the numbering and broker-side dedup stays correct.
    sequences: dict[TopicPartition, int] = field(default_factory=dict)


class TransactionCoordinator:
    """Maps transactional ids to fenced producer incarnations."""

    def __init__(self, cluster: MessagingCluster) -> None:
        self.cluster = cluster
        self._states: dict[str, _TxnState] = {}
        self.fencings = 0
        # Producer ids are allocated per coordinator (= per cluster), not
        # from process-global state: a same-seed replay on a fresh cluster
        # must assign identical pids, or record headers diverge.
        self._next_producer_id = itertools.count(1000)

    def initialize(self, transactional_id: str) -> tuple[int, int]:
        """Register/refresh a transactional id; returns (producer_id, epoch).

        Bumping the epoch fences any previous producer instance with the
        same id — its subsequent operations raise ProducerFencedError.  A
        transaction the fenced incarnation had already *decided* to commit
        is completed (remaining markers + offset commits); an undecided
        open transaction aborts.
        """
        state = self._states.get(transactional_id)
        if state is None:
            state = _TxnState(producer_id=next(self._next_producer_id))
            self._states[transactional_id] = state
        else:
            state.epoch += 1
            self.fencings += 1
            self.cluster.metrics.counter(_M_FENCINGS).increment()
            if state.decided == CTRL_COMMIT:
                # Crash landed mid-commit: roll the decision forward so the
                # new incarnation starts from a clean, fully-applied state.
                self.cluster.metrics.counter(_M_COMMITS_RESUMED).increment()
                self._complete_commit(transactional_id, state)
            elif state.open:
                # An incomplete, undecided transaction aborts.
                self._apply_abort(transactional_id, state)
        return state.producer_id, state.epoch

    def _state_for(self, transactional_id: str, epoch: int) -> _TxnState:
        state = self._states.get(transactional_id)
        if state is None:
            raise TransactionError(f"unknown transactional id {transactional_id!r}")
        if epoch != state.epoch:
            raise ProducerFencedError(
                f"{transactional_id!r}: epoch {epoch} fenced by {state.epoch}"
            )
        return state

    # -- transaction lifecycle ----------------------------------------------------

    def begin(self, transactional_id: str, epoch: int) -> None:
        state = self._state_for(transactional_id, epoch)
        if state.open:
            raise TransactionError(f"{transactional_id!r}: transaction already open")
        state.open = True
        self.cluster.metrics.counter(_M_BEGINS).increment()

    def add_partition(
        self, transactional_id: str, epoch: int, tp: TopicPartition
    ) -> None:
        state = self._state_for(transactional_id, epoch)
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        state.in_flight.add(tp)

    def add_offsets(
        self,
        transactional_id: str,
        epoch: int,
        group: str,
        offsets: dict[TopicPartition, int],
        metadata: dict[str, Any] | None = None,
    ) -> None:
        state = self._state_for(transactional_id, epoch)
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        for tp, offset in offsets.items():
            state.pending_offsets[(group, tp)] = (offset, dict(metadata or {}))

    def next_sequence(
        self, transactional_id: str, epoch: int, tp: TopicPartition
    ) -> int:
        """Allocate the next idempotence sequence for one partition.

        Sequences advance at allocation, not on success — a retried send
        replays its original sequence and the broker dedups it.
        """
        state = self._state_for(transactional_id, epoch)
        seq = state.sequences.get(tp, -1) + 1
        state.sequences[tp] = seq
        return seq

    def commit(self, transactional_id: str, epoch: int) -> None:
        """Atomically commit outputs + staged offsets.

        Two phases: *decide* (flip the verdict, snapshot the sorted marker
        plan), then *apply* (markers, then offset commits).  A crash after
        the decision point — any of the ``txn.commit.*`` failpoints — leaves
        a decided state that :meth:`initialize` rolls forward, so committed
        outputs are never observable without their offsets.  Re-invoking
        ``commit`` on a decided transaction resumes the apply phase.
        """
        state = self._state_for(transactional_id, epoch)
        if state.decided == CTRL_COMMIT:
            self._complete_commit(transactional_id, state)
            return
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        failpoint("txn.commit", transactional_id=transactional_id)
        # Decision point: from here the transaction IS committed.
        state.decided = CTRL_COMMIT
        state.markers_pending = _sorted_partitions(state.in_flight)
        self._complete_commit(transactional_id, state)

    def _complete_commit(self, transactional_id: str, state: _TxnState) -> None:
        span = self._open_span("txn.commit", transactional_id, state)
        while state.markers_pending:
            tp = state.markers_pending[0]
            failpoint(
                "txn.commit.marker",
                transactional_id=transactional_id,
                partition=tp,
            )
            self._write_marker(tp, CTRL_COMMIT, state.producer_id)
            state.markers_pending.pop(0)
        failpoint("txn.commit.offsets", transactional_id=transactional_id)
        for (group, tp) in sorted(
            state.pending_offsets, key=lambda k: (k[0], k[1].topic, k[1].partition)
        ):
            offset, metadata = state.pending_offsets[(group, tp)]
            self.cluster.offset_manager.commit(group, tp, offset, metadata)
            self.cluster.metrics.counter(_M_OFFSETS).increment()
        state.pending_offsets.clear()
        state.in_flight.clear()
        state.open = False
        state.decided = None
        self.cluster.metrics.counter(_M_COMMITS).increment()
        self._close_span(span)

    def abort(self, transactional_id: str, epoch: int) -> None:
        state = self._state_for(transactional_id, epoch)
        if state.decided == CTRL_COMMIT:
            raise TransactionError(
                f"{transactional_id!r}: transaction already decided to commit"
            )
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        self._apply_abort(transactional_id, state)

    def _apply_abort(self, transactional_id: str, state: _TxnState) -> None:
        span = self._open_span("txn.abort", transactional_id, state)
        for tp in _sorted_partitions(state.in_flight):
            self._write_marker(tp, CTRL_ABORT, state.producer_id)
        state.pending_offsets.clear()
        state.in_flight.clear()
        state.open = False
        self.cluster.metrics.counter(_M_ABORTS).increment()
        self._close_span(span)

    def _write_marker(
        self, tp: TopicPartition, verdict: str, producer_id: int
    ) -> None:
        self.cluster.produce(
            tp.topic,
            tp.partition,
            [(None, None, None, {HDR_CTRL: verdict, HDR_PID: producer_id})],
            acks=ACKS_ALL,
        )
        self.cluster.metrics.counter(_M_MARKERS).increment()

    def is_open(self, transactional_id: str) -> bool:
        state = self._states.get(transactional_id)
        return bool(state and state.open)

    def open_transactions(self) -> list[dict[str, Any]]:
        """Operational view of every still-open transaction (admin report)."""
        out = []
        for transactional_id in sorted(self._states):
            state = self._states[transactional_id]
            if not state.open:
                continue
            out.append(
                {
                    "transactional_id": transactional_id,
                    "producer_id": state.producer_id,
                    "epoch": state.epoch,
                    "partitions": [
                        str(tp) for tp in _sorted_partitions(state.in_flight)
                    ],
                    "pending_offsets": len(state.pending_offsets),
                    "decided": state.decided,
                }
            )
        return out

    # -- tracing -------------------------------------------------------------------

    def _open_span(self, name: str, transactional_id: str, state: _TxnState):
        tracer = current_tracer()
        if tracer is None:
            return None
        return tracer.open_span(
            name,
            None,
            self.cluster.clock.now(),
            transactional_id=transactional_id,
            producer_id=state.producer_id,
            epoch=state.epoch,
            partitions=len(state.in_flight) + len(state.markers_pending),
        )

    def _close_span(self, span) -> None:
        if span is not None:
            tracer = current_tracer()
            if tracer is not None:
                tracer.close(span, end=self.cluster.clock.now())


class TransactionalProducer:
    """Producer whose sends are atomic per transaction.

    Usage::

        producer = TransactionalProducer(cluster, "etl-job-7")
        producer.begin()
        producer.send("out", value, key=key)
        producer.send_offsets_to_transaction("job-etl", {tp: offset})
        producer.commit()   # or .abort()

    Sends carry per-partition idempotence sequences (allocated by the
    coordinator, so they survive restarts of the same transactional id) and
    retry transient broker errors under the original sequence — the broker
    dedups replays of an append that actually stood, same as the plain
    idempotent :class:`~repro.messaging.producer.Producer`.
    """

    def __init__(
        self,
        cluster: MessagingCluster,
        transactional_id: str,
        coordinator: TransactionCoordinator | None = None,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 1.0,
        linger_messages: int = 1,
    ) -> None:
        if not transactional_id:
            raise ConfigError("transactional_id must be non-empty")
        if linger_messages < 1:
            raise ConfigError("linger_messages must be >= 1")
        self.cluster = cluster
        self.transactional_id = transactional_id
        self.coordinator = (
            coordinator
            if coordinator is not None
            else get_transaction_coordinator(cluster)
        )
        self.producer_id, self.epoch = self.coordinator.initialize(
            transactional_id
        )
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.retries = 0
        # Deterministic jitter: seeded from (id, epoch) so a same-seed
        # replay of a whole run reproduces every backoff exactly.
        self._retry_rng = random.Random(
            zlib.crc32(transactional_id.encode()) ^ self.epoch
        )
        self._rr = itertools.count()
        # Staged-but-unsent records, per partition.  Like the plain
        # producer's linger buffer, but scoped to the transaction: commit
        # flushes, abort discards (they were never on the wire).  Each entry
        # carries the sequence it was allocated at staging time, so a batch
        # is produced under its first record's sequence and broker-side
        # dedup of a replayed batch stays correct.
        self.linger_messages = linger_messages
        self._buffers: dict[
            TopicPartition,
            list[tuple[tuple[Any, Any, float | None, dict[str, Any]], int]],
        ] = {}

    # -- lifecycle ------------------------------------------------------------------

    def begin(self) -> None:
        self.coordinator.begin(self.transactional_id, self.epoch)

    def commit(self) -> None:
        self.flush()
        self.coordinator.commit(self.transactional_id, self.epoch)

    def abort(self) -> None:
        # Buffered records were never produced; aborting simply drops them.
        self._buffers.clear()
        self.coordinator.abort(self.transactional_id, self.epoch)

    @property
    def in_transaction(self) -> bool:
        return self.coordinator.is_open(self.transactional_id)

    # -- sends ----------------------------------------------------------------------

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: int | None = None,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ):
        """Send one record inside the current transaction (acks=all).

        With ``linger_messages == 1`` the record is produced immediately and
        its ack returned.  With batching enabled it is staged and ``None``
        returned; the partition's batch is produced when it reaches
        ``linger_messages`` records (ack returned then) or at commit.
        """
        if headers:
            for name, held in headers.items():
                if name.startswith(RESERVED_HEADER_PREFIX) and not (
                    name == TRACE_HEADER and isinstance(held, TraceContext)
                ):
                    raise ReservedHeaderError(
                        f"header {name!r} is in the system's reserved "
                        f"{RESERVED_HEADER_PREFIX!r} namespace"
                    )
        if not self.coordinator.is_open(self.transactional_id):
            raise TransactionError("send outside a transaction; call begin()")
        num_partitions = self.cluster.topic_config(topic).num_partitions
        if partition is None:
            if key is not None:
                partition = partition_for_key(key, num_partitions)
            else:
                partition = next(self._rr) % num_partitions
        tp = TopicPartition(topic, partition)
        self.coordinator.add_partition(self.transactional_id, self.epoch, tp)
        txn_headers = {
            **(headers or {}),
            HDR_PID: self.producer_id,
            HDR_TXN: True,
        }
        sequence = self.coordinator.next_sequence(
            self.transactional_id, self.epoch, tp
        )
        entry = (key, value, timestamp, txn_headers)
        if self.linger_messages == 1:
            return self._produce_batch(tp, [(entry, sequence)])
        buffer = self._buffers.setdefault(tp, [])
        buffer.append((entry, sequence))
        if len(buffer) >= self.linger_messages:
            del self._buffers[tp]
            return self._produce_batch(tp, buffer)
        return None

    def flush(self) -> list:
        """Produce every staged batch; returns their acks.

        Partitions flush in deterministic (sorted) order so a same-seed
        replay appends identically.  ``commit`` flushes implicitly.
        """
        if not self._buffers:
            return []
        # Fencing check up front: a zombie incarnation must not push its
        # staged records onto the wire under a stale epoch.
        self.coordinator._state_for(self.transactional_id, self.epoch)
        acks = []
        for tp in _sorted_partitions(set(self._buffers)):
            acks.append(self._produce_batch(tp, self._buffers.pop(tp)))
        return acks

    def _produce_batch(self, tp, batch):
        """One produce of staged entries, retried under its base sequence."""
        entries = [entry for entry, _seq in batch]
        sequence = batch[0][1]
        attempts = 0
        while True:
            try:
                return self.cluster.produce(
                    tp.topic,
                    tp.partition,
                    entries,
                    acks=ACKS_ALL,
                    producer_id=self.producer_id,
                    producer_seq=sequence,
                )
            except _RETRIABLE as exc:
                attempts += 1
                self.retries += 1
                self.cluster.metrics.counter(_M_SEND_RETRIES).increment()
                if attempts > self.max_retries:
                    raise MessagingError(
                        f"transactional produce to {tp} failed after "
                        f"{attempts} attempts"
                    ) from exc
                self.cluster.tick(self._backoff(attempts))

    def _backoff(self, attempts: int) -> float:
        delay = min(
            self.retry_backoff_max, self.retry_backoff * (2 ** (attempts - 1))
        )
        return delay * (0.5 + 0.5 * self._retry_rng.random())

    def send_offsets_to_transaction(
        self,
        group: str,
        offsets: dict[TopicPartition, int],
        metadata: dict[str, Any] | None = None,
    ) -> None:
        """Stage input-offset commits to apply atomically with the outputs."""
        self.coordinator.add_offsets(
            self.transactional_id, self.epoch, group, offsets, metadata
        )


def get_transaction_coordinator(cluster: MessagingCluster) -> TransactionCoordinator:
    """One coordinator per cluster, created on first use."""
    coordinator = getattr(cluster, "_txn_coordinator", None)
    if coordinator is None:
        coordinator = TransactionCoordinator(cluster)
        cluster._txn_coordinator = coordinator
    return coordinator
