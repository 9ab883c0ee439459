"""Exactly-once transactions: the paper's "ongoing effort" (§4.3).

"There is no built-in support to detect duplicates that can occur after a
failure ... there is an ongoing effort to design and implement support for
exactly-once semantics."

This module implements that effort, following the design Kafka eventually
shipped (KIP-98), reduced to its semantics:

* a **transaction coordinator** maps a stable ``transactional_id`` to a
  producer id and an epoch; re-initialization bumps the epoch and *fences*
  the previous incarnation (:class:`~repro.common.errors.ProducerFencedError`);
* a :class:`TransactionalProducer` — a
  :class:`~repro.messaging.producer.Producer` whose producer id, epoch and
  sequences are the coordinator's — groups sends into atomic units:
  ``begin() … commit()/abort()`` writes **control markers** into every
  partition the transaction touched;
* "transactional" is a field of the produce request, beside the producer
  id and sequence: partitions fold it, batch by batch, into open
  transactions and aborted runs, exposing the **last stable offset** (LSO):
  ``read_committed`` consumers never see records of an open or aborted
  transaction, nor records past the first still-open transaction
  (preserving order).  The records themselves carry nothing — their headers
  are the user's;
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
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.chaos.failpoints import failpoint
from repro.common.errors import (
    ConfigError,
    ProducerFencedError,
    TransactionError,
)
from repro.common.metrics import metric_name
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, MessagingCluster, ProduceAck
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.observability.trace import current_tracer

#: Header keys of a control marker (the only record that carries any).
HDR_PID = "__pid"
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
        counter = cluster.metrics.counter
        self._c_begins = counter(_M_BEGINS)
        self._c_commits = counter(_M_COMMITS)
        self._c_aborts = counter(_M_ABORTS)
        self._c_fencings = counter(_M_FENCINGS)
        self._c_markers = counter(_M_MARKERS)
        self._c_offsets = counter(_M_OFFSETS)
        self._c_commits_resumed = counter(_M_COMMITS_RESUMED)
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
            self._c_fencings.increment()
            if state.decided == CTRL_COMMIT:
                # Crash landed mid-commit: roll the decision forward so the
                # new incarnation starts from a clean, fully-applied state.
                self._c_commits_resumed.increment()
                self._complete_commit(transactional_id, state)
            elif state.open:
                # An incomplete, undecided transaction aborts.
                self._apply_abort(transactional_id, state)
        return state.producer_id, state.epoch

    def state_for(self, transactional_id: str, epoch: int) -> _TxnState:
        """State of the current incarnation; a stale ``epoch`` is fenced."""
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
        state = self.state_for(transactional_id, epoch)
        if state.open:
            raise TransactionError(f"{transactional_id!r}: transaction already open")
        state.open = True
        self._c_begins.increment()

    def add_partition(
        self, transactional_id: str, epoch: int, tp: TopicPartition
    ) -> None:
        state = self.state_for(transactional_id, epoch)
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
        state = self.state_for(transactional_id, epoch)
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        for tp, offset in offsets.items():
            state.pending_offsets[(group, tp)] = (offset, dict(metadata or {}))

    def commit(self, transactional_id: str, epoch: int) -> None:
        """Atomically commit outputs + staged offsets.

        Two phases: *decide* (flip the verdict, snapshot the sorted marker
        plan), then *apply* (markers, then offset commits).  A crash after
        the decision point — any of the ``txn.commit.*`` failpoints — leaves
        a decided state that :meth:`initialize` rolls forward, so committed
        outputs are never observable without their offsets.  Re-invoking
        ``commit`` on a decided transaction resumes the apply phase.
        """
        state = self.state_for(transactional_id, epoch)
        if state.decided == CTRL_COMMIT:
            self._complete_commit(transactional_id, state)
            return
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        failpoint("txn.commit", transactional_id=transactional_id)
        # Decision point: from here the transaction IS committed.
        state.decided = CTRL_COMMIT
        state.markers_pending = sorted(state.in_flight)
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
        for (group, tp) in sorted(state.pending_offsets):
            offset, metadata = state.pending_offsets[(group, tp)]
            self.cluster.offset_manager.commit(group, tp, offset, metadata)
            self._c_offsets.increment()
        state.pending_offsets.clear()
        state.in_flight.clear()
        state.open = False
        state.decided = None
        self._c_commits.increment()
        self._close_span(span)

    def abort(self, transactional_id: str, epoch: int) -> None:
        state = self.state_for(transactional_id, epoch)
        if state.decided == CTRL_COMMIT:
            raise TransactionError(
                f"{transactional_id!r}: transaction already decided to commit"
            )
        if not state.open:
            raise TransactionError(f"{transactional_id!r}: no open transaction")
        self._apply_abort(transactional_id, state)

    def _apply_abort(self, transactional_id: str, state: _TxnState) -> None:
        span = self._open_span("txn.abort", transactional_id, state)
        for tp in sorted(state.in_flight):
            self._write_marker(tp, CTRL_ABORT, state.producer_id)
        state.pending_offsets.clear()
        state.in_flight.clear()
        state.open = False
        self._c_aborts.increment()
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
        self._c_markers.increment()

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
                    "partitions": [str(tp) for tp in sorted(state.in_flight)],
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


class TransactionalProducer(Producer):
    """A :class:`~repro.messaging.producer.Producer` whose producer id, epoch
    and sequences are the coordinator's, and whose sends are atomic per
    transaction.

    Usage::

        producer = TransactionalProducer(cluster, "etl-job-7")
        producer.begin()
        producer.send("out", value, key=key)
        producer.send_offsets_to_transaction("job-etl", {tp: offset})
        producer.commit()   # or .abort()

    It is the idempotent ``acks=all`` producer — same validation,
    partitioning, linger buffer, retries and parking of a batch that
    exhausted them — under an identity that outlives the process: the
    coordinator hands out the producer id and holds the per-partition
    sequence table, so a restarted incarnation of the same transactional id
    continues the numbering and broker-side dedup stays correct.  This class
    adds only what a transaction adds: the lifecycle, registering each
    touched partition, and the ``transactional`` field on every batch.
    """

    _retries_metric = _M_SEND_RETRIES
    _transactional = True

    def __init__(
        self,
        cluster: MessagingCluster,
        transactional_id: str,
        linger_messages: int = 1,
    ) -> None:
        if not transactional_id:
            raise ConfigError("transactional_id must be non-empty")
        self.transactional_id = transactional_id
        self.coordinator = get_transaction_coordinator(cluster)
        self.producer_id, self.epoch = self.coordinator.initialize(
            transactional_id
        )
        super().__init__(
            cluster,
            ProducerConfig(
                acks=ACKS_ALL,
                idempotent=True,
                linger_messages=linger_messages,
                # Deterministic jitter: seeded from (id, epoch) so a
                # same-seed replay of a whole run reproduces every backoff.
                retry_jitter_seed=zlib.crc32(transactional_id.encode())
                ^ self.epoch,
            ),
        )
        self._sequences = self.coordinator.state_for(
            transactional_id, self.epoch
        ).sequences

    def _new_producer_id(self) -> int:
        return self.producer_id  # the coordinator's, set before Producer.__init__

    # -- lifecycle ------------------------------------------------------------------

    def begin(self) -> None:
        self.coordinator.begin(self.transactional_id, self.epoch)

    def commit(self) -> None:
        """Flush, then commit.  A flush that cannot deliver every batch
        raises and leaves the transaction open with the failed batches
        parked; a retried ``commit()`` sends them first."""
        self.flush()
        self.coordinator.commit(self.transactional_id, self.epoch)

    def abort(self) -> None:
        # Buffered records were never produced; a parked batch's leader
        # append may have stood, and the abort marker covers it either way.
        self.drop_pending()
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
    ) -> ProduceAck | None:
        """:meth:`Producer.send` inside the current transaction.

        One coordinator call is the fencing check and the open check; a
        fenced incarnation or a closed transaction raises here, before
        anything is staged.
        """
        self._check_open()
        return Producer.send(self, topic, value, key, partition, timestamp, headers)

    def _stage_run(
        self,
        tp: TopicPartition,
        entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
    ) -> None:
        """:meth:`Producer._stage_run` inside the current transaction, with
        ``send``'s fencing and open check."""
        self._check_open()
        Producer._stage_run(self, tp, entries)

    def _check_open(self) -> None:
        if not self.coordinator.state_for(self.transactional_id, self.epoch).open:
            raise TransactionError("send outside a transaction; call begin()")

    def flush(self) -> list[ProduceAck]:
        """:meth:`Producer.flush` in deterministic (sorted) partition order,
        so a same-seed replay appends identically.  ``commit`` flushes
        implicitly."""
        if not self._buffers and not self._failed_batches:
            return []
        # Fencing check up front: a zombie incarnation must not push its
        # staged records onto the wire under a stale epoch.
        self.coordinator.state_for(self.transactional_id, self.epoch)
        self._buffers = {tp: self._buffers[tp] for tp in sorted(self._buffers)}
        return Producer.flush(self)

    def _send_batch(
        self,
        tp: TopicPartition,
        entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
        seq: int | None = None,
    ) -> ProduceAck:
        # Registered once per batch, before the first attempt that could
        # land: the commit or abort marker reaches every partition the
        # transaction touched, a parked batch's included.
        self.coordinator.add_partition(self.transactional_id, self.epoch, tp)
        return Producer._send_batch(self, tp, entries, seq)

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


def find_transaction_coordinator(
    cluster: MessagingCluster,
) -> TransactionCoordinator | None:
    """The cluster's coordinator, ``None`` until a transactional client
    first used it: a reader looks without creating one."""
    return getattr(cluster, "_txn_coordinator", None)


def get_transaction_coordinator(cluster: MessagingCluster) -> TransactionCoordinator:
    """One coordinator per cluster, created on first use."""
    coordinator = find_transaction_coordinator(cluster)
    if coordinator is None:
        coordinator = TransactionCoordinator(cluster)
        cluster._txn_coordinator = coordinator
    return coordinator
