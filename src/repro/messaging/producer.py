"""Producer client (§3.1).

"Clients of the messaging layer are called producers and publish data to
different topics ... Producers can choose to which partition to publish data
in a round-robin fashion or according to a hash function for load-balancing
or semantic routing."

The producer adds the client-side behaviours the brokers don't provide:
partition selection, optional batching (``linger_messages``), bounded
retries on leadership changes (at-least-once delivery), and the optional
idempotent mode that upgrades retries to exactly-once per partition.

Construction takes a frozen
:class:`~repro.messaging.config.ProducerConfig` (defaults when omitted).

``send`` is also the root of the per-record tracing layer: with a tracer
installed (:mod:`repro.observability.trace`) each sampled record starts a
trace here, carried downstream in the reserved ``__trace`` header.
"""

from __future__ import annotations

import itertools
import random
from typing import Any

from repro.common.compression import BatchFrame, compress_entries, parse_compression
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    MessagingError,
    NotEnoughReplicasError,
    NotLeaderForPartitionError,
    ProducerFlushError,
    RecordTooLargeError,
    ReservedHeaderError,
    StaleEpochError,
)
from repro.common.metrics import metric_name
from repro.common.partitioning import partition_for_key
from repro.common.records import (
    EMPTY_HEADERS,
    RESERVED_HEADER_PREFIX,
    TRACE_HEADER,
    Headers,
    TopicPartition,
)
from repro.messaging.cluster import MessagingCluster, ProduceAck
from repro.messaging.config import (
    PARTITIONER_HASH,
    PARTITIONER_ROUND_ROBIN,
    ProducerConfig,
)
from repro.observability.trace import TraceContext, current_tracer

#: Transient produce failures the retry loop absorbs.  NotEnoughReplicas is
#: retriable because the ISR usually recovers (follower catch-up re-expands
#: it) and the idempotent path dedupes any leader append that stood.
_RETRIABLE = (
    NotLeaderForPartitionError,
    BrokerUnavailableError,
    StaleEpochError,
    NotEnoughReplicasError,
)

_producer_ids = itertools.count(1)

#: Logical-bytes-per-wire-byte observed per compressed batch.
_M_COMPRESSION_RATIO = metric_name("messaging", "producer", "compression_ratio")


def check_headers(headers: dict[str, Any]) -> None:
    """Refuse user headers in the system's reserved ``__`` namespace; a
    :class:`TraceContext` under ``__trace`` (a record continuing a trace)
    is the one system header a sender may pass on."""
    for name, held in headers.items():
        if name.startswith(RESERVED_HEADER_PREFIX) and not (
            name == TRACE_HEADER and isinstance(held, TraceContext)
        ):
            raise ReservedHeaderError(
                f"header {name!r} is in the system's reserved "
                f"{RESERVED_HEADER_PREFIX!r} namespace"
            )


class Producer:
    """Publishes records to topics with partitioning, batching and retries."""

    #: Counter bumped per retried produce, beside ``self.retries`` (the
    #: transactional subclass names one).
    _retries_metric: str | None = None
    #: Whether every batch joins a transaction (the ``transactional`` field
    #: of the produce request; the transactional subclass sets it).
    _transactional = False

    def __init__(
        self,
        cluster: MessagingCluster,
        config: ProducerConfig | None = None,
    ) -> None:
        if config is None:
            config = ProducerConfig()
        self.config = config
        self.cluster = cluster
        self.acks = config.acks
        self.partitioner = config.partitioner
        # Known per producer, so asked once: a callable partitioner is used
        # as is, a name selects one of the built-in rules below.
        self._partition_fn = (
            config.partitioner if callable(config.partitioner) else None
        )
        self.linger_messages = config.linger_messages
        self.max_retries = config.max_retries
        self.idempotent = config.idempotent
        self.client_id = config.client_id
        # Optional typed boundary: values are serialized on the way in
        # (see repro.common.serde; pass JsonSerde()).
        self.value_serde = config.value_serde
        # Batch compression: each linger batch is deflated once, client-side,
        # into a BatchFrame that then travels broker -> follower -> cold tier
        # as an opaque blob.  codec "none" sends no frame: same flush path,
        # no compress step.
        self._codec, self._codec_level = parse_compression(config.compression)
        self._last_frame: BatchFrame | None = None
        self._h_compression_ratio = (
            cluster.metrics.histogram(_M_COMPRESSION_RATIO)
            if self._codec != "none"
            else None
        )
        self._c_retries = (
            cluster.metrics.counter(self._retries_metric)
            if self._retries_metric is not None
            else None
        )
        self.producer_id = self._new_producer_id()
        self.retry_backoff = config.retry_backoff
        self.retry_backoff_max = config.retry_backoff_max
        # Deterministic jitter: seeded from the producer id unless the caller
        # pins a seed (chaos soaks do, for byte-identical replays).
        self._retry_rng = random.Random(
            self.producer_id
            if config.retry_jitter_seed is None
            else config.retry_jitter_seed
        )
        self._round_robin: dict[str, itertools.count] = {}
        # topic -> its partitions, one shared TopicPartition each: every
        # send to a partition keys the dicts below with the same object.
        # Filled on a topic's first successful lookup; a partition count
        # never changes, so an entry is never stale.
        self._partitions: dict[str, list[TopicPartition]] = {}
        self._sequences: dict[TopicPartition, int] = {}
        self._buffers: dict[TopicPartition, list[tuple[Any, Any, float | None, dict[str, Any]]]] = {}
        # Batches that exhausted their retries, parked with the idempotent
        # sequence they were (and will again be) sent under.  flush() drains
        # these before the live buffer of the same partition so per-partition
        # order — and broker-side dedup — survive the failure.
        self._failed_batches: dict[
            TopicPartition,
            list[tuple[int | None, list[tuple[Any, Any, float | None, dict[str, Any]]]]],
        ] = {}
        self.acks_received = 0
        self.retries = 0

    def _new_producer_id(self) -> int:
        """The identity idempotent dedup keys on (process-local here)."""
        return next(_producer_ids)

    # -- partition selection ------------------------------------------------------

    def _choose_partition(
        self, topic: str, key: Any, partition: int | None
    ) -> TopicPartition:
        partitions = self._partitions.get(topic)
        if partitions is None:
            # Raises TopicNotFoundError (and caches nothing) if unknown.
            partitions = self._partitions[topic] = self.cluster.partitions_of(topic)
        num_partitions = len(partitions)
        if partition is not None:
            if not 0 <= partition < num_partitions:
                raise ConfigError(
                    f"partition {partition} out of range for "
                    f"{topic} ({num_partitions} partitions)"
                )
            return partitions[partition]
        if self._partition_fn is not None:
            return partitions[self._partition_fn(key, num_partitions) % num_partitions]
        if self.partitioner == PARTITIONER_HASH and key is not None:
            return partitions[partition_for_key(key, num_partitions)]
        counter = self._round_robin.setdefault(topic, itertools.count())
        return partitions[next(counter) % num_partitions]

    # -- send path ----------------------------------------------------------------

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: int | None = None,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> ProduceAck | None:
        """Publish one record.

        With ``linger_messages == 1`` the record is sent immediately and its
        ack returned.  With batching enabled the record is buffered and
        ``None`` returned; the batch is sent when it reaches
        ``linger_messages`` records (or on :meth:`flush`).

        A batch that exhausts its retries is *not* dropped: it is re-buffered
        (with its idempotent sequence, if any) and the error re-raised, so a
        later :meth:`flush` retries it.  A record over the topic's
        ``max_message_bytes`` is dropped, the rest of its batch sent, and
        :class:`~repro.common.errors.RecordTooLargeError` raised (carrying
        the rest's failure as ``rest_error`` if the rest was parked).  While a
        partition has a re-buffered batch parked, newly buffered records for
        it are held back — sending them first would reorder the partition
        and break broker-side dedup.
        """
        if headers:
            check_headers(headers)
        if self.value_serde is not None:
            value = self.value_serde.serialize(value)
        tracer = current_tracer()
        span = None
        if tracer is not None:
            # A __trace header already present means this record continues an
            # existing trace (e.g. a job emitting to a derived feed) — parent
            # on it rather than starting (and re-sampling) a new trace.
            parent = headers.get(TRACE_HEADER) if headers else None
            span = tracer.open_span(
                "produce.send",
                parent,
                start=self.cluster.clock.now(),
                topic=topic,
            )
            if span is not None:
                if self.client_id is not None:
                    span.attrs["client_id"] = self.client_id
                headers = {**(headers or {}), TRACE_HEADER: span.context()}
        # A read-only copy: the sender's dict stays the sender's, and no
        # consumer can change the stored record.
        headers = Headers(headers) if headers else EMPTY_HEADERS
        tp = self._choose_partition(topic, key, partition)
        if span is not None:
            span.attrs["partition"] = tp.partition
        entry = (key, value, timestamp, headers)
        parked = tp in self._failed_batches
        if self.linger_messages == 1 and not parked:
            batch = [entry]
        else:
            batch = self._buffers.get(tp)
            if batch is None:
                batch = self._buffers[tp] = []
            batch.append(entry)
            if len(batch) < self.linger_messages or parked:
                if span is not None:
                    # Buffered: the send span covers only hand-off to the
                    # batch buffer; broker-side spans appear when the batch
                    # flushes.
                    span.attrs["buffered"] = True
                    tracer.close(span)
                return None
            del self._buffers[tp]
            if span is not None:
                span.attrs["batched"] = len(batch)
        if span is None:
            return self._send_batch(tp, batch)
        try:
            ack = self._send_batch(tp, batch)
            self._annotate_compression(span)
        except MessagingError as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span, end=self.cluster.clock.now())
        return ack

    def _stage_run(
        self,
        tp: TopicPartition,
        entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
    ) -> None:
        """Buffer a run of already-validated entries for ``tp``, as that many
        buffered :meth:`send` calls would: behind anything buffered or parked
        for the partition, sent by the next :meth:`flush`.  The producer
        takes ``entries`` over.

        The job runner's pass-end hand-over: a task stages its writes per
        partition (header and partition checks, tracing) and its producers
        never linger to a size, so nothing here sends.
        """
        buffer = self._buffers.get(tp)
        if buffer is None:
            self._buffers[tp] = entries
        else:
            buffer.extend(entries)

    def flush(self) -> list[ProduceAck]:
        """Send every parked and buffered batch; returns their acks.

        Parked (previously failed) batches go first — they predate anything
        in the live buffer of the same partition.  Partitions fail
        independently: one dead partition does not block the rest.  If any
        batch still cannot be delivered it stays buffered and
        :class:`~repro.common.errors.ProducerFlushError` is raised carrying
        the partial acks and the per-partition errors.  A record over the
        topic's size limit is not retried: it is dropped, the rest of its
        batch is delivered (its ack among the acks), and the
        :class:`~repro.common.errors.RecordTooLargeError` naming it is a
        failure.  If the rest then fails too, the partition reports both,
        the refusal first.
        """
        acks: list[ProduceAck] = []
        failures: list[tuple[TopicPartition, MessagingError]] = []
        for tp in list(self._failed_batches):
            parked = self._failed_batches.pop(tp)
            for i, (seq, entries) in enumerate(parked):
                try:
                    acks.append(self._send_batch(tp, entries, seq=seq))
                except MessagingError as exc:
                    if self._book_failure(tp, exc, acks, failures):
                        # _send_batch re-parked the failed batch; keep the
                        # rest queued behind it, in order, and move on.
                        self._failed_batches[tp].extend(parked[i + 1:])
                        break
        for tp in list(self._buffers):
            if tp in self._failed_batches:
                continue  # blocked behind a parked batch; order first
            entries = self._buffers.pop(tp)
            try:
                acks.append(self._send_batch(tp, entries))
            except MessagingError as exc:
                self._book_failure(tp, exc, acks, failures)
        if failures:
            raise ProducerFlushError(acks, failures)
        return acks

    @staticmethod
    def _book_failure(
        tp: TopicPartition,
        exc: MessagingError,
        acks: list[ProduceAck],
        failures: list[tuple[TopicPartition, MessagingError]],
    ) -> bool:
        """Book a batch that failed in :meth:`flush`; ``True`` unless it
        was a refusal whose rest landed or that left no rest.

        A batch that lost oversized records books the refusal first, then
        the rest's ack if it landed, or the failure that parked it.
        """
        failures.append((tp, exc))
        if not isinstance(exc, RecordTooLargeError):
            return True
        if exc.rest_error is not None:
            failures.append((tp, exc.rest_error))
            return True
        if exc.ack is not None:
            acks.append(exc.ack)
        return False

    def _send_batch(
        self,
        tp: TopicPartition,
        entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
        seq: int | None = None,
    ) -> ProduceAck:
        producer_id = self.producer_id if self.idempotent else None
        producer_seq: int | None = None
        if self.idempotent:
            if seq is not None:
                producer_seq = seq  # retry of a parked batch: original seq
            else:
                # Sequences advance at allocation, not on success: a batch
                # that fails keeps its number parked with it, so its retry
                # dedupes against any leader append that stood, and newer
                # batches can never collide with it.
                producer_seq = self._sequences.get(tp, -1) + 1
                self._sequences[tp] = producer_seq
        frame = self._last_frame = None
        if self._codec != "none":
            # Stamp timestamps *before* compressing so the frame and the
            # broker's stored records agree even when retries advance the
            # clock (the log's stamping then becomes a no-op).  The
            # stamped entries also replace the originals everywhere below —
            # parked batches keep them, so a flush-retry recompresses to the
            # same bytes.
            now = self.cluster.clock.now()
            entries = [
                (k, v, ts if ts is not None else now, h)
                for (k, v, ts, h) in entries
            ]
            frame = self._frame(entries)
        refused: RecordTooLargeError | None = None
        attempts = 0
        while True:
            try:
                ack = self.cluster.produce(
                    tp.topic,
                    tp.partition,
                    entries,
                    acks=self.acks,
                    producer_id=producer_id,
                    producer_seq=producer_seq,
                    client_id=self.client_id,
                    frame=frame,
                    transactional=self._transactional,
                )
            except RecordTooLargeError as exc:
                # Refused whole, so nothing landed: the rest goes out under
                # the same sequence, re-framed without the dropped records.
                refused = exc
                dropped = set(exc.indices)
                entries = [e for i, e in enumerate(entries) if i not in dropped]
                if not entries:
                    raise
                if self._codec != "none":
                    frame = self._frame(entries)
                continue
            except _RETRIABLE as exc:
                attempts += 1
                self.retries += 1
                if self._c_retries is not None:
                    self._c_retries.increment()
                if attempts > self.max_retries:
                    self._failed_batches.setdefault(tp, []).append(
                        (producer_seq, list(entries))
                    )
                    failure = MessagingError(
                        f"produce to {tp} failed after {attempts} attempts; "
                        f"{len(entries)} record(s) re-buffered for retry"
                    )
                    failure.__cause__ = exc
                    if refused is not None:
                        # The dropped records stay dropped and the rest is
                        # parked: the refusal carries both.
                        refused.rest_error = failure
                        raise refused
                    raise failure
                # Metadata refresh is implicit: the controller is the
                # authoritative source consulted on the next attempt.
                # Capped-exponential backoff with deterministic jitter gives
                # failovers and ISR recovery simulated time to complete.
                self.cluster.tick(self._backoff(attempts))
                continue
            self.acks_received += 1
            if refused is not None:
                refused.ack = ack
                raise refused
            return ack

    def _frame(
        self, entries: list[tuple[Any, Any, float | None, dict[str, Any]]]
    ) -> BatchFrame | None:
        """The batch compressed under the producer's codec, or None when it
        does not compress."""
        frame = self._last_frame = compress_entries(
            entries, self._codec, self._codec_level
        )
        if frame is not None:
            self._h_compression_ratio.observe(frame.ratio)
        return frame

    def _annotate_compression(self, span) -> None:
        """Attach codec + achieved ratio of the last framed batch to a span."""
        frame = self._last_frame
        if span is not None and frame is not None:
            span.attrs["codec"] = f"{frame.codec}:{frame.level}"
            span.attrs["compression_ratio"] = round(frame.ratio, 4)

    def _backoff(self, attempts: int) -> float:
        delay = min(
            self.retry_backoff_max, self.retry_backoff * (2 ** (attempts - 1))
        )
        return delay * (0.5 + 0.5 * self._retry_rng.random())

    def drop_pending(self) -> None:
        """Forget every buffered and parked batch: the client that held them
        is gone (a crashed container) or disowns them (an abort).  A parked
        batch's leader append may have stood; nothing here retries it."""
        self._buffers.clear()
        self._failed_batches.clear()

    def pending(self) -> int:
        """Records buffered or parked after a failure, not yet acked."""
        buffered = sum(len(b) for b in self._buffers.values())
        parked = sum(
            len(entries)
            for batches in self._failed_batches.values()
            for _seq, entries in batches
        )
        return buffered + parked
