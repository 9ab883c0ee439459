"""Consumer client (§3.1).

"Consumers pull data from brokers by providing a set of offsets.  After a
pull request, brokers return the latest data after the specified offsets.
This approach makes it efficient to maintain the latest consumed data, i.e.
it requires only storing a single integer per partition."

The consumer supports both manual partition assignment (:meth:`assign`) and
group subscription (:meth:`subscribe`), time- and metadata-based rewind
(the paper's rewindability property), and offset commits carrying
annotations through the offset manager.  Positions, the fetch and
``auto_offset_reset`` live in its
:class:`~repro.messaging.reader.PartitionReader`.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.common.costmodel import round_latency
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    NotLeaderForPartitionError,
)
from repro.common.metrics import metric_name
from repro.common.records import TRACE_HEADER, ConsumerRecord, TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.fetchbuffer import FetchBuffer
from repro.messaging.reader import PartitionReader
from repro.observability.trace import current_tracer

_consumer_ids = itertools.count(1)

#: Polls (per partition) served from a buffer fetched ahead of demand.
_M_PREFETCH_HITS = metric_name("messaging", "consumer", "prefetch_hits")


class Consumer:
    """Pull-based consumer with optional group membership.

    Construction takes a frozen
    :class:`~repro.messaging.config.ConsumerConfig` (defaults when
    omitted).  The ``group_coordinator`` stays a constructor argument: it
    is live runtime wiring, not config.
    """

    def __init__(
        self,
        cluster: MessagingCluster,
        config: ConsumerConfig | None = None,
        group_coordinator: GroupCoordinator | None = None,
    ) -> None:
        if config is None:
            config = ConsumerConfig()
        if config.group is not None and group_coordinator is None:
            raise ConfigError("group subscription requires a group_coordinator")
        self.config = config
        self.cluster = cluster
        self._c_prefetch_hits = cluster.metrics.counter(_M_PREFETCH_HITS)
        # What the poll's fetches to one broker share (round_latency).
        self._request_fixed = cluster.cost_model.request_fixed()
        self.group = config.group
        self.group_coordinator = group_coordinator
        self.auto_offset_reset = config.auto_offset_reset
        self.max_poll_messages = config.max_poll_messages
        self.value_serde = config.value_serde
        self.prefetch = config.prefetch
        self.member_id = f"consumer-{next(_consumer_ids)}"
        self._assignment: list[TopicPartition] = []
        # The assigned partitions' positions, the fetch and the policy.
        self._reader = PartitionReader(
            cluster, config.group, config.auto_offset_reset,
            config.isolation_level, config.client_id,
        )
        # One buffered fetch response per partition: the remainder of a
        # partially-drained poll, or a response fetched ahead of demand.
        self._buffers: dict[TopicPartition, FetchBuffer] = {}
        self._generation: int | None = None
        self._subscribed_topics: set[str] = set()
        self._rr = 0  # round-robin cursor over assigned partitions
        self.last_poll_latency = 0.0
        self.records_consumed = 0
        self.closed = False

    # -- assignment ------------------------------------------------------------------

    def assign(self, partitions: list[TopicPartition]) -> None:
        """Manually assign partitions (no group management)."""
        if self.group is not None:
            raise ConfigError("cannot mix manual assign with group subscribe")
        self._assign(partitions)

    def subscribe(self, topics: list[str] | set[str]) -> None:
        """Join the consumer group for ``topics``; assignment is managed."""
        if self.group is None or self.group_coordinator is None:
            raise ConfigError("subscribe requires a group")
        self._subscribed_topics = set(topics)
        self._generation = self.group_coordinator.join(
            self.group, self.member_id, self._subscribed_topics
        )
        self._refresh_assignment()

    def _refresh_assignment(self) -> None:
        assert self.group is not None and self.group_coordinator is not None
        self._assign(self.group_coordinator.assignment_for(self.group, self.member_id))
        self._generation = self.group_coordinator.generation(self.group)

    def _assign(self, partitions: list[TopicPartition]) -> None:
        self._assignment = list(partitions)
        # A rebalance may hand our partitions elsewhere; buffered responses
        # for them are stale the moment the new owner starts consuming.
        self._buffers = {
            tp: buf for tp, buf in self._buffers.items() if tp in self._assignment
        }
        self._reader.assign(self._assignment)

    def assignment(self) -> list[TopicPartition]:
        return list(self._assignment)

    # -- poll loop -------------------------------------------------------------------

    def poll(self, max_messages: int | None = None) -> list[ConsumerRecord]:
        """Fetch the next batch across assigned partitions.

        Partitions are serviced round-robin so one busy partition cannot
        starve the others.  Detects group rebalances (generation change) and
        refreshes the assignment before fetching.

        Responses arrive as lazy :class:`~repro.messaging.fetchbuffer.FetchBuffer`
        objects: records are built (frames inflated, the value serde applied)
        only as a poll drains them.  With ``prefetch=True`` the consumer issues the
        next fetch as soon as a buffer drains, so its latency overlaps whatever
        simulated time the application spends processing the previous poll.

        The poll's fetches are one round
        (:func:`~repro.common.costmodel.round_latency`): one request in
        flight per broker, so the poll's own fetches to one broker are one
        request, paying its dispatch and round trip once, and
        :attr:`last_poll_latency` is the largest per-broker sum of what the
        fetches still owe, plus the summed client-side inflate CPU.  A
        prefetched remainder was sent at an earlier instant: it stays a
        request of its own.
        """
        if self.closed:
            raise ConfigError("consumer is closed")
        self._maybe_rejoin()
        budget = max_messages if max_messages is not None else self.max_poll_messages
        records: list[ConsumerRecord] = []
        fetches: list[tuple[Consumer | None, int, float, float]] = []
        fixed = self._request_fixed
        inflate = 0.0
        if not self._assignment:
            self.last_poll_latency = 0.0
            return records
        reader = self._reader
        positions = reader.positions
        n = len(self._assignment)
        for i in range(n):
            if budget <= 0:
                break
            tp = self._assignment[(self._rr + i) % n]
            buffer = self._buffers.pop(tp, None)
            if buffer is not None and buffer.exhausted:
                buffer = None
            if buffer is None:
                try:
                    result = reader.fetch(tp, budget, lazy=True)
                except (BrokerUnavailableError, NotLeaderForPartitionError):
                    continue  # transient during failover; retry next poll
                buffer = FetchBuffer(
                    result.batches, result.next_offset, result.latency,
                    result.broker, issued_at=self.cluster.clock.now(),
                )
            if buffer.latency:
                owed = buffer.latency
                client = self
                if buffer.prefetched:
                    # The fetch has been in flight since it was issued; only
                    # the portion that did not overlap application time is
                    # still owed, by a request of its own.
                    elapsed = self.cluster.clock.now() - buffer.issued_at
                    owed = max(0.0, owed - elapsed)
                    client = None
                # In place, not append(): no call per fetch on the poll path.
                fetches += ((client, buffer.broker, fixed, owed),)
                buffer.latency = 0.0
            batch, inflate_latency = buffer.take(
                budget, self.cluster.cost_model, self.value_serde
            )
            inflate += inflate_latency
            if batch:
                if buffer.prefetched:
                    self._c_prefetch_hits.increment(1)
                    buffer.prefetched = False
                # The first partition's list is the poll's (the caller's
                # own, see FetchBuffer.take); a later one extends it.
                if records:
                    records += batch
                else:
                    records = batch
                budget -= len(batch)
            # Advance by the scan position, not the last delivered record:
            # skipped markers/aborted records must not wedge the consumer.
            position = buffer.position()
            if position is not None:
                positions[tp] = max(positions[tp], position)
            if not buffer.exhausted:
                self._buffers[tp] = buffer
            elif self.prefetch:
                self._issue_prefetch(tp)
        self._rr = (self._rr + 1) % n
        self.last_poll_latency = round_latency(fetches) + inflate
        self.records_consumed += len(records)
        tracer = current_tracer()
        if tracer is not None and records:
            now = self.cluster.clock.now()
            for r in records:
                ctx = r.headers.get(TRACE_HEADER) if r.headers else None
                if ctx is not None:
                    span = tracer.record(
                        "consumer.poll", ctx, now, now,
                        topic=r.topic, partition=r.partition, offset=r.offset,
                        member=self.member_id,
                    )
                    if self.group is not None:
                        span.attrs["group"] = self.group
        return records

    def _issue_prefetch(self, tp: TopicPartition) -> None:
        """Fetch the next response for ``tp`` before the application asks.

        The buffer records its simulated issue time; when the next poll
        drains it, only fetch latency that did not overlap the application's
        processing time is charged (see :meth:`poll`).
        """
        try:
            result = self._reader.fetch(tp, self.max_poll_messages, lazy=True)
        except (BrokerUnavailableError, NotLeaderForPartitionError):
            return  # next poll falls back to a synchronous fetch
        self._buffers[tp] = FetchBuffer(
            result.batches, result.next_offset, result.latency, result.broker,
            issued_at=self.cluster.clock.now(), prefetched=True,
        )

    def _maybe_rejoin(self) -> None:
        if self.group is None or self.group_coordinator is None:
            return
        if not self._subscribed_topics:
            return
        current = self.group_coordinator.generation(self.group)
        if current != self._generation:
            self._refresh_assignment()

    # -- seeking (rewindability, §3.1/§4.2) -----------------------------------------------

    def seek(self, tp: TopicPartition, offset: int) -> None:
        self._require_assigned(tp)
        self._reader.positions[tp] = offset
        # Any buffered response is for the old position.
        self._buffers.pop(tp, None)

    def seek_to_beginning(self, tp: TopicPartition) -> None:
        self.seek(tp, self.cluster.beginning_offset(tp))

    def seek_to_timestamp(self, tp: TopicPartition, timestamp: float) -> int:
        """Rewind to the first record at/after ``timestamp``; returns the
        offset (the log end if no such record exists)."""
        offset = self.cluster.offset_for_timestamp(tp, timestamp)
        if offset is None:
            offset = self.cluster.end_offset(tp)
        self.seek(tp, offset)
        return offset

    def position(self, tp: TopicPartition) -> int:
        self._require_assigned(tp)
        return self._reader.positions[tp]

    def _require_assigned(self, tp: TopicPartition) -> None:
        if tp not in self._reader.positions:
            raise ConfigError(f"{tp} is not assigned to this consumer")

    # -- commits -----------------------------------------------------------------------------

    def commit(self, metadata: dict[str, Any] | None = None) -> None:
        """Checkpoint current positions (with annotations) for the group."""
        if self.group is None:
            raise ConfigError("commit requires a group")
        for tp in self._assignment:
            self.cluster.offset_manager.commit(
                self.group, tp, self._reader.positions[tp], metadata
            )

    # -- lifecycle -----------------------------------------------------------------------------

    def close(self) -> None:
        """Leave the group (triggering a rebalance) and stop consuming."""
        if self.closed:
            return
        if self.group is not None and self.group_coordinator is not None:
            if self._subscribed_topics:
                self.group_coordinator.leave(self.group, self.member_id)
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Consumer({self.member_id}, group={self.group!r}, "
            f"assigned={len(self._assignment)})"
        )
