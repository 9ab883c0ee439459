"""One partition reader: positions, the fetch and one out-of-range policy.

Every library client that reads a log partition by partition reads through
a :class:`PartitionReader`: the consumer, a job's tasks, changelog replay,
MirrorMaker, the incremental fold and the two baseline architectures (§4.2:
a reader resumes from its checkpointed offsets).  A position is seeded from
the group's commit, else by the policy.  The policy is Kafka's
``auto.offset.reset``: when retention deleted a position, or a truncation
left it past the end, the reader reseats it at the beginning offset
(``"earliest"``) or the end (``"latest"``), counts the reseat and the
offsets it jumped, and fetches once more.  Only the consumer picks a
policy; every other reader uses ``"earliest"``, where each starts without a
commit.  :meth:`fetch` leaves the position to its caller, who moves it once
the records are used; :meth:`drain` moves it past each response it yields.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.common.errors import OffsetOutOfRangeError
from repro.common.records import ConsumerRecord, TopicPartition


class PartitionReader:
    """Positions over a set of partitions, read with one reset policy."""

    def __init__(
        self,
        cluster: Any,
        group: str | None = None,
        reset: str = "earliest",
        isolation: str = "read_uncommitted",
        client_id: str | None = None,
    ) -> None:
        self.cluster = cluster
        self.group = group
        self.reset = reset
        self.isolation = isolation
        self.client_id = client_id
        #: The next offset to read, per placed partition.
        self.positions: dict[TopicPartition, int] = {}
        #: Reseats, and the offsets they jumped, over the reader's life.
        self.reseats = 0
        self.skipped = 0

    def _policy_offset(self, tp: TopicPartition) -> int:
        if self.reset == "earliest":
            return self.cluster.beginning_offset(tp)
        return self.cluster.end_offset(tp)

    def seed(self, tp: TopicPartition) -> int:
        """Place ``tp`` (unless placed) at the group's commit, else by the
        policy; returns its position."""
        if tp not in self.positions:
            commit = None
            if self.group is not None:
                commit = self.cluster.offset_manager.fetch(self.group, tp)
            self.positions[tp] = (
                commit.offset if commit is not None else self._policy_offset(tp)
            )
        return self.positions[tp]

    def assign(self, partitions: Iterable[TopicPartition]) -> None:
        """Read exactly ``partitions``: a kept one keeps its position."""
        partitions = list(partitions)
        for tp in [tp for tp in self.positions if tp not in partitions]:
            del self.positions[tp]
        for tp in partitions:
            self.seed(tp)

    def fetch(self, tp: TopicPartition, max_messages: int, lazy: bool = False):
        """One fetch of ``tp`` from its position, reseated first if out of
        range."""
        try:
            return self.cluster.fetch(
                tp.topic, tp.partition, self.positions[tp], max_messages,
                isolation=self.isolation, client_id=self.client_id, lazy=lazy,
            )
        except OffsetOutOfRangeError:
            old = self.positions[tp]
            new = self.positions[tp] = self._policy_offset(tp)
            self.reseats += 1
            self.skipped += max(0, new - old)
        return self.cluster.fetch(
            tp.topic, tp.partition, new, max_messages,
            isolation=self.isolation, client_id=self.client_id, lazy=lazy,
        )

    def drain(
        self, tp: TopicPartition, end: int, batch: int, max_records: int | None = None
    ) -> Iterator[tuple[list[ConsumerRecord], float]]:
        """Yield ``tp``'s records from its position (seeded if unplaced) to
        ``end`` a response (at most ``batch``, and ``max_records`` in all) at
        a time, with its fetch latency.  Stops at ``end``, or at a response
        that makes no progress (the rest sits above the last stable offset)."""
        self.seed(tp)
        positions = self.positions
        taken = 0
        while positions[tp] < end:
            budget = batch
            if max_records is not None:
                budget = min(budget, max_records - taken)
                if budget <= 0:
                    return
            result = self.fetch(tp, budget)
            position = positions[tp]  # where a reseat put it
            records = result.records
            if records and records[-1].offset >= end:
                records = [record for record in records if record.offset < end]
            taken += len(records)
            yield records, result.latency
            if result.next_offset <= position:
                return
            positions[tp] = max(position, min(result.next_offset, end))
