"""Incremental processing of slowly-growing feeds (§4.2).

"Consider the problem of maintaining statistics about the data for a given
topic that is periodically updated ... reading all data each time that it
changes would be infeasible — the required time would increase linearly with
data size.  Instead, the processing layer can read the available data,
compute such statistics and maintain them as state.  After consuming some
data, the processing layer checkpoints the offsets in the offset manager.
When new data arrives, it fetches the offsets from the offset manager and
reads only the new data, appending new results to its state."

:class:`IncrementalFold` is that pattern as a reusable component, and
:meth:`IncrementalFold.recompute_from_scratch` is the full-recompute
baseline E3 compares it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar

from repro.common.records import ConsumerRecord
from repro.messaging.cluster import MessagingCluster
from repro.messaging.reader import PartitionReader

S = TypeVar("S")  # state type


@dataclass
class UpdateReport:
    """Cost and volume of one update pass."""

    records_read: int
    simulated_seconds: float
    from_scratch: bool
    #: Offsets retention deleted below the fold's position, jumped over.
    records_skipped: int = 0


class IncrementalFold(Generic[S]):
    """Maintains ``state = fold(state, record)`` over a feed incrementally.

    Positions are checkpointed in the offset manager under ``group`` with
    the fold's ``version`` annotation, so a restarted process resumes where
    it left off, and a *changed* fold (new version) can choose to recompute.
    """

    def __init__(
        self,
        cluster: MessagingCluster,
        topic: str,
        group: str,
        init: Callable[[], S],
        fold: Callable[[S, ConsumerRecord], S],
        version: str = "v1",
        batch: int = 500,
    ) -> None:
        self.cluster = cluster
        self.topic = topic
        self.group = group
        self.init = init
        self.fold = fold
        self.version = version
        self.batch = batch
        self.state: S = init()
        # Resume from checkpoints (the §4.2 'fetch the offsets' step).
        self._reader = PartitionReader(cluster, group=group)
        self._reader.assign(cluster.partitions_of(topic))

    # -- incremental path ---------------------------------------------------------------

    def update(self) -> UpdateReport:
        """Fold in only the records appended since the last update."""
        return self._fold_from(self._reader, from_scratch=False)

    def _fold_from(self, reader: PartitionReader, from_scratch: bool) -> UpdateReport:
        records_read = 0
        latency = 0.0
        skipped = reader.skipped
        for tp in self.cluster.partitions_of(self.topic):
            end = self.cluster.end_offset(tp)
            for records, fetch_latency in reader.drain(tp, end, self.batch):
                latency += fetch_latency
                for record in records:
                    self.state = self.fold(self.state, record)
                    latency += self.cluster.cost_model.cpu_per_message
                records_read += len(records)
            self.cluster.offset_manager.commit(
                self.group, tp, reader.positions[tp], {"software_version": self.version}
            )
        skipped = reader.skipped - skipped
        return UpdateReport(records_read, latency, from_scratch, skipped)

    # -- full-recompute baseline ------------------------------------------------------------

    def recompute_from_scratch(self) -> UpdateReport:
        """Rebuild the state by re-reading the entire retained feed.

        This is what a back-end system without incremental support must do
        on every change — the cost that "would increase linearly with data
        size"."""
        self.state = self.init()
        self._reader = PartitionReader(self.cluster)
        self._reader.assign(self.cluster.partitions_of(self.topic))
        return self._fold_from(self._reader, from_scratch=True)
