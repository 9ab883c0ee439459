"""The Kappa architecture (§2.2), built from our messaging layer.

"a single nearline system, e.g. a stream processing platform, processes the
input data.  To re-process data, a new job starts in parallel to an existing
one.  It re-processes the data from scratch and outputs the results to a
service layer.  After the job has finished, back-end systems read the data
loaded by the new job ... This approach only requires a single processing
path, but it has a higher storage footprint, and applications access stale
data while the system is re-processing data."

Measurable consequences for E7:

* :attr:`code_paths` is 1 (the advantage over Lambda);
* the log must retain *all* history to allow from-scratch reprocessing —
  :meth:`storage_bytes` includes it;
* during :meth:`reprocess`, queries keep hitting the *old* algorithm's view:
  :attr:`last_staleness_window` records for how long (simulated) the new
  algorithm's results were unavailable after the cutover began.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer

StreamUpdate = Callable[[dict[Any, Any], Any], None]


@dataclass
class KappaMetrics:
    """Costs E7 compares across architectures."""

    code_paths: int
    compute_seconds: float
    reprocess_seconds: float
    storage_bytes: int
    last_staleness_window: float


class KappaArchitecture:
    """One stream path; reprocessing = replay into a parallel view."""

    def __init__(
        self,
        clock: SimClock | None = None,
        num_brokers: int = 1,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = self.clock.cost_model
        self.stream = MessagingCluster(num_brokers=num_brokers, clock=self.clock)
        # Infinite retention: reprocessability requires the whole history.
        self.stream.create_topic("events", num_partitions=1)
        self._producer = Producer(self.stream)
        self._update: StreamUpdate | None = None
        self.version = "v0"
        self.view: dict[Any, Any] = {}
        self._position = 0
        self.code_paths = 0
        self.compute_seconds = 0.0
        self.reprocess_seconds = 0.0
        self.last_staleness_window = 0.0

    # -- logic registration (once) -----------------------------------------------------

    def register_logic(self, update: StreamUpdate, version: str) -> None:
        """Register THE implementation (single code path)."""
        if self._update is None:
            self.code_paths = 1
        self._update = update
        self.version = version

    # -- ingestion ------------------------------------------------------------------------

    def ingest(self, events: list[Any]) -> None:
        for event in events:
            self._producer.send("events", event)

    # -- nearline processing ------------------------------------------------------------------

    def process(self) -> int:
        """Fold new records into the active view; returns #records."""
        if self._update is None:
            raise ConfigError("register_logic before processing")
        self.stream.tick(0.0)
        processed, latency = self._fold_range(
            self.view, self._position, self.stream.end_offset(self._tp())
        )
        self._position += processed
        self.compute_seconds += latency
        self.clock.advance(latency)
        return processed

    def _tp(self) -> TopicPartition:
        return TopicPartition("events", 0)

    def _fold_range(
        self, view: dict[Any, Any], start: int, end: int
    ) -> tuple[int, float]:
        assert self._update is not None
        processed = 0
        latency = 0.0
        position = start
        while position < end:
            fetched = self.stream.fetch("events", 0, position, 500)
            records = fetched.records
            if not records:
                break
            latency += fetched.latency
            for record in records:
                self._update(view, record.value)
                latency += self.cost_model.cpu_per_message
            processed += len(records)
            position = records[-1].offset + 1
        return processed, latency

    # -- reprocessing (the Kappa move) ------------------------------------------------------------

    def reprocess(self, update: StreamUpdate, version: str) -> float:
        """Deploy new logic by replaying the whole log into a fresh view.

        The old view keeps serving until the new job catches up; the
        simulated duration of that window is recorded as
        :attr:`last_staleness_window`.  Returns it.
        """
        started_at = self.clock.now()
        old_update = self._update
        self._update = update
        new_view: dict[Any, Any] = {}
        self.stream.tick(0.0)
        end = self.stream.end_offset(self._tp())
        processed, latency = self._fold_range(new_view, 0, end)
        self.reprocess_seconds += latency
        self.clock.advance(latency)
        # Catch up anything ingested while reprocessing ran.
        self.stream.tick(0.0)
        tail, tail_latency = self._fold_range(
            new_view, end, self.stream.end_offset(self._tp())
        )
        self.reprocess_seconds += tail_latency
        self.clock.advance(tail_latency)
        # Cutover.
        self.view = new_view
        self._position = end + tail
        self.version = version
        self.last_staleness_window = self.clock.now() - started_at
        del old_update
        return self.last_staleness_window

    # -- serving ---------------------------------------------------------------------------------------

    def query(self, key: Any) -> Any:
        return self.view.get(key)

    # -- metrics (E7) -------------------------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """The fully-retained log (reprocessability has a storage price)."""
        return int(self.stream.stats()["stored_bytes"])

    def metrics(self) -> KappaMetrics:
        return KappaMetrics(
            code_paths=self.code_paths,
            compute_seconds=self.compute_seconds,
            reprocess_seconds=self.reprocess_seconds,
            storage_bytes=self.storage_bytes(),
            last_staleness_window=self.last_staleness_window,
        )
