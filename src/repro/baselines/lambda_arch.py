"""The Lambda architecture (§2.2), built from our own substrates.

"input data is sent to both an offline and an online processing system.
Both systems execute the same processing logic and output results to a
service layer ... developers must write, debug, and maintain the same
processing code for both the batch and stream layers, and the Lambda
architecture increases the hardware footprint."

The implementation makes the paper's criticisms measurable (E7):

* the same ``algorithm`` must be *registered twice* — once as a map/reduce
  pair for the batch layer, once as a streaming fold — and
  :attr:`code_paths` counts the implementations that must be kept in sync;
* every event is stored twice (DFS master dataset + stream log):
  :meth:`storage_bytes` exposes the footprint;
* the batch view is stale by design between recomputes: :meth:`staleness`
  reports the age of the data it reflects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.baselines.dfs import SimulatedDFS
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer

#: A streaming fold: (view, event) -> None, mutating the view in place.
StreamUpdate = Callable[[dict[Any, Any], Any], None]
#: A batch map: event -> iterable of (key, contribution).
BatchMap = Callable[[Any], Iterable[tuple[Any, Any]]]
#: A batch reduce: (key, contributions) -> aggregated value.
BatchReduce = Callable[[Any, list[Any]], Any]


@dataclass
class LambdaMetrics:
    """Costs E7 compares across architectures."""

    code_paths: int
    batch_compute_seconds: float
    speed_compute_seconds: float
    storage_bytes: int
    batch_view_age: float


class LambdaArchitecture:
    """Batch layer (MR/DFS) + speed layer (stream) + merged serving layer."""

    def __init__(
        self,
        clock: SimClock | None = None,
        num_brokers: int = 1,
        ingest_batch_size: int = 500,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = self.clock.cost_model
        # Two separate systems — the doubled hardware footprint.
        self.dfs = SimulatedDFS(self.clock)
        self.mr = MapReduceEngine(self.dfs)
        self.stream = MessagingCluster(num_brokers=num_brokers, clock=self.clock)
        self.stream.create_topic("events", num_partitions=1)
        self._producer = Producer(self.stream)
        self._ingest_batch_size = ingest_batch_size
        self._staging: list[Any] = []
        self._part_counter = 0
        # Serving layer.
        self.batch_view: dict[Any, Any] = {}
        self.realtime_view: dict[Any, Any] = {}
        self._speed_position = 0
        self._batch_view_built_at = 0.0
        # The duplicated logic.
        self._stream_update: StreamUpdate | None = None
        self._batch_map: BatchMap | None = None
        self._batch_reduce: BatchReduce | None = None
        self.code_paths = 0
        self.batch_compute_seconds = 0.0
        self.speed_compute_seconds = 0.0

    # -- logic registration (twice!) ---------------------------------------------------

    def register_stream_logic(self, update: StreamUpdate) -> None:
        """Register the speed-layer implementation of the algorithm."""
        if self._stream_update is None:
            self.code_paths += 1
        self._stream_update = update

    def register_batch_logic(self, map_fn: BatchMap, reduce_fn: BatchReduce) -> None:
        """Register the batch-layer implementation of the *same* algorithm."""
        if self._batch_map is None:
            self.code_paths += 1
        self._batch_map = map_fn
        self._batch_reduce = reduce_fn

    def _require_logic(self) -> None:
        if self._stream_update is None or self._batch_map is None:
            raise ConfigError(
                "Lambda requires BOTH stream and batch implementations "
                "registered before processing"
            )

    # -- ingestion (dual write) -----------------------------------------------------------

    def ingest(self, events: list[Any]) -> None:
        """Every event goes to both systems: DFS master dataset + stream."""
        self._staging.extend(events)
        while len(self._staging) >= self._ingest_batch_size:
            chunk, self._staging = (
                self._staging[: self._ingest_batch_size],
                self._staging[self._ingest_batch_size :],
            )
            self._flush_chunk(chunk)
        for event in events:
            self._producer.send("events", event)

    def _flush_chunk(self, chunk: list[Any]) -> None:
        path = f"/master/part-{self._part_counter:05d}"
        self._part_counter += 1
        self.dfs.write_file(path, chunk)

    def flush_staging(self) -> None:
        if self._staging:
            chunk, self._staging = self._staging, []
            self._flush_chunk(chunk)

    # -- speed layer ------------------------------------------------------------------------

    def run_speed_layer(self) -> int:
        """Fold new stream records into the realtime view; returns #records."""
        self._require_logic()
        assert self._stream_update is not None
        self.stream.tick(0.0)
        processed = 0
        tp = TopicPartition("events", 0)
        end = self.stream.end_offset(tp)
        while self._speed_position < end:
            fetched = self.stream.fetch("events", 0, self._speed_position, 500)
            records = fetched.records
            if not records:
                break
            latency = fetched.latency
            for record in records:
                self._stream_update(self.realtime_view, record.value)
                latency += self.cost_model.cpu_per_message
            processed += len(records)
            self._speed_position = records[-1].offset + 1
            self.speed_compute_seconds += latency
            self.clock.advance(latency)
        return processed

    # -- batch layer -------------------------------------------------------------------------

    def run_batch_layer(self) -> float:
        """Recompute the batch view from the full master dataset via MR.

        Returns the job's simulated duration.  The realtime view is reset for
        the data the new batch view covers (standard Lambda bookkeeping).
        """
        self._require_logic()
        assert self._batch_map is not None and self._batch_reduce is not None
        self.flush_staging()
        batch_reduce = self._batch_reduce

        def reduce_to_pairs(key: Any, values: list[Any]) -> Iterable[Any]:
            yield (key, batch_reduce(key, values))

        spec = MRJobSpec(
            name="lambda-batch",
            input_paths=["/master"],
            output_path="/views/batch",
            map_fn=self._batch_map,
            reduce_fn=reduce_to_pairs,
        )
        result = self.mr.run(spec)
        self.batch_compute_seconds += result.total_seconds
        output = self.dfs.read_file("/views/batch/part-00000")
        self.batch_view = dict(output.records)
        self.realtime_view = {}
        self._batch_view_built_at = self.clock.now()
        return result.total_seconds

    # -- serving layer ------------------------------------------------------------------------

    def query(self, key: Any, merge: Callable[[Any, Any], Any] | None = None) -> Any:
        """Merge batch and realtime views (sum by default for numerics)."""
        batch = self.batch_view.get(key)
        realtime = self.realtime_view.get(key)
        if batch is None:
            return realtime
        if realtime is None:
            return batch
        if merge is not None:
            return merge(batch, realtime)
        return batch + realtime

    # -- metrics (E7) -----------------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Both copies of the data: DFS master dataset + stream log."""
        log_bytes = self.stream.stats()["stored_bytes"]
        return self.dfs.total_stored_bytes() + log_bytes

    def staleness(self) -> float:
        """Age of the data reflected in the batch view."""
        return self.clock.now() - self._batch_view_built_at

    def metrics(self) -> LambdaMetrics:
        return LambdaMetrics(
            code_paths=self.code_paths,
            batch_compute_seconds=self.batch_compute_seconds,
            speed_compute_seconds=self.speed_compute_seconds,
            storage_bytes=self.storage_bytes(),
            batch_view_age=self.staleness(),
        )
