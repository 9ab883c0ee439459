"""Reusable ETL task library (§1, §3.2).

"This layer can perform arbitrary data processing before passing data to
back-end systems, ranging from data cleaning and normalization, to the
computation of aggregate statistics or the detection of anomalies in the
data."

These are the building blocks examples and benchmarks compose into
pipelines; each is a :class:`~repro.processing.task.StreamTask`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.common.records import ConsumerRecord
from repro.processing.task import MessageCollector, TaskContext


class MapTask:
    """Apply a function to every record's value; emit to ``output``.

    The identity-function instance is the unit of pipeline-depth experiments
    (E2): each extra stage is one more hop through the log.
    """

    def __init__(
        self,
        output: str,
        fn: Callable[[Any], Any] = lambda value: value,
        preserve_timestamp: bool = True,
    ) -> None:
        self.output = output
        self.fn = fn
        self.preserve_timestamp = preserve_timestamp

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        collector.send(
            self.output,
            self.fn(record.value),
            key=record.key,
            timestamp=record.timestamp if self.preserve_timestamp else None,
        )


class CleaningTask:
    """Field-level cleaning/normalization (§5.1 data cleaning use case).

    ``rules`` maps field name → normalizer.  Records the applied algorithm
    version in the output headers so downstream consumers can tell which
    algorithm cleaned each record — the property that §5.1 says mixed
    pipelines lacked.
    """

    def __init__(
        self,
        output: str,
        rules: dict[str, Callable[[Any], Any]],
        version: str = "v1",
        drop_malformed: bool = True,
    ) -> None:
        self.output = output
        self.rules = rules
        self.version = version
        self.drop_malformed = drop_malformed
        self.dropped = 0

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        value = record.value
        if not isinstance(value, dict):
            if self.drop_malformed:
                self.dropped += 1
                return
            raise ConfigError(f"CleaningTask expects dict values, got {type(value)}")
        cleaned = dict(value)
        for column, normalize in self.rules.items():
            if column in cleaned:
                try:
                    cleaned[column] = normalize(cleaned[column])
                except (ValueError, TypeError):
                    if self.drop_malformed:
                        self.dropped += 1
                        return
                    raise
        collector.send(
            self.output,
            cleaned,
            key=record.key,
            timestamp=record.timestamp,
            headers={"cleaned_by": self.version},
        )


class EnrichTask:
    """Join each record with reference data held in task state.

    The reference table lives in the ``reference`` store (restored from its
    changelog after failures); records with no match pass through with
    ``enriched=False``.
    """

    def __init__(
        self,
        output: str,
        lookup_key: Callable[[Any], Any],
        merge: Callable[[Any, Any], Any],
        store_name: str = "reference",
    ) -> None:
        self.output = output
        self.lookup_key = lookup_key
        self.merge = merge
        self.store_name = store_name
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        reference = self._store.get(self.lookup_key(record.value))
        if reference is not None:
            value = self.merge(record.value, reference)
        else:
            value = dict(record.value) if isinstance(record.value, dict) else record.value
            if isinstance(value, dict):
                value["enriched"] = False
        collector.send(self.output, value, key=record.key, timestamp=record.timestamp)


class GroupCountTask:
    """Count records per group key; emit running counts (stateful).

    ``group_fn`` extracts the grouping dimension from the value (location,
    CDN, page, ... — the §5.1 site-speed groupings).
    """

    def __init__(
        self,
        output: str,
        group_fn: Callable[[Any], Any],
        store_name: str = "counts",
    ) -> None:
        self.output = output
        self.group_fn = group_fn
        self.store_name = store_name
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        group = self.group_fn(record.value)
        count = self._store.get_or_default(group, 0) + 1
        self._store.put(group, count)
        collector.send(
            self.output,
            {"group": group, "count": count},
            key=group,
            timestamp=record.timestamp,
        )


class RouterTask:
    """Route records to different output topics by a classification function.

    ``route_fn(value) -> topic-or-None``; ``None`` drops the record.
    """

    def __init__(self, route_fn: Callable[[Any], str | None]) -> None:
        self.route_fn = route_fn

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        topic = self.route_fn(record.value)
        if topic is not None:
            collector.send(
                topic, record.value, key=record.key, timestamp=record.timestamp
            )


class AnomalyDetectorTask:
    """Flag values deviating from a per-key running mean (§5.1 operational
    analysis / site-speed anomaly detection).

    Keeps per-key exponential moving averages of a metric in state and emits
    an alert when a sample exceeds ``threshold`` × the moving average.
    """

    def __init__(
        self,
        output: str,
        metric_fn: Callable[[Any], float],
        key_fn: Callable[[Any], Any],
        threshold: float = 3.0,
        alpha: float = 0.2,
        min_samples: int = 5,
        store_name: str = "baselines",
    ) -> None:
        if threshold <= 1.0:
            raise ConfigError("threshold must be > 1.0")
        if not 0 < alpha <= 1:
            raise ConfigError("alpha must be in (0, 1]")
        self.output = output
        self.metric_fn = metric_fn
        self.key_fn = key_fn
        self.threshold = threshold
        self.alpha = alpha
        self.min_samples = min_samples
        self.store_name = store_name
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        key = self.key_fn(record.value)
        sample = self.metric_fn(record.value)
        entry = self._store.get_or_default(key, {"ema": sample, "n": 0})
        ema, n = entry["ema"], entry["n"]
        if n >= self.min_samples and sample > self.threshold * ema:
            collector.send(
                self.output,
                {
                    "key": key,
                    "sample": sample,
                    "baseline": ema,
                    "factor": sample / ema if ema else float("inf"),
                },
                key=key,
                timestamp=record.timestamp,
            )
        new_ema = (1 - self.alpha) * ema + self.alpha * sample
        self._store.put(key, {"ema": new_ema, "n": n + 1})


class DeduplicateTask:
    """Application-side duplicate detection (§4.3).

    "the messaging layer provides at-least-once delivery semantics ... This
    is sufficient for applications that only handle keyed data with
    idempotent updates, because duplicates can be detected easily by the
    application."  This task IS that detection: it remembers recently seen
    record ids in changelogged state and forwards each id once.

    ``id_fn`` extracts the identity (defaults to the record key);
    ``ttl_seconds`` bounds state growth by expiring old ids.
    """

    def __init__(
        self,
        output: str,
        id_fn: Callable[[Any], Any] | None = None,
        ttl_seconds: float = 3600.0,
        store_name: str = "seen",
    ) -> None:
        if ttl_seconds <= 0:
            raise ConfigError("ttl_seconds must be > 0")
        self.output = output
        self.id_fn = id_fn
        self.ttl_seconds = ttl_seconds
        self.store_name = store_name
        self.duplicates_dropped = 0
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        record_id = (
            self.id_fn(record.value) if self.id_fn is not None else record.key
        )
        seen_at = self._store.get(record_id)
        if seen_at is not None and record.timestamp - seen_at <= self.ttl_seconds:
            self.duplicates_dropped += 1
            return
        self._store.put(record_id, record.timestamp)
        collector.send(
            self.output, record.value, key=record.key, timestamp=record.timestamp
        )


class StreamTableJoinTask:
    """Join a stream against a table maintained from a second feed.

    The Samza pattern behind the paper's enrichment pipelines: the task
    consumes partition *i* of both the stream topic and the (keyed,
    compactable) table topic.  Table records upsert local state; stream
    records join against it.  Both feeds must be partitioned by the join
    key so co-partitioning holds.
    """

    def __init__(
        self,
        output: str,
        table_topic: str,
        join_key: Callable[[Any], Any],
        merge: Callable[[Any, Any], Any],
        emit_unmatched: bool = False,
        store_name: str = "table",
    ) -> None:
        self.output = output
        self.table_topic = table_topic
        self.join_key = join_key
        self.merge = merge
        self.emit_unmatched = emit_unmatched
        self.store_name = store_name
        self.unmatched = 0
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        if record.topic == self.table_topic:
            if record.value is None:
                self._store.delete(record.key)
            else:
                self._store.put(record.key, record.value)
            return
        reference = self._store.get(self.join_key(record.value))
        if reference is None:
            self.unmatched += 1
            if self.emit_unmatched:
                collector.send(
                    self.output, record.value, key=record.key,
                    timestamp=record.timestamp,
                )
            return
        collector.send(
            self.output,
            self.merge(record.value, reference),
            key=record.key,
            timestamp=record.timestamp,
        )


class WindowedStreamJoinTask:
    """Event-time windowed join of two co-partitioned streams.

    Records from either side are buffered per join key; a pair is emitted
    when both sides have a record within ``window_seconds`` of each other.
    Buffered entries older than the window are garbage-collected as newer
    events arrive (per-key event time is monotone on keyed partitions).
    """

    def __init__(
        self,
        output: str,
        left_topic: str,
        right_topic: str,
        merge: Callable[[Any, Any], Any],
        window_seconds: float = 60.0,
        store_name: str = "buffers",
    ) -> None:
        if window_seconds <= 0:
            raise ConfigError("window_seconds must be > 0")
        self.output = output
        self.left_topic = left_topic
        self.right_topic = right_topic
        self.merge = merge
        self.window_seconds = window_seconds
        self.store_name = store_name
        self._store = None

    def init(self, context: TaskContext) -> None:
        self._store = context.store(self.store_name)

    def process(self, record: ConsumerRecord, collector: MessageCollector) -> None:
        assert self._store is not None, "init() not called"
        if record.topic == self.left_topic:
            mine, theirs = "left", "right"
        elif record.topic == self.right_topic:
            mine, theirs = "right", "left"
        else:
            raise ConfigError(
                f"record from unexpected topic {record.topic!r}; joined "
                f"topics are {self.left_topic!r} and {self.right_topic!r}"
            )
        buffers = self._store.get_or_default(
            record.key, {"left": [], "right": []}
        )
        horizon = record.timestamp - self.window_seconds
        buffers = {
            side: [e for e in entries if e["ts"] >= horizon]
            for side, entries in buffers.items()
        }
        for other in buffers[theirs]:
            left_value = record.value if mine == "left" else other["value"]
            right_value = other["value"] if mine == "left" else record.value
            collector.send(
                self.output,
                self.merge(left_value, right_value),
                key=record.key,
                timestamp=record.timestamp,
            )
        buffers[mine] = buffers[mine] + [
            {"ts": record.timestamp, "value": record.value}
        ]
        self._store.put(record.key, buffers)
