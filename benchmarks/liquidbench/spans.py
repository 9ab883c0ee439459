"""Span wrappers installed from outside around each layer's entry points.

Nothing in ``src/`` knows about these: :class:`SpanRecorder.install` swaps
the entry points listed in :data:`SPAN_TARGETS` for timing wrappers and
:meth:`SpanRecorder.uninstall` puts the originals back.  A span is
``(target, start_ns, end_ns, parent, chunk)``; ``parent`` is the index of the
enclosing span (or -1), so self time is the span's duration minus the part
its direct children cover.  A listed entry point that no longer exists is
skipped and counted (``driver.span_targets_missing``), so a refactor may
delete e.g. ``PartitionLog.append`` without breaking the benchmark.

Known bias: the wrapper's own cost (~0.3 us) lies outside the span it
records and therefore inside the *parent's* self time, so a layer made of
many tiny calls (``common.metrics``) looks dearer than it is and its caller
slightly dearer too.  ``driver.trace_overhead_ratio`` bounds the total.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

#: The layers per-layer metrics are reported for (this repo's modules).
LAYERS = (
    "common.records",
    "common.serde",
    "common.compression",
    "common.metrics",
    "common.clock",
    "messaging.producer",
    "messaging.cluster",
    "messaging.broker",
    "messaging.partition",
    "messaging.replication",
    "messaging.fetchbuffer",
    "messaging.consumer",
    "messaging.offset_manager",
    "messaging.transactions",
    "storage.log",
    "storage.pagecache",
    "storage.tiered",
    "processing.job",
    "processing.task",
    "processing.state",
    "processing.store",
    "processing.checkpoint",
    "serving.router",
    "serving.server",
    "serving.replica",
)


def _count(result: Any) -> int:
    return result.count


def _messages(result: Any) -> int:
    return len(result.messages)


def _copied(result: Any) -> int:
    return result.messages_copied


def _first_len(result: Any) -> int:
    return len(result[0])


def _one(_result: Any) -> int:
    return 1


@dataclass(frozen=True)
class Target:
    """One entry point: ``module`` attribute path ``attr`` (``Class.method``
    or a module-level function), the layer it belongs to, and optionally how
    many work items a call's return value stands for."""

    layer: str
    module: str
    attr: str
    items: Callable[[Any], int] | None = None
    #: False for a recursive module-level function: only its importers'
    #: bindings are wrapped, so the recursion inside the defining module
    #: stays span-free and each outermost call is one span.
    wrap_home: bool = True

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.attr}"


def _targets(layer: str, module: str, *attrs: Any) -> list[Target]:
    out = []
    for attr in attrs:
        if isinstance(attr, tuple):
            out.append(Target(layer, module, attr[0], attr[1]))
        else:
            out.append(Target(layer, module, attr))
    return out


SPAN_TARGETS: tuple[Target, ...] = tuple(
    [
        Target(
            "common.records", "repro.common.records", "estimate_size",
            wrap_home=False,
        ),
        # The size hook of stored records is the other way into the
        # recursion, from inside the defining module.
        Target(
            "common.records", "repro.common.records",
            "StoredMessage.__post_init__",
        ),
    ]
    + _targets(
        "common.serde", "repro.common.serde",
        "JsonSerde.serialize", "JsonSerde.deserialize",
    )
    + _targets(
        "common.compression", "repro.common.compression",
        "compress_entries", "decompress_entries", "BatchFrame.entries",
    )
    + _targets(
        "common.metrics", "repro.common.metrics",
        "MetricsRegistry.counter", "MetricsRegistry.gauge",
        "MetricsRegistry.histogram", "Counter.increment", "Histogram.observe",
    )
    + _targets(
        "common.clock", "repro.common.clock",
        "SimClock.schedule", "SimClock.advance",
    )
    + _targets(
        "messaging.producer", "repro.messaging.producer",
        "Producer.send", "Producer.flush",
    )
    + _targets(
        "messaging.cluster", "repro.messaging.cluster",
        "MessagingCluster.produce", "MessagingCluster.fetch",
        "MessagingCluster.tick", "MessagingCluster.run_until_replicated",
    )
    + _targets(
        "messaging.broker", "repro.messaging.broker",
        "Broker.produce", "Broker.fetch", "Broker.replica_fetch",
    )
    + _targets(
        "messaging.partition", "repro.messaging.partition",
        "PartitionReplica.append_batch", "PartitionReplica.fetch",
        "PartitionReplica.replicate_batch",
    )
    + _targets(
        "messaging.replication", "repro.messaging.replication",
        ("ReplicationManager.poll", _copied),
    )
    + _targets(
        "messaging.fetchbuffer", "repro.messaging.fetchbuffer",
        "build_fetch_batches", ("FetchBuffer.take", _first_len),
        "FetchBatch.inflate",
    )
    + _targets(
        "messaging.consumer", "repro.messaging.consumer",
        ("Consumer.poll", len), "Consumer.seek", "Consumer.seek_to_timestamp",
        "Consumer.commit",
    )
    + _targets(
        "messaging.offset_manager", "repro.messaging.offset_manager",
        "OffsetManager.commit",
    )
    + _targets(
        "messaging.transactions", "repro.messaging.transactions",
        "TransactionalProducer.begin", "TransactionalProducer.send",
        "TransactionalProducer.flush",
        "TransactionalProducer.send_offsets_to_transaction",
        "TransactionalProducer.commit", "TransactionCoordinator.commit",
    )
    + _targets(
        "storage.log", "repro.storage.log",
        ("PartitionLog.append", _one), ("PartitionLog.append_stored", _one),
        ("PartitionLog.append_batch", _count),
        ("PartitionLog.append_stored_batch", _count),
        ("PartitionLog.read", _messages),
    )
    + _targets(
        "storage.pagecache", "repro.storage.pagecache",
        "PageCache.write", "PageCache.write_batch", "PageCache.read",
        "PageCache.install",
    )
    + _targets("storage.tiered", "repro.storage.tiered.tier", "ColdTier.read_through")
    + _targets("storage.tiered", "repro.storage.tiered.coldreader", "ColdReader.read")
    + _targets("storage.tiered", "repro.storage.tiered.archiver", "SegmentArchiver.archive")
    + _targets(
        "processing.job", "repro.processing.job",
        "JobRunner.poll_once", "JobRunner.checkpoint", "JobRunner.recover",
    )
    + _targets("processing.task", f"{__package__}.workloads", "CountTask.process")
    + _targets(
        "processing.state", "repro.processing.state",
        "KeyValueState.put", "KeyValueState.get", "KeyValueState.delete",
    )
    + _targets(
        "processing.store", "repro.processing.store",
        "LsmStore.put", "LsmStore.get", "LsmStore.delete",
        "LsmStore.range_items", "LsmStore.flush_memtable", "LsmStore.compact",
    )
    + _targets(
        "processing.checkpoint", "repro.processing.checkpoint",
        "CheckpointManager.commit", "CheckpointManager.commit_transactional",
    )
    + _targets(
        "serving.router", "repro.serving.router",
        "StateQueryRouter.get", "StateQueryRouter.range",
    )
    + _targets(
        "serving.server", "repro.serving.server",
        "StateServer.get", "StateServer.range",
    )
    + _targets(
        "serving.replica", "repro.serving.replica",
        "StandbyReplica.catch_up", "StandbyReplica.promote",
    )
)

#: Entry points of ``storage.log`` that append (the rest read).
LOG_APPEND_TARGETS = tuple(
    t.name for t in SPAN_TARGETS if t.layer == "storage.log" and "append" in t.attr
)


class SpanRecorder:
    """Installs the wrappers, keeps the spans in memory, rolls them up."""

    def __init__(self, targets: tuple[Target, ...] = SPAN_TARGETS) -> None:
        self.targets = targets
        #: ``(target index, start_ns, end_ns, parent index, chunk)``.
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.chunk = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        #: Per target: work items summed over calls, and calls that returned
        #: none (a poll that delivered nothing, a pass that copied nothing).
        self.items = [0] * len(targets)
        self.empty_calls = [0] * len(targets)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, index: int, original: Callable, items) -> Callable:
        spans, stack, recorder = self.spans, self._stack, self
        totals, empties = self.items, self.empty_calls

        def span_wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[slot] = (index, start, end, parent, recorder.chunk)
            if items is not None:
                n = items(result)
                if n:
                    totals[index] += n
                else:
                    empties[index] += 1
            return result

        return span_wrapper

    def install(self) -> None:
        """Swap every resolvable entry point for its wrapper."""
        if self._restore:
            raise RuntimeError("span wrappers are already installed")
        self.missing = []
        for index, target in enumerate(self.targets):
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            class_name, _, leaf = target.attr.rpartition(".")
            owner: Any = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(index, original, target.items)
            if isinstance(owner, type):
                self._patch(owner, leaf, original, wrapper)
                continue
            # Module-level function: callers hold their own binding, so
            # patch every importer of it as well.
            holders = [
                m for name, m in list(sys.modules.items())
                if m is not None and m is not module
                and name.startswith(target.module.split(".")[0] + ".")
                and getattr(m, leaf, None) is original
            ]
            for holder in holders:
                self._patch(holder, leaf, original, wrapper)
            if target.wrap_home:
                self._patch(module, leaf, original, wrapper)

    def _patch(self, owner: Any, leaf: str, original: Any, wrapper: Any) -> None:
        setattr(owner, leaf, wrapper)
        self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    # -- roll-up ---------------------------------------------------------------------

    def rollup(self) -> dict[str, Any]:
        """Per target and per layer: calls and self time; plus the wall the
        top-level spans cover (the rest of the traced wall is unattributed)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        covered_ns = 0
        for span in spans:
            if span is None:
                continue
            _index, start, end, parent, _chunk = span
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                covered_ns += end - start
        calls = [0] * len(self.targets)
        self_ns = [0] * len(self.targets)
        for slot, span in enumerate(spans):
            if span is None:
                continue
            index, start, end, _parent, _chunk = span
            calls[index] += 1
            self_ns[index] += end - start - child_ns[slot]
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        by_target = {}
        for index, target in enumerate(self.targets):
            entry = layers[target.layer]
            entry["self_s"] += self_ns[index] / 1e9
            entry["calls"] += calls[index]
            by_target[target.name] = {
                "calls": calls[index],
                "self_s": self_ns[index] / 1e9,
                "items": self.items[index],
                "empty_calls": self.empty_calls[index],
            }
        return {
            "layers": layers,
            "targets": by_target,
            "covered_s": covered_ns / 1e9,
            "spans": len(spans),
        }

    def write_jsonl(self, path) -> None:
        """One span per line: name, layer, start_ns, end_ns, parent, chunk."""
        with open(path, "w") as out:
            for slot, span in enumerate(self.spans):
                if span is None:
                    continue
                index, start, end, parent, chunk = span
                target = self.targets[index]
                out.write(
                    json.dumps(
                        {
                            "id": slot,
                            "name": target.attr,
                            "layer": target.layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "chunk": chunk,
                        }
                    )
                )
                out.write("\n")
