"""Unit tests for the dedup and join ETL tasks."""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import ConfigError
from repro.common.records import ConsumerRecord
from repro.core.etl import (
    DeduplicateTask,
    StreamTableJoinTask,
    WindowedStreamJoinTask,
)
from repro.processing.state import KeyValueState
from repro.processing.store import LsmStore
from repro.processing.task import MessageCollector, TaskContext


def make_context(store_names):
    stores = {name: KeyValueState(name, LsmStore(DEFAULT_COST_MODEL)) for name in store_names}
    return TaskContext("test", 0, SimClock(), stores), stores


def record(topic, value, key="k", timestamp=1.0, offset=0):
    return ConsumerRecord(topic, 0, offset, key, value, timestamp)


class TestDeduplicateTask:
    def _task(self, **kwargs):
        task = DeduplicateTask("out", **kwargs)
        context, _stores = make_context(["seen"])
        task.init(context)
        return task

    def test_first_occurrence_forwarded(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("in", {"v": 1}, key="a"), collector)
        assert len(collector.drain()) == 1

    def test_duplicate_key_dropped(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("in", {"v": 1}, key="a", timestamp=1.0), collector)
        task.process(record("in", {"v": 1}, key="a", timestamp=2.0), collector)
        assert len(collector.drain()) == 1
        assert task.duplicates_dropped == 1

    def test_custom_id_function(self):
        task = self._task(id_fn=lambda v: v["request_id"])
        collector = MessageCollector()
        task.process(record("in", {"request_id": "r1"}, key="a"), collector)
        task.process(record("in", {"request_id": "r1"}, key="b"), collector)
        task.process(record("in", {"request_id": "r2"}, key="a"), collector)
        assert len(collector.drain()) == 2

    def test_expired_id_passes_again(self):
        task = self._task(ttl_seconds=10.0)
        collector = MessageCollector()
        task.process(record("in", 1, key="a", timestamp=0.0), collector)
        task.process(record("in", 1, key="a", timestamp=11.0), collector)
        assert len(collector.drain()) == 2

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ConfigError):
            DeduplicateTask("out", ttl_seconds=0)

    def test_at_least_once_stream_deduplicated(self):
        """The paper's §4.3 story: keyed idempotent consumption makes
        at-least-once delivery exact."""
        task = self._task(id_fn=lambda v: v["seq"])
        collector = MessageCollector()
        delivered = [0, 1, 2, 2, 3, 1, 4, 4, 4, 5]  # retries duplicated
        for i, seq in enumerate(delivered):
            task.process(
                record("in", {"seq": seq}, key=f"k{seq}", timestamp=float(i)),
                collector,
            )
        values = [e.value["seq"] for e in collector.drain()]
        assert values == [0, 1, 2, 3, 4, 5]


class TestStreamTableJoinTask:
    def _task(self, **kwargs):
        defaults = dict(
            output="out",
            table_topic="table",
            join_key=lambda v: v["ref"],
            merge=lambda stream, table: {**stream, **table},
        )
        defaults.update(kwargs)
        task = StreamTableJoinTask(**defaults)
        context, stores = make_context(["table"])
        task.init(context)
        return task, stores

    def test_table_records_populate_state(self):
        task, stores = self._task()
        collector = MessageCollector()
        task.process(record("table", {"region": "eu"}, key="r1"), collector)
        assert collector.drain() == []
        assert stores["table"].get("r1") == {"region": "eu"}

    def test_stream_records_join(self):
        task, _stores = self._task()
        collector = MessageCollector()
        task.process(record("table", {"region": "eu"}, key="r1"), collector)
        task.process(record("stream", {"ref": "r1", "x": 1}, key="k"), collector)
        emits = collector.drain()
        assert emits[0].value == {"ref": "r1", "x": 1, "region": "eu"}

    def test_unmatched_dropped_by_default(self):
        task, _stores = self._task()
        collector = MessageCollector()
        task.process(record("stream", {"ref": "ghost"}, key="k"), collector)
        assert collector.drain() == []
        assert task.unmatched == 1

    def test_unmatched_forwarded_when_asked(self):
        task, _stores = self._task(emit_unmatched=True)
        collector = MessageCollector()
        task.process(record("stream", {"ref": "ghost"}, key="k"), collector)
        assert len(collector.drain()) == 1

    def test_tombstone_deletes_table_row(self):
        task, stores = self._task()
        collector = MessageCollector()
        task.process(record("table", {"region": "eu"}, key="r1"), collector)
        task.process(record("table", None, key="r1"), collector)
        assert stores["table"].get("r1") is None
        task.process(record("stream", {"ref": "r1"}, key="k"), collector)
        assert collector.drain() == []

    def test_table_update_changes_subsequent_joins(self):
        task, _stores = self._task()
        collector = MessageCollector()
        task.process(record("table", {"region": "eu"}, key="r1"), collector)
        task.process(record("stream", {"ref": "r1"}, key="k"), collector)
        task.process(record("table", {"region": "us"}, key="r1"), collector)
        task.process(record("stream", {"ref": "r1"}, key="k"), collector)
        regions = [e.value["region"] for e in collector.drain()]
        assert regions == ["eu", "us"]


class TestWindowedStreamJoinTask:
    def _task(self, window=10.0):
        task = WindowedStreamJoinTask(
            output="out",
            left_topic="clicks",
            right_topic="views",
            merge=lambda left, right: {"click": left, "view": right},
            window_seconds=window,
        )
        context, _stores = make_context(["buffers"])
        task.init(context)
        return task

    def test_pair_within_window_joins(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("views", {"page": "p"}, key="u1", timestamp=1.0), collector)
        task.process(record("clicks", {"btn": "b"}, key="u1", timestamp=5.0), collector)
        emits = collector.drain()
        assert len(emits) == 1
        assert emits[0].value == {"click": {"btn": "b"}, "view": {"page": "p"}}

    def test_sides_are_order_independent(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("clicks", "c", key="u1", timestamp=1.0), collector)
        task.process(record("views", "v", key="u1", timestamp=2.0), collector)
        emits = collector.drain()
        assert emits[0].value == {"click": "c", "view": "v"}

    def test_outside_window_no_join(self):
        task = self._task(window=10.0)
        collector = MessageCollector()
        task.process(record("views", "v", key="u1", timestamp=1.0), collector)
        task.process(record("clicks", "c", key="u1", timestamp=20.0), collector)
        assert collector.drain() == []

    def test_keys_do_not_cross_join(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("views", "v", key="u1", timestamp=1.0), collector)
        task.process(record("clicks", "c", key="u2", timestamp=2.0), collector)
        assert collector.drain() == []

    def test_multiple_matches_all_emitted(self):
        task = self._task()
        collector = MessageCollector()
        task.process(record("views", "v1", key="u1", timestamp=1.0), collector)
        task.process(record("views", "v2", key="u1", timestamp=2.0), collector)
        task.process(record("clicks", "c", key="u1", timestamp=3.0), collector)
        emits = collector.drain()
        assert {e.value["view"] for e in emits} == {"v1", "v2"}

    def test_old_buffers_garbage_collected(self):
        task = self._task(window=5.0)
        collector = MessageCollector()
        for i in range(20):
            task.process(
                record("views", f"v{i}", key="u1", timestamp=float(i)), collector
            )
        task.process(record("clicks", "c", key="u1", timestamp=20.0), collector)
        emits = collector.drain()
        # Only views within [15, 20] survive the GC to join.
        assert {e.value["view"] for e in emits} == {"v15", "v16", "v17", "v18", "v19"}

    def test_unexpected_topic_rejected(self):
        task = self._task()
        with pytest.raises(ConfigError):
            task.process(record("other", "x", key="u1"), MessageCollector())

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            WindowedStreamJoinTask(
                "out", "l", "r", merge=lambda a, b: None, window_seconds=0
            )
