"""Unit tests for the reusable ETL task library."""

import pytest

from repro.common.errors import ConfigError
from repro.common.records import ConsumerRecord
from repro.core.etl import (
    AnomalyDetectorTask,
    CleaningTask,
    EnrichTask,
    GroupCountTask,
    MapTask,
    RouterTask,
)
from repro.processing.state import KeyValueState
from repro.processing.store import InMemoryStore
from repro.processing.task import MessageCollector, TaskContext


def record(value, key="k", timestamp=1.0, offset=0) -> ConsumerRecord:
    return ConsumerRecord("in", 0, offset, key, value, timestamp)


def run_task(task, values, stores=None):
    """Drive a task over values; returns emitted Emit list."""
    if stores is not None:
        from repro.common.clock import SimClock

        context = TaskContext("test", 0, SimClock(), stores)
        task.init(context)
    collector = MessageCollector()
    for i, value in enumerate(values):
        task.process(record(value, offset=i), collector)
    return collector.drain()


class TestMapTask:
    def test_identity_preserves_value_and_timestamp(self):
        emits = run_task(MapTask("out"), [{"a": 1}])
        assert emits[0].topic == "out"
        assert emits[0].value == {"a": 1}
        assert emits[0].timestamp == 1.0

    def test_function_applied(self):
        emits = run_task(MapTask("out", fn=lambda v: v * 2), [3])
        assert emits[0].value == 6

    def test_timestamp_not_preserved_when_disabled(self):
        emits = run_task(MapTask("out", preserve_timestamp=False), [1])
        assert emits[0].timestamp is None


class TestCleaningTask:
    def test_rules_applied_and_version_stamped(self):
        task = CleaningTask("out", {"name": str.strip}, version="v3")
        emits = run_task(task, [{"name": "  Bob  ", "other": 1}])
        assert emits[0].value == {"name": "Bob", "other": 1}
        assert emits[0].headers == {"cleaned_by": "v3"}

    def test_missing_column_passes_through(self):
        task = CleaningTask("out", {"name": str.strip})
        emits = run_task(task, [{"other": 1}])
        assert emits[0].value == {"other": 1}

    def test_malformed_dropped_and_counted(self):
        task = CleaningTask("out", {"n": int})
        emits = run_task(task, [{"n": "12"}, {"n": "not-a-number"}, "not-a-dict"])
        assert len(emits) == 1
        assert emits[0].value["n"] == 12
        assert task.dropped == 2

    def test_strict_mode_raises(self):
        task = CleaningTask("out", {"n": int}, drop_malformed=False)
        with pytest.raises((ValueError, ConfigError)):
            run_task(task, [{"n": "bad"}])

    def test_original_value_not_mutated(self):
        task = CleaningTask("out", {"name": str.strip})
        original = {"name": "  x "}
        run_task(task, [original])
        assert original == {"name": "  x "}


class TestEnrichTask:
    def _stores(self):
        state = KeyValueState("reference", InMemoryStore())
        state.put("r1", {"region": "eu"})
        return {"reference": state}

    def test_match_merges(self):
        task = EnrichTask(
            "out",
            lookup_key=lambda v: v["ref"],
            merge=lambda v, r: {**v, **r},
        )
        emits = run_task(task, [{"ref": "r1", "x": 1}], stores=self._stores())
        assert emits[0].value == {"ref": "r1", "x": 1, "region": "eu"}

    def test_no_match_flags(self):
        task = EnrichTask(
            "out", lookup_key=lambda v: v["ref"], merge=lambda v, r: v
        )
        emits = run_task(task, [{"ref": "ghost"}], stores=self._stores())
        assert emits[0].value["enriched"] is False


class TestGroupCountTask:
    def test_running_counts_per_group(self):
        stores = {"counts": KeyValueState("counts", InMemoryStore())}
        task = GroupCountTask("out", lambda v: v["dim"])
        emits = run_task(
            task, [{"dim": "a"}, {"dim": "b"}, {"dim": "a"}], stores=stores
        )
        assert [(e.value["group"], e.value["count"]) for e in emits] == [
            ("a", 1), ("b", 1), ("a", 2),
        ]
        assert stores["counts"].get("a") == 2


class TestRouterTask:
    def test_routes_by_function(self):
        task = RouterTask(lambda v: f"out-{v['kind']}" if v["kind"] else None)
        emits = run_task(task, [{"kind": "x"}, {"kind": ""}, {"kind": "y"}])
        assert [e.topic for e in emits] == ["out-x", "out-y"]


class TestAnomalyDetector:
    def _task(self, **kwargs):
        defaults = dict(
            metric_fn=lambda v: v["ms"],
            key_fn=lambda v: v["svc"],
            threshold=3.0,
            min_samples=3,
        )
        defaults.update(kwargs)
        return AnomalyDetectorTask("alerts", **defaults)

    def _stores(self):
        return {"baselines": KeyValueState("baselines", InMemoryStore())}

    def test_no_alert_during_warmup(self):
        emits = run_task(
            self._task(), [{"svc": "a", "ms": 1000}] * 2, stores=self._stores()
        )
        assert emits == []

    def test_spike_alerts_after_warmup(self):
        values = [{"svc": "a", "ms": 10}] * 5 + [{"svc": "a", "ms": 100}]
        emits = run_task(self._task(), values, stores=self._stores())
        assert len(emits) == 1
        assert emits[0].value["key"] == "a"
        assert emits[0].value["factor"] > 3

    def test_steady_traffic_never_alerts(self):
        values = [{"svc": "a", "ms": 10}] * 20
        emits = run_task(self._task(), values, stores=self._stores())
        assert emits == []

    def test_keys_have_independent_baselines(self):
        values = (
            [{"svc": "slow", "ms": 1000}] * 5
            + [{"svc": "fast", "ms": 10}] * 5
            + [{"svc": "fast", "ms": 100}]
        )
        emits = run_task(self._task(), values, stores=self._stores())
        assert len(emits) == 1
        assert emits[0].value["key"] == "fast"

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            self._task(threshold=0.5)
        with pytest.raises(ConfigError):
            self._task(alpha=0)
