"""Unit tests for the metrics registry."""

import pytest

from repro.common.metrics import Counter, Gauge, Histogram, MetricsRegistry, metric_name
from repro.messaging.cluster import MessagingCluster
from repro.observability.telemetry import TELEMETRY_METRICS_FEED, TelemetryExporter


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment_default(self):
        counter = Counter("c")
        counter.increment()
        counter.increment()
        assert counter.value == 2

    def test_increment_amount(self):
        counter = Counter("c")
        counter.increment(2.5)
        assert counter.value == 2.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_empty_snapshot(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_mean_min_max(self):
        hist = Histogram("h")
        hist.observe_many([1.0, 2.0, 3.0])
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_median_of_odd_count(self):
        hist = Histogram("h")
        hist.observe_many([5.0, 1.0, 3.0])
        assert hist.percentile(50) == 3.0

    def test_percentile_interpolates(self):
        hist = Histogram("h")
        hist.observe_many([0.0, 10.0])
        assert hist.percentile(50) == pytest.approx(5.0)
        assert hist.percentile(25) == pytest.approx(2.5)

    def test_percentile_bounds(self):
        hist = Histogram("h")
        hist.observe_many([4.0, 2.0, 6.0])
        assert hist.percentile(0) == 2.0
        assert hist.percentile(100) == 6.0

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_unsorted_observations_handled(self):
        hist = Histogram("h")
        for value in [9.0, 1.0, 5.0, 3.0, 7.0]:
            hist.observe(value)
        assert hist.percentile(50) == 5.0
        hist.observe(0.5)  # after a percentile query
        assert hist.min == 0.5

    def test_snapshot_keys(self):
        hist = Histogram("h")
        hist.observe(1.0)
        snap = hist.snapshot()
        assert set(snap) == {"count", "mean", "min", "p50", "p95", "p99", "max"}

    def test_reads_keep_arrival_order(self):
        """A percentile or snapshot read sorts a copy, so ``since`` still
        counts observations in the order they arrived."""
        hist = Histogram("h")
        hist.observe_many([9.0, 1.0, 5.0])
        assert hist.percentile(50) == 5.0
        assert hist.snapshot()["max"] == 9.0
        hist.observe_many([7.0, 3.0])
        tail = hist.snapshot(since=3)
        assert (tail["count"], tail["min"], tail["max"]) == (2.0, 3.0, 7.0)


class TestRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_get_unknown_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]

    def test_snapshot_mixes_types(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(2)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["h"]["count"] == 1

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(5)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert len(registry) == 3  # instruments survive
        assert registry.counter("c").value == 0.0
        assert registry.gauge("g").value == 0.0
        assert registry.histogram("h").count == 0

    def test_reset_keeps_hoisted_references_live(self):
        """Regression: clear() used to drop instruments from the registry
        while call sites kept counting into the orphaned objects, so the
        registry and the live instruments disagreed forever after."""
        registry = MetricsRegistry()
        hoisted = registry.counter("hot.path.counter")
        hoisted.increment(10)
        registry.reset()
        hoisted.increment(3)
        # The hoisted reference and the registry see the same instrument.
        assert registry.counter("hot.path.counter") is hoisted
        assert registry.get("hot.path.counter").value == 3.0
        assert registry.snapshot()["hot.path.counter"] == 3.0

    def test_reset_is_counted(self):
        registry = MetricsRegistry()
        assert registry.resets == 0
        registry.reset()
        registry.reset()
        assert registry.resets == 2

    def test_histogram_reset_rearms_delta_tracking(self):
        """After ``registry.reset()`` the exporter's next histogram window
        is exactly what arrived since the reset, though the histogram's
        count is back where the exporter last marked it."""
        cluster = MessagingCluster(num_brokers=1)
        exporter = TelemetryExporter(cluster)
        name = metric_name("core", "demo", "latency")
        histogram = cluster.metrics.histogram(name)
        histogram.observe(1.0)
        exporter.publish_once()
        histogram.observe(2.0)
        cluster.metrics.reset()
        histogram.observe(5.0)
        exporter.publish_once()
        fetched = cluster.fetch(TELEMETRY_METRICS_FEED, 0, 0, 10_000)
        windows = [
            (r.value["count"], r.value["max"])
            for r in fetched.records
            if r.value["metric"] == name
        ]
        assert windows == [(1.0, 1.0), (1.0, 5.0)]
