"""Unit tests for the synthetic workload generators."""

import pytest

from repro.common.errors import ConfigError
from repro.workloads import (
    CDNS,
    METRICS,
    CallGraphEventGenerator,
    CdnDegradation,
    ErrorBurst,
    EventClock,
    KeyPool,
    OperationalEventGenerator,
    ProfileUpdateGenerator,
    RumEventGenerator,
    SlowService,
    assemble_call_tree,
    critical_path_ms,
    zipf_weights,
)


class TestGenerators:
    def test_zipf_weights_decrease(self):
        weights = zipf_weights(10, skew=1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_zipf_zero_skew_uniform(self):
        assert set(zipf_weights(5, skew=0.0)) == {1.0}

    def test_zipf_validation(self):
        with pytest.raises(ConfigError):
            zipf_weights(0)
        with pytest.raises(ConfigError):
            zipf_weights(5, skew=-1)

    def test_keypool_deterministic(self):
        a = KeyPool(100, seed=5)
        b = KeyPool(100, seed=5)
        assert [a.pick() for _ in range(20)] == [b.pick() for _ in range(20)]

    def test_keypool_skew_concentrates(self):
        pool = KeyPool(100, skew=1.5, seed=1)
        picks = pool.pick_many(2000)
        top = max(set(picks), key=picks.count)
        assert picks.count(top) > 2000 / 100 * 5  # way above uniform share

    def test_event_clock_monotonic(self):
        event_clock = EventClock(rate_per_second=10.0, seed=3)
        stamps = [event_clock.next_timestamp() for _ in range(50)]
        assert stamps == sorted(stamps)
        assert all(s > 0 for s in stamps)

    def test_event_clock_rate(self):
        event_clock = EventClock(rate_per_second=100.0, seed=3)
        stamps = [event_clock.next_timestamp() for _ in range(1000)]
        assert stamps[-1] == pytest.approx(10.0, rel=0.3)


class TestRum:
    def test_schema(self):
        event = next(RumEventGenerator().events(1))
        assert set(event) == {
            "user", "page", "load_time_ms", "region", "cdn", "timestamp"
        }
        assert event["cdn"] in CDNS

    def test_deterministic_across_runs(self):
        a = list(RumEventGenerator(seed=9).events(50))
        b = list(RumEventGenerator(seed=9).events(50))
        assert a == b

    def test_degradation_slows_target_cdn_after_time(self):
        degraded = CdnDegradation("cdn-fastly", at_time=5.0, factor=10.0)
        generator = RumEventGenerator(
            rate_per_second=100.0, degradation=degraded, seed=4
        )
        events = list(generator.events(3000))
        before = [
            e["load_time_ms"] for e in events
            if e["cdn"] == "cdn-fastly" and e["timestamp"] < 5.0
        ]
        after = [
            e["load_time_ms"] for e in events
            if e["cdn"] == "cdn-fastly" and e["timestamp"] >= 5.0
        ]
        others = [
            e["load_time_ms"] for e in events if e["cdn"] != "cdn-fastly"
        ]
        assert sum(after) / len(after) > 5 * sum(before) / len(before)
        assert sum(after) / len(after) > 5 * sum(others) / len(others)

    def test_degradation_validation(self):
        with pytest.raises(ConfigError):
            CdnDegradation("cdn-unknown", at_time=0.0)
        with pytest.raises(ConfigError):
            CdnDegradation("cdn-fastly", at_time=0.0, factor=0.5)


class TestCallGraph:
    def test_spans_form_a_tree(self):
        generator = CallGraphEventGenerator(seed=11)
        for spans in generator.requests(20):
            ids = {span["span_id"] for span in spans}
            roots = [span for span in spans if span["parent_id"] is None]
            assert len(roots) == 1
            assert all(
                span["parent_id"] in ids for span in spans if span is not roots[0]
            )
            children = assemble_call_tree(spans).children
            assert sum(map(len, children.values())) == len(spans) - 1

    def test_all_spans_share_request_id(self):
        generator = CallGraphEventGenerator(seed=11)
        spans = next(generator.requests(1))
        assert len({s["request_id"] for s in spans}) == 1

    def test_request_ids_unique_across_requests(self):
        generator = CallGraphEventGenerator(seed=11)
        ids = [spans[0]["request_id"] for spans in generator.requests(10)]
        assert len(set(ids)) == 10

    def test_root_is_frontend(self):
        generator = CallGraphEventGenerator(seed=11)
        spans = next(generator.requests(1))
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["service"] == "frontend"

    def test_slow_service_inflates_durations(self):
        slow = CallGraphEventGenerator(
            seed=11, slow=SlowService("search-svc", factor=50.0)
        )
        spans = [s for spans in slow.requests(100) for s in spans]
        search = [s["duration_ms"] for s in spans if s["service"] == "search-svc"]
        other = [s["duration_ms"] for s in spans if s["service"] != "search-svc"]
        assert sum(search) / len(search) > 10 * sum(other) / len(other)

    def test_critical_path_at_least_root_duration(self):
        generator = CallGraphEventGenerator(seed=11)
        spans = next(generator.requests(1))
        tree = assemble_call_tree(spans)
        root = [s for s in spans if s["parent_id"] is None][0]
        assert critical_path_ms(tree) >= root["duration_ms"]

    def test_orphan_span_roots_its_own_subtree(self):
        spans = [
            {"request_id": "r", "span_id": "a", "parent_id": None,
             "service": "frontend", "duration_ms": 10.0},
            {"request_id": "r", "span_id": "b", "parent_id": "a",
             "service": "feed-svc", "duration_ms": 5.0},
            {"request_id": "r", "span_id": "c", "parent_id": "zz",
             "service": "ads-svc", "duration_ms": 30.0},
        ]
        assert critical_path_ms(assemble_call_tree(spans)) == 30.0
        spans[2]["duration_ms"] = 12.0
        assert critical_path_ms(assemble_call_tree(spans)) == 15.0

    def test_assemble_rejects_mixed_requests(self):
        generator = CallGraphEventGenerator(seed=11)
        trees = list(generator.requests(2))
        with pytest.raises(ConfigError):
            assemble_call_tree(trees[0] + trees[1])

    def test_assemble_rejects_empty(self):
        with pytest.raises(ConfigError):
            assemble_call_tree([])


class TestProfiles:
    def test_snapshot_covers_all_users(self):
        generator = ProfileUpdateGenerator(users=50)
        snapshot = list(generator.snapshot())
        assert len(snapshot) == 50
        assert len({p["user"] for p in snapshot}) == 50

    def test_delta_is_small_fraction(self):
        generator = ProfileUpdateGenerator(users=1000, churn_fraction=0.02)
        delta = list(generator.delta(1.0))
        assert len(delta) == 20

    def test_delta_records_are_partial(self):
        generator = ProfileUpdateGenerator(users=100)
        delta = list(generator.delta(1.0))
        for update in delta:
            assert "user" in update and "timestamp" in update
            assert len(update) == 3  # user, timestamp, exactly one field

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProfileUpdateGenerator(users=0)
        with pytest.raises(ConfigError):
            ProfileUpdateGenerator(churn_fraction=0)


class TestOplogs:
    def test_event_types(self):
        generator = OperationalEventGenerator(mobile_crash_fraction=0.05, seed=2)
        events = list(generator.events(500))
        types = {e["type"] for e in events}
        assert types == {"metric", "log", "mobile_crash"}
        metrics = [e for e in events if e["type"] == "metric"]
        assert all(e["metric"] in METRICS for e in metrics)

    def test_burst_host_dominated_by_errors(self):
        burst = ErrorBurst("host-000", at_time=0.0, error_rate=0.95)
        generator = OperationalEventGenerator(hosts=5, burst=burst, seed=2)
        logs = [e for e in generator.events(2000) if e["type"] == "log"]
        burst_logs = [e for e in logs if e["host"] == "host-000"]
        error_rate = sum(
            1 for e in burst_logs if e["severity"] == "ERROR"
        ) / len(burst_logs)
        assert error_rate > 0.8

    def test_validation(self):
        with pytest.raises(ConfigError):
            ErrorBurst("h", at_time=0.0, error_rate=0)
        with pytest.raises(ConfigError):
            OperationalEventGenerator(hosts=0)
