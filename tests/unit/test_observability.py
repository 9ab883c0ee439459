"""Unit tests for the per-record tracing layer (repro.observability)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.records import TRACE_HEADER, TopicPartition
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.messaging.topic import LogConfig, RetentionConfig, TopicConfig
from repro.storage.tiered.config import TieredConfig
from repro.observability.trace import (
    Span,
    TraceContext,
    Tracer,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from repro.processing.job import AT_LEAST_ONCE, EXACTLY_ONCE, JobConfig
from repro.tools.admin import AdminClient
from repro.tools.tracequery import TraceQuery, render_timeline


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestTracer:
    def test_root_span_starts_a_trace(self):
        tracer = Tracer()
        span = tracer.open_span("produce.send", None, start=1.0, topic="t")
        assert span is not None
        assert span.parent_id is None
        assert span.attrs == {"topic": "t"}
        tracer.close(span, end=2.0)
        assert tracer.spans() == [span]
        assert span.duration == 1.0

    def test_child_span_inherits_trace(self):
        tracer = Tracer()
        root = tracer.open_span("produce.send", None, start=0.0)
        child = tracer.open_span("broker.append", root.context(), start=0.5)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_trace_ids_deterministic_for_seed(self):
        ids_a = [
            Tracer(seed=7).open_span("s", None, start=0.0).trace_id
            for _ in range(3)
        ]
        assert len(set(ids_a)) == 1  # same seed, same first trace id
        assert Tracer(seed=8).open_span("s", None, start=0.0).trace_id != ids_a[0]

    def test_head_based_sampling(self):
        tracer = Tracer(sample_rate=3)
        sampled = [
            tracer.open_span("produce.send", None, start=0.0) is not None
            for _ in range(9)
        ]
        assert sampled == [True, False, False] * 3
        assert tracer.traces_started == 3
        assert tracer.traces_sampled_out == 6

    def test_children_never_sampled_out(self):
        tracer = Tracer(sample_rate=1000)
        root = tracer.open_span("produce.send", None, start=0.0)
        ctx = root.context()
        for _ in range(10):
            assert tracer.open_span("stage", ctx, start=0.0) is not None

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(capacity=5)
        ctx = TraceContext("t", 0)
        for i in range(8):
            tracer.record(f"s{i}", ctx, start=float(i), end=float(i))
        assert len(tracer) == 5
        assert tracer.spans_dropped == 3
        assert [s.name for s in tracer.spans()] == ["s3", "s4", "s5", "s6", "s7"]

    def test_close_rejects_end_before_start(self):
        tracer = Tracer()
        span = tracer.open_span("s", None, start=5.0)
        with pytest.raises(ConfigError):
            tracer.close(span, end=4.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Tracer(sample_rate=0)
        with pytest.raises(ConfigError):
            Tracer(capacity=0)
        with pytest.raises(ConfigError):
            install_tracer("not a tracer")

    def test_install_uninstall(self):
        assert current_tracer() is None
        tracer = Tracer()
        assert install_tracer(tracer) is tracer
        assert current_tracer() is tracer
        uninstall_tracer()
        assert current_tracer() is None

    def test_tracing_context_manager(self):
        with tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None


class _EnrichTask:
    def process(self, record, collector):
        collector.send("derived", {"v": record.value}, key=record.key)


def _traced_pipeline(sample_rate=1, processing_guarantee=AT_LEAST_ONCE):
    """One record through source feed -> job -> derived feed, traced."""
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("source", partitions=1)
    liquid.submit_job(
        JobConfig(
            name="enrich",
            inputs=["source"],
            task_factory=_EnrichTask,
            processing_guarantee=processing_guarantee,
        ),
        outputs=["derived"],
    )
    with tracing(Tracer(sample_rate=sample_rate)) as tracer:
        liquid.producer().send("source", {"x": 1}, key="k")
        liquid.cluster.run_until_replicated()
        liquid.process_available()
        liquid.cluster.run_until_replicated()
        consumer = liquid.consumer()
        consumer.assign([TopicPartition("derived", 0)])
        records = consumer.poll()
    return liquid, tracer, records


class TestEndToEnd:
    def test_single_record_yields_one_connected_tree(self, guarantee=AT_LEAST_ONCE):
        liquid, tracer, records = _traced_pipeline(processing_guarantee=guarantee)
        assert len(records) == 1
        query = TraceQuery(tracer)
        assert len(query.trace_ids()) == 1
        trace_id = query.trace_ids()[0]
        assert query.is_connected(trace_id)
        stages = query.stages(trace_id)
        # Both hops are present: source append/replication/fetch, the job,
        # then the derived feed's own produce/append/replication/fetch.
        assert stages.count("produce.send") == 2
        assert stages.count("broker.append") == 2
        assert stages.count("job.process") == 1
        assert stages.count("consumer.poll") == 1
        assert stages.count("broker.fetch") >= 2
        # 3 brokers -> 2 followers per hop.
        assert stages.count("replication.replicate") == 4

    def test_job_emit_parents_on_process_span(self, guarantee=AT_LEAST_ONCE):
        _liquid, tracer, _records = _traced_pipeline(processing_guarantee=guarantee)
        query = TraceQuery(tracer)
        trace_id = query.trace_ids()[0]
        process = query.find(trace_id, "job.process")[0]
        hop2_sends = [
            s
            for s in query.find(trace_id, "produce.send")
            if s.parent_id is not None
        ]
        assert len(hop2_sends) == 1
        assert hop2_sends[0].parent_id == process.span_id

    def test_trace_shape_is_the_same_under_exactly_once(self):
        """Regression: the transactional client opened no ``produce.send``
        span, so exactly-once derived feeds had no produce stage."""
        self.test_single_record_yields_one_connected_tree(EXACTLY_ONCE)
        self.test_job_emit_parents_on_process_span(EXACTLY_ONCE)

    def test_consumed_record_header_carries_context(self):
        _liquid, tracer, records = _traced_pipeline()
        ctx = records[0].headers[TRACE_HEADER]
        assert isinstance(ctx, TraceContext)
        assert ctx.trace_id == TraceQuery(tracer).trace_ids()[0]

    def test_sampled_out_record_traces_nothing(self):
        tracer = Tracer(sample_rate=2)
        cluster = MessagingCluster(num_brokers=1)
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        with tracing(tracer):
            producer = Producer(cluster)
            producer.send("t", "a")  # sampled (root 1)
            producer.send("t", "b")  # sampled out (root 2)
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 1
        assert tracer.traces_sampled_out == 1
        # The sampled-out record got no header and no spans anywhere.
        replica = cluster.broker(0).replica(TopicPartition("t", 0))
        stored = replica.log.read(0, 10).messages
        assert TRACE_HEADER in stored[0].headers
        assert TRACE_HEADER not in stored[1].headers

    def test_no_tracer_no_headers(self):
        cluster = MessagingCluster(num_brokers=1)
        cluster.create_topic("t", num_partitions=1, replication_factor=1)
        Producer(cluster).send("t", "a")
        replica = cluster.broker(0).replica(TopicPartition("t", 0))
        assert TRACE_HEADER not in replica.log.read(0, 10).messages[0].headers

    def test_cold_fetch_span_flags_cold(self):
        cluster = MessagingCluster(num_brokers=1, maintenance_interval=1.0)
        cluster.create_topic(
            TopicConfig(
                name="t",
                num_partitions=1,
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=5.0),
                log=LogConfig(segment_max_messages=5),
                tiered=TieredConfig(),
            )
        )
        tracer = Tracer()
        with tracing(tracer):
            producer = Producer(cluster)
            for i in range(40):
                producer.send("t", {"i": i})
            cluster.tick(60.0)  # retention archives sealed segments cold
            result = cluster.fetch("t", 0, 0, max_messages=3)
        assert result.records
        cold_spans = [
            s for s in tracer.spans() if s.name == "broker.fetch" and s.attrs["cold"]
        ]
        assert cold_spans


class TestTraceQuery:
    def test_render_timeline_shape(self):
        _liquid, tracer, _records = _traced_pipeline()
        trace_id = TraceQuery(tracer).trace_ids()[0]
        text = render_timeline(trace_id, tracer)
        assert text.startswith(f"trace {trace_id}")
        assert "produce.send" in text and "job.process" in text
        assert "└─" in text

    def test_render_unknown_trace(self):
        assert "no retained spans" in render_timeline("nope", Tracer())

    def test_partial_trace_renders_as_forest(self):
        tracer = Tracer(capacity=2)
        root = tracer.open_span("a", None, start=0.0)
        tracer.close(root, end=0.0)
        ctx = root.context()
        tracer.record("b", ctx, 1.0, 1.0)
        tracer.record("c", ctx, 2.0, 2.0)  # evicts the root span
        query = TraceQuery(tracer)
        assert not query.is_connected(root.trace_id)
        assert len(query.tree(root.trace_id)) == 2

    def test_duration_spans_whole_trace(self):
        tracer = Tracer()
        ctx = TraceContext("t", 0)
        tracer.record("a", ctx, 1.0, 2.0)
        tracer.record("b", ctx, 1.5, 4.0)
        assert TraceQuery(tracer).duration("t") == pytest.approx(3.0)


class TestAdminReport:
    def test_stage_latency_report(self):
        liquid, tracer, _records = _traced_pipeline()
        report = AdminClient(liquid.cluster).stage_latency_report(tracer)
        assert {s.stage for s in report.stages} >= {
            "produce.send",
            "broker.append",
            "replication.replicate",
            "broker.fetch",
            "job.process",
            "consumer.poll",
        }
        for stats in report.stages:
            assert stats.count >= 1
            assert stats.p99 >= stats.p50 >= 0.0

    def test_report_uses_installed_tracer_by_default(self):
        liquid = Liquid(num_brokers=1)
        admin = AdminClient(liquid.cluster)
        assert not admin.stage_latency_report()
        assert admin.stage_latency_report().stages == ()
        with tracing() as tracer:
            tracer.record("stage", TraceContext("t", 0), 0.0, 1.0)
            assert admin.stage_latency_report().stage("stage").count == 1
