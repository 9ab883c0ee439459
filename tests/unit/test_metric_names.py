"""Metric naming convention: every registered name is ``layer.component.metric``.

One helper (:func:`repro.common.metrics.metric_name`) builds every
instrument name in the library, so the convention is enforced at the
single choke point; this test drives a full deployment — produce, fetch,
replication, a job, the page cache, and the tiered cold path — then
asserts the whole registry passes :func:`is_conventional`.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.metrics import (
    METRIC_LAYERS,
    MetricsRegistry,
    is_conventional,
    metric_name,
    metric_segment,
)
from repro.common.records import TopicPartition
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.topic import LogConfig, RetentionConfig, TopicConfig
from repro.processing.job import JobConfig
from repro.storage.tiered.config import TieredConfig


class TestMetricNameHelper:
    def test_builds_dotted_name(self):
        assert metric_name("messaging", "broker", "messages_in") == (
            "messaging.broker.messages_in"
        )
        assert metric_name("processing", "job", "enrich", "processed") == (
            "processing.job.enrich.processed"
        )

    def test_rejects_unknown_layer(self):
        with pytest.raises(ConfigError):
            metric_name("networking", "broker", "messages_in")

    def test_rejects_empty_parts(self):
        with pytest.raises(ConfigError):
            metric_name("messaging", "broker")
        with pytest.raises(ConfigError):
            metric_name("messaging", "", "x")

    def test_is_conventional(self):
        assert is_conventional("messaging.broker.messages_in")
        assert is_conventional("storage.pagecache.hits")
        assert not is_conventional("messages_in")  # no layer prefix
        assert not is_conventional("messaging.broker")  # too few segments
        assert not is_conventional("unknown.broker.metric")

    def test_layers_are_the_documented_set(self):
        assert METRIC_LAYERS == (
            "messaging",
            "storage",
            "processing",
            "elasticity",
            "serving",
            "observability",
            "core",
            "tools",
        )


class TestMetricSegment:
    """Runtime identifiers (group/job names) sanitized at the choke point."""

    def test_passthrough_for_legal_names(self):
        assert metric_segment("enrich") == "enrich"
        assert metric_segment("job_2") == "job_2"

    def test_sanitizes_dashes_and_case(self):
        assert metric_segment("job-enrich") == "job_enrich"
        assert metric_segment("Consumer-3") == "consumer_3"

    def test_sanitized_segment_builds_conventional_names(self):
        name = metric_name(
            "elasticity", "lag_monitor", metric_segment("job-enrich"), "lag"
        )
        assert is_conventional(name)

    def test_rejects_unsalvageable_names(self):
        with pytest.raises(ConfigError):
            metric_segment("---")


class _PassThrough:
    def process(self, record, collector):
        collector.send("derived", record.value, key=record.key)


def _exercise_stack() -> MetricsRegistry:
    """Drive every metric-registering subsystem once; return the registry."""
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("source", partitions=1)
    liquid.submit_job(
        JobConfig(name="enrich", inputs=["source"], task_factory=_PassThrough),
        outputs=["derived"],
    )
    # Compression + prefetch armed so their instruments join the sweep.
    producer = liquid.producer(
        config=ProducerConfig(compression="zlib:6", linger_messages=5)
    )
    for i in range(5):
        producer.send("source", {"i": i}, key=f"k{i}")
    producer.flush()
    liquid.cluster.run_until_replicated()
    liquid.process_available()
    consumer = liquid.consumer(
        config=ConsumerConfig(prefetch=True, auto_offset_reset="earliest")
    )
    consumer.assign([TopicPartition("derived", 0)])
    consumer.poll()
    consumer.poll()
    return liquid.cluster.metrics


def _exercise_tiered() -> MetricsRegistry:
    """Archive sealed segments cold and read them back."""
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
    producer = Producer(cluster)
    for i in range(40):
        producer.send("t", {"i": i})
    cluster.tick(60.0)
    cluster.fetch("t", 0, 0, max_messages=10)
    return cluster.metrics


def _exercise_elasticity() -> MetricsRegistry:
    """Run the elastic controller so the elasticity.* instruments register."""
    from repro.elasticity import ElasticJobController, ScalingPolicy
    from repro.processing.job import JobRunner

    cluster = MessagingCluster(num_brokers=1)
    cluster.create_topic("in", num_partitions=2, replication_factor=1)
    cluster.create_topic("derived", num_partitions=2, replication_factor=1)
    producer = Producer(cluster)
    for i in range(400):
        producer.send("in", {"i": i}, partition=i % 2)
    producer.flush()
    runner = JobRunner(
        JobConfig(
            name="elastic-job",  # dash on purpose: exercises metric_segment
            inputs=["in"],
            task_factory=_PassThrough,
            cpu_cost_per_message=0.005,
        ),
        cluster,
    )
    controller = ElasticJobController(
        runner,
        ScalingPolicy(max_containers=2, scale_out_lag=50.0, scale_in_lag=5.0,
                      cooldown=0.5),
        quantum=0.25,
    )
    controller.run_until_drained()
    return cluster.metrics


def _exercise_serving() -> MetricsRegistry:
    """Query job state through the router so serving.* instruments register."""
    from repro.processing.job import JobRunner, StoreConfig
    from repro.serving import StateQueryRouter

    class _Counting:
        def init(self, context):
            self.store = context.store("counts")

        def process(self, record, collector):
            self.store.put(record.key, (self.store.get(record.key) or 0) + 1)

    cluster = MessagingCluster(num_brokers=1)
    cluster.create_topic("in", num_partitions=1, replication_factor=1)
    producer = Producer(cluster)
    for i in range(20):
        producer.send("in", {"i": i}, key=f"k{i % 4}")
    runner = JobRunner(
        JobConfig(
            name="served-job",  # dash on purpose: exercises metric_segment
            inputs=["in"],
            task_factory=_Counting,
            stores=[StoreConfig("counts")],
            num_standby_replicas=1,
        ),
        cluster,
    )
    runner.run_until_idle()
    runner.checkpoint()
    router = StateQueryRouter(runner)
    router.get("counts", "k1")
    router.get("counts", "k1", allow_stale=True)
    runner.crash()
    runner.recover()
    return cluster.metrics


class TestRegistryConvention:
    def test_full_stack_registers_only_conventional_names(self):
        registry = _exercise_stack()
        names = registry.names()
        assert names, "the deployment registered no metrics at all"
        offenders = [n for n in names if not is_conventional(n)]
        assert offenders == []

    def test_tiered_cold_path_names_are_conventional(self):
        registry = _exercise_tiered()
        names = registry.names()
        assert any(n.startswith("storage.tiered.") for n in names)
        offenders = [n for n in names if not is_conventional(n)]
        assert offenders == []

    def test_expected_spread_of_layers(self):
        names = _exercise_stack().names()
        assert any(n.startswith("messaging.broker.") for n in names)
        assert any(n.startswith("messaging.cluster.") for n in names)
        assert any(n.startswith("storage.pagecache.") for n in names)
        assert any(n.startswith("processing.job.enrich.") for n in names)

    def test_compression_and_prefetch_instruments_registered(self):
        names = _exercise_stack().names()
        assert "messaging.producer.compression_ratio" in names
        assert "messaging.cluster.bytes_on_wire" in names

    def test_elasticity_names_are_conventional(self):
        names = _exercise_elasticity().names()
        assert "elasticity.controller.elastic_job.containers" in names
        assert "elasticity.controller.elastic_job.scale_outs" in names
        assert "elasticity.lag_monitor.job_elastic_job.lag" in names
        offenders = [n for n in names if not is_conventional(n)]
        assert offenders == []

    def test_telemetry_names_are_conventional(self):
        liquid = Liquid(num_brokers=1)
        liquid.enable_telemetry(interval=0.5, with_slos=True)
        liquid.create_feed("source", partitions=1)
        producer = liquid.producer()
        for i in range(5):
            producer.send("source", {"i": i})
        producer.flush()
        liquid.tick(1.0)  # fire at least one export cycle
        names = liquid.cluster.metrics.names()
        assert "observability.telemetry.export_cycles" in names
        assert "observability.telemetry.metric_records" in names
        offenders = [n for n in names if not is_conventional(n)]
        assert offenders == []

    def test_serving_names_are_conventional(self):
        names = _exercise_serving().names()
        assert "serving.router.served_job.queries" in names
        assert "serving.router.served_job.stale_served" in names
        assert "serving.router.served_job.query_latency" in names
        assert "serving.standby.served_job.promotions" in names
        offenders = [n for n in names if not is_conventional(n)]
        assert offenders == []
