"""API-snapshot tests for the curated ``repro.api`` surface.

These tests are the enforcement half of the stability policy in DESIGN.md
§11: the supported public surface is exactly what ``repro.api.__all__``
lists, plus the field sets of the frozen client configs.  A failing
snapshot means a *breaking* change — removals and renames require a
deliberate edit here, in the same commit, with a changelog entry.
Additions only grow the snapshot.
"""

import dataclasses
import inspect

import pytest

import repro.api as api
from repro.common.errors import LiquidError
from repro.messaging.config import ConsumerConfig, ProducerConfig

#: The frozen snapshot.  Keep sorted; update deliberately, never by reflex.
EXPECTED_API = sorted(
    [
        # stack
        "Liquid",
        "MessagingCluster",
        # clients + configs
        "Producer",
        "ProducerConfig",
        "Consumer",
        "ConsumerConfig",
        "ACKS_NONE",
        "ACKS_LEADER",
        "ACKS_ALL",
        "PARTITIONER_HASH",
        "PARTITIONER_ROUND_ROBIN",
        "TransactionalProducer",
        # processing
        "JobConfig",
        "StoreConfig",
        "JobRunner",
        "AT_LEAST_ONCE",
        "EXACTLY_ONCE",
        "RecoveryReport",
        "RestoredStore",
        # serving
        "StateQueryRouter",
        "StateServer",
        "StandbyReplica",
        "CatchUpStats",
        "QueryResult",
        "CONSISTENCY_BOUNDED",
        "CONSISTENCY_SNAPSHOT",
        # elasticity
        "LagMonitor",
        "LagSample",
        "ScalingPolicy",
        "ScalingDecision",
        "ElasticJobController",
        "ScaleEvent",
        "BackpressureValve",
        # observability
        "Tracer",
        "Span",
        "TraceContext",
        "TRACE_HEADER",
        "current_tracer",
        "install_tracer",
        "uninstall_tracer",
        "tracing",
        "TraceQuery",
        "SpanNode",
        "render_timeline",
        # telemetry / SLOs / health
        "TelemetryExporter",
        "TELEMETRY_METRICS_FEED",
        "TELEMETRY_SPANS_FEED",
        "TELEMETRY_ALERTS_FEED",
        "is_telemetry_feed",
        "SloMonitor",
        "Slo",
        "Alert",
        "ClusterSloSampler",
        "standard_slos",
        "ClusterHealthReport",
        "HealthReason",
        "evaluate_cluster_health",
        # tools / metrics
        "AdminClient",
        "ConsumerLagReport",
        "GroupLagReport",
        "PartitionLag",
        "TransactionReport",
        "OpenTransaction",
        "StageLatencyReport",
        "StageLatency",
        "MetricsRegistry",
        "metric_name",
        # records / time
        "ProducerRecord",
        "ConsumerRecord",
        "TopicPartition",
        "SimClock",
        "CostModel",
        # errors
        "LiquidError",
        "ConfigError",
        "MessagingError",
        "ProcessingError",
        "SerdeError",
        "ServingError",
        "AuthorizationError",
        "TransactionError",
        "ProducerFencedError",
    ]
)

EXPECTED_PRODUCER_CONFIG_FIELDS = sorted(
    [
        "acks",
        "compression",
        "partitioner",
        "linger_messages",
        "max_retries",
        "idempotent",
        "client_id",
        "key_serde",
        "value_serde",
        "retry_backoff",
        "retry_backoff_max",
        "retry_jitter_seed",
    ]
)

EXPECTED_CONSUMER_CONFIG_FIELDS = sorted(
    [
        "group",
        "auto_offset_reset",
        "max_poll_messages",
        "isolation_level",
        "client_id",
        "key_serde",
        "value_serde",
        "prefetch",
    ]
)


class TestApiSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(api.__all__) == EXPECTED_API

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_star_import_exposes_only_the_snapshot(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        public = sorted(n for n in namespace if not n.startswith("__"))
        assert public == EXPECTED_API


class TestConfigSnapshots:
    def test_producer_config_fields(self):
        names = sorted(f.name for f in dataclasses.fields(ProducerConfig))
        assert names == EXPECTED_PRODUCER_CONFIG_FIELDS

    def test_consumer_config_fields(self):
        names = sorted(f.name for f in dataclasses.fields(ConsumerConfig))
        assert names == EXPECTED_CONSUMER_CONFIG_FIELDS

    def test_configs_are_frozen(self):
        config = ProducerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.acks = "all"
        consumer = ConsumerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            consumer.group = "g"


class TestClientSignatures:
    """Client options live in the config objects and nowhere else."""

    @pytest.mark.parametrize(
        "factory",
        [
            api.Producer.__init__,
            api.Consumer.__init__,
            api.Liquid.producer,
            api.Liquid.consumer,
        ],
    )
    def test_no_catch_all_keywords(self, factory):
        kinds = {p.kind for p in inspect.signature(factory).parameters.values()}
        assert inspect.Parameter.VAR_KEYWORD not in kinds, factory.__qualname__

    def test_loose_option_is_a_type_error(self):
        cluster = api.MessagingCluster(num_brokers=1)
        with pytest.raises(TypeError):
            api.Producer(cluster, acks="all")
        with pytest.raises(TypeError):
            api.Consumer(cluster, max_poll_messages=7)


class TestErrorHierarchy:
    def test_every_exported_error_is_a_liquid_error(self):
        for name in api.__all__:
            obj = getattr(api, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, LiquidError), name

    def test_all_repro_errors_share_the_root(self):
        import repro.common.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj.__module__ == "repro.common.errors"
            ):
                assert issubclass(obj, LiquidError), name
