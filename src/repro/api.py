"""The supported public API surface, in one curated module.

``repro.api`` is the stability contract: everything re-exported here (and
listed in ``__all__``) is covered by the API-snapshot test
(``tests/unit/test_public_api.py``) and the policy in DESIGN.md §11 —
additions are fine, removals and signature changes of these names are
breaking.  Anything imported from deeper module paths is internal and may
change without notice.

Grouped by role:

* **stack** — :class:`Liquid` (the facade), :class:`MessagingCluster`;
* **clients** — :class:`Producer` / :class:`Consumer` and their frozen
  config dataclasses;
* **processing** — :class:`JobConfig`, :class:`StoreConfig`,
  :class:`JobRunner`, the typed :class:`RecoveryReport`;
* **serving** — the queryable-state read path: :class:`StateQueryRouter`,
  :class:`StateServer`, :class:`StandbyReplica`, :class:`QueryResult` and
  the consistency-mode constants;
* **elasticity** — the lag-driven autoscaling loop
  (:class:`LagMonitor` → :class:`ScalingPolicy` →
  :class:`ElasticJobController`);
* **observability** — the tracer and its install/query helpers, the
  self-hosted telemetry exporter and its reserved feeds, SLO burn-rate
  monitoring, and the cluster health rollup;
* **records / time** — the record types, :class:`TopicPartition`,
  :class:`SimClock`, :class:`CostModel`;
* **errors** — the root :class:`LiquidError` plus the error types callers
  are expected to catch.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.costmodel import CostModel
from repro.common.errors import (
    AuthorizationError,
    ConfigError,
    LiquidError,
    MessagingError,
    ProcessingError,
    ProducerFencedError,
    SerdeError,
    ServingError,
    TransactionError,
)
from repro.common.metrics import MetricsRegistry, metric_name
from repro.common.records import (
    TRACE_HEADER,
    ConsumerRecord,
    ProducerRecord,
    TopicPartition,
)
from repro.core.liquid import Liquid
from repro.elasticity import (
    ElasticJobController,
    LagMonitor,
    LagSample,
    ScaleEvent,
    ScalingDecision,
    ScalingPolicy,
)
from repro.messaging.cluster import (
    ACKS_ALL,
    ACKS_LEADER,
    ACKS_NONE,
    MessagingCluster,
)
from repro.messaging.config import (
    PARTITIONER_HASH,
    PARTITIONER_ROUND_ROBIN,
    ConsumerConfig,
    ProducerConfig,
)
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer
from repro.observability.health import (
    ClusterHealthReport,
    HealthReason,
    evaluate_cluster_health,
)
from repro.observability.slo import (
    Alert,
    ClusterSloSampler,
    Slo,
    SloMonitor,
    standard_slos,
)
from repro.observability.telemetry import (
    TELEMETRY_ALERTS_FEED,
    TELEMETRY_METRICS_FEED,
    TELEMETRY_SPANS_FEED,
    TelemetryExporter,
    is_telemetry_feed,
)
from repro.observability.trace import (
    Span,
    TraceContext,
    Tracer,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.recovery import RecoveryReport, RestoredStore
from repro.serving import (
    CONSISTENCY_BOUNDED,
    CONSISTENCY_SNAPSHOT,
    CatchUpStats,
    QueryResult,
    StandbyReplica,
    StateQueryRouter,
    StateServer,
)
from repro.tools.admin import (
    AdminClient,
    ConsumerLagReport,
    GroupLagReport,
    OpenTransaction,
    PartitionLag,
    StageLatency,
    StageLatencyReport,
    TransactionReport,
)
from repro.tools.tracequery import SpanNode, TraceQuery, render_timeline

__all__ = [
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
