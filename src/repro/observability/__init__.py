"""Observability: tracing, self-hosted telemetry, SLOs, and health.

See :mod:`repro.observability.trace` for the per-record tracer,
:mod:`repro.observability.telemetry` for the exporter that publishes
metric deltas/spans/alerts into the ``__telemetry.*`` system feeds,
:mod:`repro.observability.slo` for burn-rate SLO monitoring, and
:mod:`repro.observability.health` for the cluster health rollup.
"""

from repro.observability.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    ClusterHealthReport,
    HealthReason,
    evaluate_cluster_health,
    format_health,
)
from repro.observability.slo import (
    ALERT_FIRING,
    ALERT_RESOLVED,
    Alert,
    ClusterSloSampler,
    Slo,
    SloMonitor,
    SloStatus,
    attach_standard_slos,
    standard_slos,
)
from repro.observability.telemetry import (
    TELEMETRY_ALERTS_FEED,
    TELEMETRY_FEEDS,
    TELEMETRY_METRICS_FEED,
    TELEMETRY_SPANS_FEED,
    TelemetryExporter,
    is_telemetry_feed,
)
from repro.observability.trace import (
    TRACE_HEADER,
    Span,
    TraceContext,
    Tracer,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing",
    "TRACE_HEADER",
    "TelemetryExporter",
    "TELEMETRY_METRICS_FEED",
    "TELEMETRY_SPANS_FEED",
    "TELEMETRY_ALERTS_FEED",
    "TELEMETRY_FEEDS",
    "is_telemetry_feed",
    "Slo",
    "SloMonitor",
    "SloStatus",
    "Alert",
    "ALERT_FIRING",
    "ALERT_RESOLVED",
    "ClusterSloSampler",
    "standard_slos",
    "attach_standard_slos",
    "ClusterHealthReport",
    "HealthReason",
    "evaluate_cluster_health",
    "format_health",
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
]
