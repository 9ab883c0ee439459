"""Operational tooling: the engineer-facing inspection surface."""

from repro.tools.admin import AdminClient, GroupLag, HealthReport, PartitionInfo
from repro.tools.tracequery import SpanNode, TraceQuery, render_timeline

__all__ = [
    "AdminClient",
    "PartitionInfo",
    "GroupLag",
    "HealthReport",
    "TraceQuery",
    "SpanNode",
    "render_timeline",
]
