"""Operational tooling: the engineer-facing inspection surface."""

from repro.tools.admin import AdminClient, PartitionInfo
from repro.tools.tracequery import SpanNode, TraceQuery, render_timeline

__all__ = [
    "AdminClient",
    "PartitionInfo",
    "TraceQuery",
    "SpanNode",
    "render_timeline",
]
