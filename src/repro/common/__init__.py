"""Shared substrate: simulated clock, cost model, metrics, records, the value codec."""

from repro.common.clock import Clock, SimClock, TimerHandle
from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import LiquidError
from repro.common.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.common.records import (
    ConsumerRecord,
    ProducerRecord,
    StoredMessage,
    TopicPartition,
    estimate_size,
)
from repro.common.serde import JsonSerde, Serde

__all__ = [
    "Clock",
    "SimClock",
    "TimerHandle",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "LiquidError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ConsumerRecord",
    "ProducerRecord",
    "StoredMessage",
    "TopicPartition",
    "estimate_size",
    "Serde",
    "JsonSerde",
]
