"""Coordination substrate: ZooKeeper-like coordinator and controller."""

from repro.cluster.controller import ClusterController, PartitionState
from repro.cluster.coordinator import (
    EVENT_CHANGED,
    EVENT_CHILD,
    EVENT_CREATED,
    EVENT_DELETED,
    Coordinator,
    Session,
)

__all__ = [
    "Coordinator",
    "Session",
    "ClusterController",
    "PartitionState",
    "EVENT_CREATED",
    "EVENT_DELETED",
    "EVENT_CHANGED",
    "EVENT_CHILD",
]
