"""Coordination substrate: ZooKeeper-like coordinator and controller."""

from repro.cluster.controller import ClusterController, PartitionState
from repro.cluster.coordinator import Coordinator, Session

__all__ = [
    "Coordinator",
    "Session",
    "ClusterController",
    "PartitionState",
]
