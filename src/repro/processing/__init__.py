"""Processing layer: a Samza-like stateful stream-processing runtime."""

from repro.processing.checkpoint import CheckpointManager, job_group_name
from repro.processing.containers import IsolatedHost, QuantumReport, ResourceQuota
from repro.processing.dataflow import Dataflow
from repro.processing.job import JobConfig, JobRunner, PollResult, StoreConfig
from repro.processing.recovery import (
    RecoveryReport,
    RestoredStore,
    restore_job_state,
    restore_state,
)
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import LsmStore
from repro.processing.task import (
    Emit,
    MessageCollector,
    StreamTask,
    TaskContext,
)
from repro.processing.windows import (
    SessionWindow,
    TumblingWindow,
    WindowResult,
)

__all__ = [
    "JobConfig",
    "JobRunner",
    "PollResult",
    "StoreConfig",
    "Dataflow",
    "CheckpointManager",
    "job_group_name",
    "KeyValueState",
    "changelog_topic_name",
    "LsmStore",
    "StreamTask",
    "TaskContext",
    "MessageCollector",
    "Emit",
    "RecoveryReport",
    "RestoredStore",
    "restore_state",
    "restore_job_state",
    "IsolatedHost",
    "ResourceQuota",
    "QuantumReport",
    "TumblingWindow",
    "SessionWindow",
    "WindowResult",
]
