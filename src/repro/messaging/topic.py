"""Topic definitions and per-topic configuration (§3.1).

A topic is the unit of publish/subscribe: "data is divided into messages,
which are stored under different topics ... topics are divided into
partitions, which are distributed on a cluster of brokers."

Per-topic knobs mirror the paper's §4.1 operational controls: retention
(time and/or size), cleanup policy (delete vs. compact), segment sizing, and
the §4.3 durability knob ``min_insync_replicas``.  ``tiered`` switches the
topic to archive-before-delete retention: sealed segments are offloaded to
the cluster's cold store instead of destroyed, keeping the full history
rewindable (§2.2) while the hot log stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered.config import TieredConfig

#: Cleanup policies (Kafka's ``cleanup.policy``).
CLEANUP_DELETE = "delete"
CLEANUP_COMPACT = "compact"

#: Topics in this namespace are owned by the system itself — consumer
#: offsets, telemetry feeds — and are excluded from user-facing defaults
#: (the lag health rule and SLO skip ``__``-prefixed groups, mirrors and
#: chaos schedules skip the topics, ``Liquid.create_feed`` refuses the
#: namespace).
SYSTEM_TOPIC_PREFIX = "__"


def is_system_topic(name: str) -> bool:
    """True for system-owned names: topics (``__liquid_offsets``,
    ``__telemetry.*``) and consumer groups (``__mirror-*``)."""
    return name.startswith(SYSTEM_TOPIC_PREFIX)


@dataclass(frozen=True)
class TopicConfig:
    """Static configuration of one topic."""

    name: str
    num_partitions: int = 1
    replication_factor: int = 1
    cleanup_policy: str = CLEANUP_DELETE
    retention: RetentionConfig = field(default_factory=RetentionConfig)
    log: LogConfig = field(default_factory=LogConfig)
    min_insync_replicas: int = 1
    tiered: TieredConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("topic name must be non-empty")
        if "/" in self.name:
            raise ConfigError(f"topic name may not contain '/': {self.name!r}")
        if self.num_partitions <= 0:
            raise ConfigError("num_partitions must be > 0")
        if self.replication_factor <= 0:
            raise ConfigError("replication_factor must be > 0")
        if self.cleanup_policy not in (CLEANUP_DELETE, CLEANUP_COMPACT):
            raise ConfigError(
                f"unknown cleanup_policy {self.cleanup_policy!r}; "
                f"expected {CLEANUP_DELETE!r} or {CLEANUP_COMPACT!r}"
            )
        if not 1 <= self.min_insync_replicas <= self.replication_factor:
            raise ConfigError(
                "min_insync_replicas must be in [1, replication_factor]"
            )
        if self.tiered is not None and self.compacted:
            raise ConfigError(
                "tiered storage applies to delete-policy topics; compacted "
                "topics retain their full keyspace in the hot tier"
            )

    @property
    def compacted(self) -> bool:
        return self.cleanup_policy == CLEANUP_COMPACT
