"""Cross-datacenter mirroring (§5).

"The messaging layer, based on Apache Kafka, runs in 5 co-location centers,
spanning different geographical areas."

Geo-distribution in the Kafka ecosystem is done by *mirroring*: a consumer
in the source datacenter republishes topics into the target datacenter's
cluster (Kafka's MirrorMaker).  :class:`MirrorMaker` reproduces that:

* per-partition, order-preserving copy with keys/timestamps/headers intact
  (offsets are re-assigned by the target, as in the real tool);
* progress checkpointed through the *source* cluster's offset manager, so a
  restarted mirror resumes instead of re-copying; a position a source
  retention sweep deleted is reseated at the earliest offset (the
  :class:`~repro.messaging.reader.PartitionReader` policy) and checkpointed;
* WAN costs: each mirrored batch pays a cross-datacenter round trip at a
  configurable RTT (tens of milliseconds vs. the intra-DC half-millisecond).

Internal control topics (``__``-prefixed) are never mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError, TopicNotFoundError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ISOLATION_LEVELS
from repro.messaging.reader import PartitionReader
from repro.messaging.topic import is_system_topic

#: Default cross-datacenter round-trip time (continental WAN).
DEFAULT_WAN_RTT = 30e-3


@dataclass
class MirrorStats:
    """Outcome of one mirroring pass."""

    records_mirrored: int = 0
    simulated_seconds: float = 0.0
    per_topic: dict[str, int] = field(default_factory=dict)
    #: Records lost to a source retention sweep below the mirror position
    #: (the mirror reseats at the beginning offset instead of wedging).
    records_skipped: int = 0


class MirrorMaker:
    """Replicates topics from a source cluster into a target cluster."""

    def __init__(
        self,
        source: MessagingCluster,
        target: MessagingCluster,
        topics: list[str] | None = None,
        name: str = "mirror",
        wan_rtt: float = DEFAULT_WAN_RTT,
        batch: int = 500,
        acks: str = ACKS_LEADER,
        isolation: str = "read_committed",
    ) -> None:
        if source is target:
            raise ConfigError("source and target must be different clusters")
        if wan_rtt < 0:
            raise ConfigError("wan_rtt must be >= 0")
        if isolation not in ISOLATION_LEVELS:
            raise ConfigError(
                f"isolation must be one of {ISOLATION_LEVELS}, got {isolation!r}"
            )
        self.source = source
        self.target = target
        self.name = name
        self.wan_rtt = wan_rtt
        self.batch = batch
        self.acks = acks
        # read_committed by default: re-producing aborted transactional
        # records would launder them into committed data on the target.
        self.isolation = isolation
        self.group = f"__mirror-{name}"
        self._topics = list(topics) if topics is not None else None
        self._reader = PartitionReader(source, group=self.group, isolation=isolation)

    # -- topic selection / provisioning ------------------------------------------

    def mirrored_topics(self) -> list[str]:
        """Topics this mirror copies (explicit list or all non-internal)."""
        if self._topics is not None:
            return list(self._topics)
        return [t for t in self.source.topics() if not is_system_topic(t)]

    def _ensure_target_topic(self, topic: str) -> None:
        if topic in self.target.topics():
            return
        source_config = self.source.topic_config(topic)
        replication = min(
            source_config.replication_factor, len(self.target.brokers())
        )
        self.target.create_topic(
            topic,
            num_partitions=source_config.num_partitions,
            replication_factor=replication,
            cleanup_policy=source_config.cleanup_policy,
        )

    # -- mirroring ------------------------------------------------------------------

    def poll(self) -> MirrorStats:
        """Copy one batch per partition of every mirrored topic."""
        stats = MirrorStats()
        skipped = self._reader.skipped
        for topic in self.mirrored_topics():
            try:
                partitions = self.source.partitions_of(topic)
            except TopicNotFoundError:
                continue
            self._ensure_target_topic(topic)
            copied_for_topic = 0
            for tp in partitions:
                copied_for_topic += self._mirror_partition(tp, stats)
            if copied_for_topic:
                stats.per_topic[topic] = copied_for_topic
        stats.records_skipped = self._reader.skipped - skipped
        return stats

    def _mirror_partition(self, tp: TopicPartition, stats: MirrorStats) -> int:
        reader = self._reader
        reader.seed(tp)
        reseats = reader.reseats
        result = reader.fetch(tp, self.batch)
        position = reader.positions[tp]  # where a reseat put it
        if reader.reseats != reseats:
            # Checkpoint the jump at once, so a restart does not re-wedge.
            self.source.offset_manager.commit(
                self.group, tp, position, {"mirror": self.name, "reseated": True}
            )
        stats.simulated_seconds += result.latency
        if result.records:
            # A record's headers are the user's: the source's producer
            # state stayed in its batch index, so nothing needs stripping.
            entries = [
                (r.key, r.value, r.timestamp, r.headers) for r in result.records
            ]
            batch_bytes = sum(r.size for r in result.records)
            # One WAN round trip carries the whole batch.
            stats.simulated_seconds += self.wan_rtt + (
                batch_bytes / self.source.cost_model.network_bandwidth
            )
            ack = self.target.produce(
                tp.topic, tp.partition, entries, acks=self.acks
            )
            stats.simulated_seconds += ack.latency
            stats.records_mirrored += len(entries)
        if result.next_offset > position:
            reader.positions[tp] = result.next_offset
            self.source.offset_manager.commit(
                self.group, tp, result.next_offset, {"mirror": self.name}
            )
        return len(result.records)

    def run_until_synced(self, max_polls: int = 1000) -> int:
        """Poll until no partition has new data; returns records mirrored."""
        total = 0
        for _ in range(max_polls):
            self.source.tick(0.0)
            stats = self.poll()
            self.target.tick(0.0)  # let target-side replication commit
            total += stats.records_mirrored
            if stats.records_mirrored == 0:
                return total
        return total

    # -- monitoring -------------------------------------------------------------------

    def lag(self) -> int:
        """Records present at the source but not yet mirrored."""
        pending = 0
        for topic in self.mirrored_topics():
            for tp in self.source.partitions_of(topic):
                position = self._reader.seed(tp)
                pending += max(0, self.source.end_offset(tp) - position)
        return pending

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MirrorMaker({self.name!r}, topics={self.mirrored_topics()})"
