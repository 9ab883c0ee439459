"""Brokers: the machines of the messaging layer (§3.1).

"Each broker runs on a different physical machine that handles topics and
the partitions for these topics by answering requests from clients."

A broker owns one simulated page cache (its machine's RAM) shared by all
partition replicas it hosts, plus per-topic maintenance state (retention
enforcement, compaction).  All client-visible operations go through
:meth:`produce` / :meth:`fetch`, which add request overhead and enforce
leadership; replication traffic uses :meth:`replica_fetch`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.common.clock import SimClock
from repro.common.compression import BatchFrame
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    PartitionNotFoundError,
)
from repro.common.metrics import MetricsRegistry, metric_name
from repro.common.records import TopicPartition
from repro.chaos.failpoints import failpoint
from repro.storage.compaction import CompactionConfig, LogCompactor
from repro.storage.log import BatchEntry, PartitionLog, ReadResult
from repro.storage.pagecache import PageCache
from repro.storage.retention import RetentionEnforcer
from repro.storage.tiered import ColdTier, DfsObjectStore
from repro.messaging.partition import PartitionReplica, ProduceResult
from repro.messaging.topic import TopicConfig

# Metric names precomputed once (layer.component.metric convention).
_M_MESSAGES_IN = metric_name("messaging", "broker", "messages_in")
_M_MESSAGES_OUT = metric_name("messaging", "broker", "messages_out")
_M_PRODUCE_LATENCY = metric_name("messaging", "broker", "produce_latency")
_M_FETCH_LATENCY = metric_name("messaging", "broker", "fetch_latency")
_M_RETENTION_DELETED = metric_name("messaging", "broker", "retention_deleted")
_M_RETENTION_ARCHIVED = metric_name("messaging", "broker", "retention_archived")
_M_COMPACTION_REMOVED = metric_name("messaging", "broker", "compaction_removed")
#: Wire/storage bytes avoided by compressed batches (logical minus wire).
_M_BYTES_SAVED = metric_name("messaging", "broker", "bytes_saved")


class Broker:
    """One broker node hosting a set of partition replicas."""

    def __init__(
        self,
        broker_id: int,
        clock: SimClock,
        page_cache_bytes: int = 256 * 1024 * 1024,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.broker_id = broker_id
        self.clock = clock
        self.cost_model = clock.cost_model
        #: The cluster's shared cold store, set by the cluster on its first
        #: tiered topic.
        self.object_store: DfsObjectStore | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_messages_in = self.metrics.counter(_M_MESSAGES_IN)
        self._c_messages_out = self.metrics.counter(_M_MESSAGES_OUT)
        self._h_produce_latency = self.metrics.histogram(_M_PRODUCE_LATENCY)
        self._h_fetch_latency = self.metrics.histogram(_M_FETCH_LATENCY)
        self._c_bytes_saved = self.metrics.counter(_M_BYTES_SAVED)
        self._c_retention_deleted = self.metrics.counter(_M_RETENTION_DELETED)
        self._c_retention_archived = self.metrics.counter(_M_RETENTION_ARCHIVED)
        self._c_compaction_removed = self.metrics.counter(_M_COMPACTION_REMOVED)
        self.page_cache = PageCache(
            clock=clock,
            capacity_bytes=page_cache_bytes,
            metrics=self.metrics,
        )
        self.online = True
        self._replicas: dict[TopicPartition, PartitionReplica] = {}
        self._topic_configs: dict[str, TopicConfig] = {}
        self._compactor = LogCompactor(CompactionConfig(), clock=clock)

    # -- partition hosting ----------------------------------------------------------

    def host_partition(
        self, partition: TopicPartition, config: TopicConfig
    ) -> PartitionReplica:
        """Create a local replica of ``partition`` on this broker."""
        if partition in self._replicas:
            raise ConfigError(f"{partition} already hosted on broker {self.broker_id}")
        log = PartitionLog(
            name=f"broker-{self.broker_id}/{partition}",
            config=config.log,
            clock=self.clock,
            page_cache=self.page_cache,
            partition=partition,
        )
        replica = PartitionReplica(partition, self.broker_id, log)
        if config.tiered is not None:
            if self.object_store is None:
                raise ConfigError(
                    f"topic {partition.topic!r} requests tiered storage but "
                    f"broker {self.broker_id} has no object store"
                )
            # Namespace excludes the broker id: every replica of a partition
            # archives to the same keys, so duplicate uploads dedupe.
            replica.cold_tier = ColdTier(
                log,
                self.object_store,
                namespace=f"{partition.topic}/{partition.partition}",
                config=config.tiered,
                metrics=self.metrics,
            )
        self._replicas[partition] = replica
        self._topic_configs[partition.topic] = config
        return replica

    def replica(self, partition: TopicPartition) -> PartitionReplica:
        replica = self._replicas.get(partition)
        if replica is None:
            raise PartitionNotFoundError(
                f"{partition} not hosted on broker {self.broker_id}"
            )
        return replica

    def hosts(self, partition: TopicPartition) -> bool:
        return partition in self._replicas

    def replicas(self) -> list[PartitionReplica]:
        return list(self._replicas.values())

    def led_partitions(self) -> list[TopicPartition]:
        return [tp for tp, r in self._replicas.items() if r.role == "leader"]

    # -- client request paths -----------------------------------------------------------

    def _check_online(self) -> None:
        if not self.online:
            raise BrokerUnavailableError(f"broker {self.broker_id} is offline")

    def produce(
        self,
        partition: TopicPartition,
        entries: list[tuple[Any, Any, float, dict[str, Any]]],
        epoch: int | None = None,
        producer_id: int | None = None,
        producer_seq: int | None = None,
        frame: BatchFrame | None = None,
        sizes: Sequence[int] | None = None,
        transactional: bool = False,
    ) -> tuple[ProduceResult, float]:
        """Append a batch on the leader replica; returns (result, latency).

        ``sizes`` is the cluster's payload-size column for ``entries``
        (see :meth:`PartitionLog.append_batch`); ``producer_id``,
        ``producer_seq`` and ``transactional`` are the batch's producer
        state (see :meth:`PartitionReplica.append_batch`).
        """
        failpoint("broker.produce", broker=self.broker_id, partition=partition)
        self._check_online()
        replica = self.replica(partition)
        result = replica.append_batch(
            entries, epoch, producer_id, producer_seq, frame, sizes, transactional
        )
        latency = self.cost_model.request(len(entries)) + result.latency
        self._c_messages_in.increment(len(entries))
        self._h_produce_latency.observe(latency)
        if frame is not None and not result.duplicate:
            saved = frame.payload_bytes - frame.wire_bytes
            if saved > 0:
                self._c_bytes_saved.increment(saved)
        return result, latency

    def fetch(
        self,
        partition: TopicPartition,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
        isolation: str = "read_uncommitted",
    ) -> tuple[ReadResult, float, list[BatchEntry]]:
        """Consumer fetch (committed data only); returns ``(result, latency,
        entries)``, ``entries`` the batch-index entries the read spans (see
        :meth:`replica_fetch`), from which the response is cut into batches."""
        failpoint("broker.fetch", broker=self.broker_id, partition=partition)
        self._check_online()
        replica = self.replica(partition)
        result = replica.fetch(
            offset, max_messages, max_bytes, committed_only=True,
            isolation=isolation,
        )
        count = len(result.offsets)
        latency = self.cost_model.request(count) + result.latency
        self._c_messages_out.increment(count)
        self._h_fetch_latency.observe(latency)
        return (
            result, latency,
            replica.log.batches_spanned_by(offset, result.offsets),
        )

    def replica_fetch(
        self,
        partition: TopicPartition,
        offset: int,
        follower_id: int,
        max_messages: int = 1000,
    ) -> tuple[ReadResult, int, int, list[BatchEntry]]:
        """Follower fetch from this (leader) broker.

        Returns ``(read, leader_leo, leader_hw, entries)``: ``read`` is the
        log's read as held, with its offset column (which the follower's
        append takes as it is) and its physical size in ``stored_bytes``.
        As in Kafka, the fetch *offset itself* tells the leader how far the
        follower has got: the leader records it and may advance the high
        watermark.  ``entries`` are the batch-index entries overlapping the
        run (from ``offset`` on), so the follower learns the producer state
        the run carries and stores the same opaque frames.
        """
        self._check_online()
        replica = self.replica(partition)
        hw = replica.record_follower_position(follower_id, offset)
        result = replica.fetch(offset, max_messages, committed_only=False)
        return (
            result, replica.log_end_offset, hw,
            replica.log.batches_spanned_by(offset, result.offsets),
        )

    # -- maintenance (driven by the cluster tick) -------------------------------------------

    def run_retention(self) -> int:
        """Enforce retention on all delete-policy replicas; returns messages
        deleted.  Tiered replicas archive each segment before dropping it."""
        deleted = 0
        archived = 0
        for partition, replica in self._replicas.items():
            config = self._topic_configs[partition.topic]
            if config.compacted or not config.retention.enabled:
                continue
            archiver = (
                replica.cold_tier.archiver
                if replica.cold_tier is not None
                else None
            )
            enforcer = RetentionEnforcer(
                config.retention, self.clock, archiver=archiver
            )
            result = enforcer.enforce(replica.log)
            if result.messages_deleted:
                replica.trim_producer_state()
            deleted += result.messages_deleted
            archived += result.segments_archived
        if deleted:
            self._c_retention_deleted.increment(deleted)
        if archived:
            self._c_retention_archived.increment(archived)
        return deleted

    def run_compaction(self) -> int:
        """Compact all compact-policy replicas; returns messages removed."""
        removed = 0
        for partition, replica in self._replicas.items():
            config = self._topic_configs[partition.topic]
            if not config.compacted:
                continue
            result = self._compactor.compact(
                replica.log, bounds=replica.compaction_bounds
            )
            removed += result.messages_removed
        if removed:
            self._c_compaction_removed.increment(removed)
        return removed

    # -- lifecycle ----------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Crash/stop the broker.  Logs survive (they are disk-backed); the
        page cache does not (it is RAM)."""
        self.online = False
        for replica in self._replicas.values():
            replica.mark_offline()
        # Losing the machine loses its RAM: cold cache on restart.
        for partition in self._replicas:
            for segment in self._replicas[partition].log.segments():
                self.page_cache.forget_file(
                    self._replicas[partition].log._file_id(segment)
                )
            cold_tier = self._replicas[partition].cold_tier
            if cold_tier is not None:
                cold_tier.reader.drop_cache()

    def startup(self) -> None:
        """Restart after a crash; replicas come back as followers that must
        re-sync before rejoining any ISR."""
        self.online = True
        for replica in self._replicas.values():
            replica.become_follower(replica.leader_epoch)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "online" if self.online else "offline"
        return f"Broker({self.broker_id}, {state}, replicas={len(self._replicas)})"
