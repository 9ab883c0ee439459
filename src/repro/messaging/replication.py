"""Follower replication loop and ISR maintenance (§4.3).

"A follower broker acts as a normal consumer, reading data from its lead
broker and appending it to its local log.  This means that the followers for
a given partition may not have incorporated all data from the lead broker
when it fails."

The :class:`ReplicationManager` is driven from the cluster tick: each pass,
every follower replica of a *pending* partition reconciles a divergent tail
(truncation after leader changes) and, unless it is already caught up,
fetches from its leader; the controller's ISR is shrunk or re-expanded based
on observed lag — the "configurable minimum up-to-date threshold" the paper
describes.  A partition is pending from the moment the cluster marks it (a
leader append, a leadership or ISR change, a broker crash or restart) until a
pass in which every online follower of it had nothing to do; a settled
partition costs a pass nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    NotLeaderForPartitionError,
    OffsetOutOfRangeError,
)
from repro.common.metrics import metric_name
from repro.common.records import TopicPartition
from repro.chaos.failpoints import SKIP, failpoint

# Physical bytes a background catch-up pass moved leader -> follower.
_M_WIRE_BYTES = metric_name("messaging", "cluster", "bytes_on_wire")


@dataclass
class ReplicationStats:
    """Outcome of one replication pass."""

    messages_copied: int = 0
    partitions_synced: int = 0
    isr_shrinks: list[tuple[TopicPartition, int]] = field(default_factory=list)
    isr_expansions: list[tuple[TopicPartition, int]] = field(default_factory=list)
    truncations: list[tuple[TopicPartition, int, int]] = field(default_factory=list)


class ReplicationManager:
    """Copies data from leaders to followers and maintains the ISR.

    ``max_lag_messages`` is the in-sync threshold: a follower further behind
    than this after a pass is dropped from the ISR; a follower fully caught
    up is re-admitted.  ``max_fetch`` bounds per-pass copying so catch-up
    bandwidth is finite, as on real networks.
    """

    def __init__(
        self,
        cluster: "MessagingCluster",  # noqa: F821 - forward ref, avoids cycle
        max_lag_messages: int = 4,
        max_fetch: int = 5000,
    ) -> None:
        if max_lag_messages < 0:
            raise ConfigError("max_lag_messages must be >= 0")
        if max_fetch <= 0:
            raise ConfigError("max_fetch must be > 0")
        self.cluster = cluster
        self._c_wire_bytes = cluster.metrics.counter(_M_WIRE_BYTES)
        self.max_lag_messages = max_lag_messages
        self.max_fetch = max_fetch
        # Partitions some follower may have work on.  Every other partition
        # is settled: each online follower of it is caught up and the leader
        # knows it, which stays true until one of the cluster's mark sites
        # says otherwise.
        self._pending: set[TopicPartition] = set()
        # Visit order is creation order; a partition's first mark is its
        # creation (the controller announces its first leader).
        self._order: dict[TopicPartition, int] = {}
        # Online follower pairs each settled partition stands for, and their
        # sum: what a pass adds to ``partitions_synced`` without a visit.
        self._settled: dict[TopicPartition, int] = {}
        self._settled_pairs = 0

    def mark(self, partition: TopicPartition) -> None:
        """Something about ``partition`` changed: visit it from the next
        pass on, until all of its online followers are idle again."""
        if partition not in self._pending:
            self._pending.add(partition)
            self._order.setdefault(partition, len(self._order))
            self._settled_pairs -= self._settled.pop(partition, 0)

    def pending(self) -> int:
        """Partitions the next pass will visit."""
        return len(self._pending)

    def poll(self) -> ReplicationStats:
        """Run one replication pass over the pending partitions."""
        stats = ReplicationStats(partitions_synced=self._settled_pairs)
        pending = self._pending
        if not pending:
            return stats
        cluster = self.cluster
        controller = cluster.controller
        for partition in sorted(pending, key=self._order.__getitem__):
            state = controller.partition_state(partition)
            if state.leader is None:
                continue
            if not cluster.broker(state.leader).online:
                continue
            pairs = 0
            settled = True
            for follower_id in state.replicas:
                if follower_id == state.leader:
                    continue
                if not cluster.broker(follower_id).online:
                    continue
                pairs += 1
                if not self._sync_follower(
                    partition, state.leader, follower_id, stats
                ):
                    settled = False
            if settled:
                # Every online follower took the short cut, which changes
                # nothing: what made them idle is still true after the pass.
                pending.remove(partition)
                self._settled[partition] = pairs
                self._settled_pairs += pairs
        return stats

    def _sync_follower(
        self,
        partition: TopicPartition,
        leader_id: int,
        follower_id: int,
        stats: ReplicationStats,
    ) -> bool:
        """Bring one follower up to date; True if it had nothing to do."""
        controller = self.cluster.controller
        leader_broker = self.cluster.broker(leader_id)
        follower_broker = self.cluster.broker(follower_id)
        leader_replica = leader_broker.replica(partition)
        follower_replica = follower_broker.replica(partition)

        fetch_offset = follower_replica.log_end_offset
        if (
            follower_replica.leader_epoch == leader_replica.leader_epoch
            and fetch_offset == leader_replica.log_end_offset
            and leader_replica._follower_leo.get(follower_id) == fetch_offset
            and follower_replica.high_watermark >= leader_replica.high_watermark
            and follower_id in controller.isr_for(partition)
        ):
            # Caught up, and the leader knows it: the fetch would return
            # nothing, record the position the leader already holds, and
            # leave both high watermarks and the ISR as they are.  With the
            # first two conditions reconciliation below is a no-op too, and
            # a follower with nothing to fetch has nothing to stall.
            stats.partitions_synced += 1
            return True
        # Armed with `skipping`, this stalls the follower: no fetch, no ISR
        # maintenance — the lag just accumulates until the stall is lifted.
        if failpoint("replication.sync", partition=partition, follower=follower_id) is SKIP:
            return False

        # Epoch reconciliation: a follower that lived through a leadership
        # change (e.g. a deposed leader) may hold an un-replicated tail the
        # new leader never had — possibly in the SAME offset range as the new
        # leader's fresh writes.  Anything above the follower's own high
        # watermark was never committed, so it is discarded before catch-up
        # (pre-KIP-101 Kafka truncate-to-HW semantics).
        if follower_replica.leader_epoch < leader_replica.leader_epoch:
            safe_point = min(
                follower_replica.high_watermark, leader_replica.log_end_offset
            )
            removed = follower_replica.truncate_to(safe_point)
            if removed:
                stats.truncations.append((partition, follower_id, removed))
            follower_replica.become_follower(leader_replica.leader_epoch)
        elif fetch_offset > leader_replica.log_end_offset:
            removed = follower_replica.truncate_to(leader_replica.log_end_offset)
            if removed:
                stats.truncations.append((partition, follower_id, removed))

        fetch_offset = follower_replica.log_end_offset
        try:
            read, leader_leo, leader_hw, entries = leader_broker.replica_fetch(
                partition, fetch_offset, follower_id, self.max_fetch
            )
        except (
            BrokerUnavailableError,
            NotLeaderForPartitionError,
            OffsetOutOfRangeError,
        ):
            return False
        if read.offsets:
            # Batch-index entries ride along: the follower learns the
            # producer state the records carry, and compressed batches land
            # as the same opaque frames the leader stores (no re-encode).
            follower_replica.replicate_batch(read, entries)
            stats.messages_copied += len(read.offsets)
            self._c_wire_bytes.increment(read.stored_bytes)
            # Report the new position so the leader can advance the HW
            # without waiting for the next pass.
            leader_hw = leader_replica.record_follower_position(
                follower_id, follower_replica.log_end_offset
            )
        follower_replica.update_high_watermark(leader_hw)
        stats.partitions_synced += 1

        # ISR maintenance against the post-fetch lag.
        lag = leader_replica.log_end_offset - follower_replica.log_end_offset
        isr = controller.isr_for(partition)
        if lag > self.max_lag_messages and follower_id in isr:
            new_isr = controller.shrink_isr(partition, follower_id)
            leader_replica.set_isr(new_isr)
            stats.isr_shrinks.append((partition, follower_id))
        elif lag == 0 and follower_id not in isr:
            new_isr = controller.expand_isr(partition, follower_id)
            leader_replica.set_isr(new_isr)
            stats.isr_expansions.append((partition, follower_id))
        return False
