"""Follower replication loop and ISR maintenance (§4.3).

"A follower broker acts as a normal consumer, reading data from its lead
broker and appending it to its local log.  This means that the followers for
a given partition may not have incorporated all data from the lead broker
when it fails."

The :class:`ReplicationManager` is driven from the cluster tick: each pass,
every follower of a *pending* partition that is not already caught up runs
the one copy step (:meth:`ReplicationManager.copy`, which the ``acks=all``
push runs too), and the controller's ISR is shrunk or re-expanded by the lag
observed — the "configurable minimum up-to-date threshold" the paper
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
from repro.messaging.broker import Broker
from repro.messaging.partition import PartitionReplica
from repro.storage.log import ReadResult

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
        # Cuts :meth:`reconcile` made since the last pass ended; the next reports them.
        self._truncations: list[tuple[TopicPartition, int, int]] = []

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
        if not pending and not self._truncations:
            return stats
        cluster = self.cluster
        controller = cluster.controller
        for partition in sorted(pending, key=self._order.__getitem__):
            state = controller.partition_state(partition)
            if state.leader is None:
                continue
            leader_broker = cluster.broker(state.leader)
            if not leader_broker.online:
                continue
            leader_replica = leader_broker.replica(partition)
            pairs = 0
            settled = True
            for follower_id in state.replicas:
                if follower_id == state.leader:
                    continue
                follower_broker = cluster.broker(follower_id)
                if not follower_broker.online:
                    continue
                pairs += 1
                replica = follower_broker.replica(partition)
                if not self._sync_follower(leader_broker, leader_replica, replica, stats):
                    settled = False
            if settled:
                # Every online follower took the short cut, which changes
                # nothing: what made them idle is still true after the pass.
                pending.remove(partition)
                self._settled[partition] = pairs
                self._settled_pairs += pairs
        stats.truncations, self._truncations = self._truncations, []
        return stats

    def _sync_follower(
        self,
        leader_broker: Broker,
        leader_replica: PartitionReplica,
        follower_replica: PartitionReplica,
        stats: ReplicationStats,
    ) -> bool:
        """Bring one follower up to date; True if it had nothing to do."""
        controller = self.cluster.controller
        partition, follower_id = follower_replica.partition, follower_replica.broker_id
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
            # first two conditions reconciliation is a no-op too, and a
            # follower with nothing to fetch has nothing to stall.
            stats.partitions_synced += 1
            return True
        # Armed with `skipping`, this stalls the follower: no fetch, no ISR
        # maintenance — the lag just accumulates until the stall is lifted.
        if failpoint("replication.sync", partition=partition, follower=follower_id) is SKIP:
            return False
        try:
            read, _latency = self.copy(
                leader_broker, leader_replica, follower_replica, self.max_fetch
            )
        except (
            BrokerUnavailableError,
            NotLeaderForPartitionError,
            OffsetOutOfRangeError,
        ):
            return False
        if read.offsets:
            stats.messages_copied += len(read.offsets)
            self._c_wire_bytes.increment(read.stored_bytes)
        stats.partitions_synced += 1

        # ISR maintenance against the post-fetch lag (_apply_isr tells the leader).
        lag = leader_replica.log_end_offset - follower_replica.log_end_offset
        isr = controller.isr_for(partition)
        if lag > self.max_lag_messages and follower_id in isr:
            controller.shrink_isr(partition, follower_id)
            stats.isr_shrinks.append((partition, follower_id))
        elif (
            lag == 0
            and follower_id not in isr
            # A broker whose session expired rejoins through the controller.
            and follower_id in controller.live_brokers()
        ):
            controller.expand_isr(partition, follower_id)
            stats.isr_expansions.append((partition, follower_id))
        return False

    def copy(
        self,
        leader_broker: Broker,
        leader_replica: PartitionReplica,
        follower_replica: PartitionReplica,
        max_messages: int,
    ) -> tuple[ReadResult, float]:
        """The one copy leader -> follower, for the tick's catch-up and the
        ``acks=all`` push alike; returns the read and the append latency.

        A follower on an older epoch (down at the election) or past the
        leader's end is reconciled first; then one fetch and one append.
        """
        partition, follower_id = follower_replica.partition, follower_replica.broker_id
        fetch_offset = follower_replica.log_end_offset
        stale = follower_replica.leader_epoch < leader_replica.leader_epoch
        if stale or fetch_offset > leader_replica.log_end_offset:
            self.reconcile(follower_replica, leader_replica, in_step=not stale)
            fetch_offset = follower_replica.log_end_offset
        read, _leo, leader_hw, entries = leader_broker.replica_fetch(
            partition, fetch_offset, follower_id, max_messages
        )
        latency = 0.0
        if read.offsets:
            latency = follower_replica.replicate_batch(read, entries)
            leader_hw = leader_replica.record_follower_position(
                follower_id, follower_replica.log_end_offset
            )
        follower_replica.update_high_watermark(leader_hw)
        return read, latency

    def reconcile(
        self, follower: PartitionReplica, leader: PartitionReplica, in_step: bool
    ) -> None:
        """Have ``follower`` take ``leader``'s epoch, first dropping what of
        its log the leader cannot vouch for (the next pass reports the cut).

        ``in_step``: both logs are prefixes of one log — within one epoch,
        and at an election for a follower on the epoch the new leader comes
        from — so only what lies past ``leader``'s end diverges.  Any other
        follower keeps at most its own HW: committed records, which a leader
        a clean election picks holds (pre-KIP-101 truncate-to-HW).
        """
        keep = follower.log_end_offset if in_step else follower.high_watermark
        keep = min(keep, leader.log_end_offset)
        if keep < follower.log_end_offset:
            removed = follower.truncate_to(keep)
            self._truncations.append((follower.partition, follower.broker_id, removed))
        follower.become_follower(leader.leader_epoch)
