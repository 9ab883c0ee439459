"""Cluster controller: leader election and ISR maintenance (§4.3).

"all partitions handled by a lead broker are replicated across follower
brokers.  If a lead broker fails, a hand-over process selects a new leader
among its followers. ... A coordination service is used to maintain a set of
in-sync-replicas (ISRs) ... After a broker failure, a re-election mechanism
chooses a new leader from the set of ISRs.  This design guarantees that the
messaging layer can tolerate up to N-1 failures with N brokers in the set of
ISRs."

The controller is itself elected through the coordinator (first broker to
claim the ephemeral ``/controller`` node) and reacts to broker liveness
changes by reassigning partition leadership.  Leadership changes carry a
monotonically increasing *leader epoch* so stale leaders can be fenced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigError, NoNodeError
from repro.common.records import TopicPartition
from repro.cluster.coordinator import Coordinator, Session

#: Listener signature: (partition, new_leader_or_None, epoch, isr).
LeadershipListener = Callable[[TopicPartition, int | None, int, list[int]], None]
IsrListener = Callable[[TopicPartition, list[int]], None]


@dataclass
class PartitionState:
    """Controller-side view of one partition's replication state."""

    partition: TopicPartition
    replicas: list[int]
    leader: int | None
    isr: list[int]
    epoch: int = 0

    @property
    def online(self) -> bool:
        return self.leader is not None


class _Partitions(dict[TopicPartition, PartitionState]):
    """The controller's partition table: a miss is a :class:`NoNodeError`,
    so every accessor is one lookup (fetches, produce batches and standby
    lag checks each read one)."""

    def __missing__(self, partition: TopicPartition) -> PartitionState:
        raise NoNodeError(f"unknown partition {partition}")


class ClusterController:
    """Tracks broker liveness and assigns partition leadership.

    ``allow_unclean_election=True`` lets a non-ISR replica take over when the
    ISR is empty (availability over consistency); the default mirrors the
    paper's durability stance and leaves the partition offline instead.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        allow_unclean_election: bool = False,
    ) -> None:
        self.coordinator = coordinator
        self.allow_unclean_election = allow_unclean_election
        self._partitions = _Partitions()
        self._live_brokers: set[int] = set()
        self._sessions: dict[int, Session] = {}
        self._leadership_listeners: list[LeadershipListener] = []
        self._isr_listeners: list[IsrListener] = []
        self.controller_id: int | None = None
        self.coordinator.create("/brokers", make_parents=True)
        self.coordinator.create("/topics", make_parents=True)

    # -- broker membership -------------------------------------------------------

    def register_broker(self, broker_id: int) -> Session:
        """A broker comes online: ephemeral registration + controller race."""
        if broker_id in self._sessions:
            raise ConfigError(f"broker {broker_id} already registered")
        session = self.coordinator.connect(f"broker-{broker_id}")
        self.coordinator.create(
            f"/brokers/{broker_id}",
            data={"id": broker_id},
            ephemeral=True,
            session=session,
            make_parents=True,
        )
        self._sessions[broker_id] = session
        self._live_brokers.add(broker_id)
        if self.controller_id is None:
            if self.coordinator.elect("/controller", str(broker_id), session):
                self.controller_id = broker_id
        self._maybe_restore_leadership(broker_id)
        return session

    def broker_failed(self, broker_id: int) -> list[TopicPartition]:
        """A broker dies: expire its session, re-elect affected leaders.

        Returns the partitions whose leadership changed (or went offline).
        """
        session = self._sessions.pop(broker_id, None)
        if session is None:
            return []
        self._live_brokers.discard(broker_id)
        self.coordinator.expire_session(session)
        if self.controller_id == broker_id:
            self._elect_controller()
        affected: list[TopicPartition] = []
        for state in self._partitions.values():
            changed = False
            # The last ISR member stays in the ISR even while down (Kafka
            # semantics): it holds all committed data, so its recovery is a
            # clean path back online.
            if broker_id in state.isr and len(state.isr) > 1:
                state.isr = [b for b in state.isr if b != broker_id]
                self._notify_isr(state)
                changed = True
            if state.leader == broker_id:
                self._elect_leader(state)
                changed = True
            if changed:
                affected.append(state.partition)
        return affected

    def broker_recovered(self, broker_id: int) -> Session:
        """A crashed broker restarts.  It rejoins but does not re-enter any
        ISR until replication catches it up (see :meth:`expand_isr`)."""
        return self.register_broker(broker_id)

    def _elect_controller(self) -> None:
        self.controller_id = None
        for broker_id in sorted(self._live_brokers):
            session = self._sessions.get(broker_id)
            if session is not None and self.coordinator.elect(
                "/controller", str(broker_id), session
            ):
                self.controller_id = broker_id
                return

    def _maybe_restore_leadership(self, broker_id: int) -> None:
        """On broker (re)start, give it back offline partitions it replicates.

        A recovered replica of an offline partition is by definition the best
        candidate available; it is also potentially stale, which is exactly
        the unclean-election trade-off, so this only happens for partitions
        with an empty ISR when unclean election is enabled, or when the
        recovering broker is already in the ISR (it was shut down cleanly).
        """
        for state in self._partitions.values():
            if state.leader is not None or broker_id not in state.replicas:
                continue
            if broker_id in state.isr or self.allow_unclean_election:
                if broker_id not in state.isr:
                    state.isr = [broker_id]
                state.leader = broker_id
                state.epoch += 1
                self._notify_leadership(state)

    # -- partition lifecycle ---------------------------------------------------------

    def create_partition(
        self, partition: TopicPartition, replicas: list[int]
    ) -> PartitionState:
        """Register a partition; the first live replica becomes leader."""
        if partition in self._partitions:
            raise ConfigError(f"partition {partition} already exists")
        if not replicas:
            raise ConfigError("replicas must be non-empty")
        if len(set(replicas)) != len(replicas):
            raise ConfigError(f"duplicate replicas: {replicas}")
        dead = [b for b in replicas if b not in self._live_brokers]
        if dead:
            raise ConfigError(f"replicas not live: {dead}")
        state = PartitionState(
            partition=partition,
            replicas=list(replicas),
            leader=replicas[0],
            isr=list(replicas),
            epoch=1,
        )
        self._partitions[partition] = state
        self.coordinator.create(
            f"/topics/{partition.topic}/partitions/{partition.partition}",
            data={"replicas": list(replicas)},
            make_parents=True,
        )
        self._notify_leadership(state)
        return state

    def _elect_leader(self, state: PartitionState) -> None:
        """Pick a new leader from the ISR (preferred-replica order)."""
        candidates = [b for b in state.replicas if b in state.isr and b in self._live_brokers]
        if not candidates and self.allow_unclean_election:
            candidates = [b for b in state.replicas if b in self._live_brokers]
            if candidates:
                state.isr = [candidates[0]]
        state.leader = candidates[0] if candidates else None
        state.epoch += 1
        self._notify_leadership(state)

    # -- ISR maintenance ------------------------------------------------------------

    def shrink_isr(self, partition: TopicPartition, broker_id: int) -> list[int]:
        """Remove a lagging follower from the ISR; returns the new ISR."""
        state = self._partitions[partition]
        if broker_id == state.leader:
            raise ConfigError("cannot shrink the leader out of its own ISR")
        if broker_id in state.isr:
            state.isr = [b for b in state.isr if b != broker_id]
            self._notify_isr(state)
        return list(state.isr)

    def expand_isr(self, partition: TopicPartition, broker_id: int) -> list[int]:
        """Re-admit a caught-up follower to the ISR; returns the new ISR."""
        state = self._partitions[partition]
        if broker_id not in state.replicas:
            raise ConfigError(f"broker {broker_id} is not a replica of {partition}")
        if broker_id not in self._live_brokers:
            raise ConfigError(f"broker {broker_id} is not live")
        if broker_id not in state.isr:
            state.isr.append(broker_id)
            self._notify_isr(state)
        return list(state.isr)

    # -- queries -----------------------------------------------------------------------

    def partition_state(self, partition: TopicPartition) -> PartitionState:
        return self._partitions[partition]

    def leader_for(self, partition: TopicPartition) -> int | None:
        return self._partitions[partition].leader

    def isr_for(self, partition: TopicPartition) -> list[int]:
        return list(self._partitions[partition].isr)

    def epoch_for(self, partition: TopicPartition) -> int:
        return self._partitions[partition].epoch

    def live_brokers(self) -> set[int]:
        return set(self._live_brokers)

    def partitions(self) -> list[TopicPartition]:
        return list(self._partitions)

    def offline_partitions(self) -> list[TopicPartition]:
        return [tp for tp, st in self._partitions.items() if not st.online]

    def under_replicated_partitions(self) -> list[TopicPartition]:
        return [
            tp for tp, st in self._partitions.items()
            if len(st.isr) < len(st.replicas)
        ]

    # -- listeners ----------------------------------------------------------------------

    def on_leadership_change(self, listener: LeadershipListener) -> None:
        self._leadership_listeners.append(listener)

    def on_isr_change(self, listener: IsrListener) -> None:
        self._isr_listeners.append(listener)

    def _notify_leadership(self, state: PartitionState) -> None:
        for listener in self._leadership_listeners:
            listener(state.partition, state.leader, state.epoch, list(state.isr))

    def _notify_isr(self, state: PartitionState) -> None:
        for listener in self._isr_listeners:
            listener(state.partition, list(state.isr))
