"""Consumer groups: queue semantics within, pub/sub across (§3.1).

"Consumers are divided into consumer groups ... At the level of consumer
groups, the messaging layer behaves as a publish/subscribe system ...
However, only one consumer within each consumer group receives a given
message, i.e. the system behaves as a queue for the consumers within a
consumer group."

The group coordinator realizes this by giving each group a disjoint
partition assignment over its members: every partition of a subscribed topic
is owned by exactly one member, so within the group each message is
delivered once, while independent groups each receive the full stream.

Rebalancing is *eager*: any membership change bumps the group generation and
recomputes the whole assignment with the range strategy (per topic, the
partition range split contiguously over the subscribers); members detect
the generation change on their next poll and re-fetch their assignment (E9
exercises scaling a group up and down).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import UnknownMemberError
from repro.common.records import TopicPartition


@dataclass
class GroupState:
    """Coordinator-side state of one consumer group."""

    group: str
    generation: int = 0
    members: dict[str, set[str]] = field(default_factory=dict)  # member -> topics
    assignment: dict[str, list[TopicPartition]] = field(default_factory=dict)
    rebalances: int = 0


class GroupCoordinator:
    """Tracks group membership and computes partition assignments."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._groups: dict[str, GroupState] = {}

    # -- membership ----------------------------------------------------------------

    def join(self, group: str, member_id: str, topics: set[str] | list[str]) -> int:
        """Add/refresh a member; triggers a rebalance.  Returns generation."""
        state = self._groups.setdefault(group, GroupState(group))
        state.members[member_id] = set(topics)
        self._rebalance(state)
        return state.generation

    def leave(self, group: str, member_id: str) -> None:
        """Remove a member; its partitions are redistributed."""
        state = self._groups.get(group)
        if state is None or member_id not in state.members:
            raise UnknownMemberError(f"{member_id} not in group {group}")
        del state.members[member_id]
        state.assignment.pop(member_id, None)
        self._rebalance(state)

    # -- assignment -----------------------------------------------------------------

    def _rebalance(self, state: GroupState) -> None:
        state.generation += 1
        state.rebalances += 1
        state.assignment = {member: [] for member in state.members}
        if state.members:
            self._assign_range(state, sorted(state.members))

    def _assign_range(self, state: GroupState, members: list[str]) -> None:
        """Per topic, split the partition range contiguously over subscribers."""
        topics = sorted({t for subs in state.members.values() for t in subs})
        for topic in topics:
            subscribers = [m for m in members if topic in state.members[m]]
            if not subscribers:
                continue
            partitions = self.cluster.partitions_of(topic)
            per_member = len(partitions) // len(subscribers)
            extra = len(partitions) % len(subscribers)
            cursor = 0
            for i, member in enumerate(subscribers):
                take = per_member + (1 if i < extra else 0)
                state.assignment[member].extend(partitions[cursor : cursor + take])
                cursor += take

    # -- queries --------------------------------------------------------------------

    def assignment_for(self, group: str, member_id: str) -> list[TopicPartition]:
        state = self._state(group)
        if member_id not in state.members:
            raise UnknownMemberError(f"{member_id} not in group {group}")
        return list(state.assignment.get(member_id, []))

    def generation(self, group: str) -> int:
        return self._state(group).generation

    def members(self, group: str) -> list[str]:
        return sorted(self._state(group).members)

    def rebalance_count(self, group: str) -> int:
        return self._state(group).rebalances

    def _state(self, group: str) -> GroupState:
        state = self._groups.get(group)
        if state is None:
            raise UnknownMemberError(f"unknown group {group}")
        return state

    def groups(self) -> list[str]:
        return sorted(self._groups)
