"""Property-based tests for consumer-group assignment invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.messaging.cluster import MessagingCluster
from repro.messaging.consumer_group import GroupCoordinator

member_actions = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("leave"), st.integers(min_value=0, max_value=5)),
    ),
    min_size=1,
    max_size=20,
)

partition_counts = st.integers(min_value=1, max_value=8)


def apply_actions(actions, partitions):
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=partitions, replication_factor=1)
    gc = GroupCoordinator(cluster)
    members: set[str] = set()
    for action, idx in actions:
        member = f"m{idx}"
        if action == "join":
            gc.join("g", member, {"t"})
            members.add(member)
        elif member in members:
            gc.leave("g", member)
            members.remove(member)
    return cluster, gc, members


class TestAssignmentInvariants:
    @given(member_actions, partition_counts)
    @settings(max_examples=80, deadline=None)
    def test_partitions_covered_exactly_once(self, actions, partitions):
        cluster, gc, members = apply_actions(actions, partitions)
        if not members:
            return
        assigned = []
        for member in members:
            assigned.extend(gc.assignment_for("g", member))
        assert len(assigned) == partitions
        assert len(set(assigned)) == partitions  # disjoint

    @given(member_actions, partition_counts)
    @settings(max_examples=60, deadline=None)
    def test_assignment_balanced(self, actions, partitions):
        _cluster, gc, members = apply_actions(actions, partitions)
        if not members:
            return
        sizes = [len(gc.assignment_for("g", m)) for m in members]
        assert max(sizes) - min(sizes) <= 1

    @given(member_actions, partition_counts)
    @settings(max_examples=60, deadline=None)
    def test_generation_strictly_increases(self, actions, partitions):
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=partitions, replication_factor=1)
        gc = GroupCoordinator(cluster)
        members: set[str] = set()
        last_generation = 0
        for action, idx in actions:
            member = f"m{idx}"
            if action == "join":
                gc.join("g", member, {"t"})
                members.add(member)
            elif member in members:
                gc.leave("g", member)
                members.remove(member)
            else:
                continue
            generation = gc.generation("g")
            assert generation > last_generation
            last_generation = generation

    @given(member_actions, partition_counts)
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_at_every_step_under_churn(self, actions, partitions):
        """Disjointness, completeness, and generation monotonicity checked
        after *every* membership change of a random join/leave storm — not
        just at the end state."""
        cluster = MessagingCluster(num_brokers=1, clock=SimClock())
        cluster.create_topic("t", num_partitions=partitions, replication_factor=1)
        gc = GroupCoordinator(cluster)
        members: set[str] = set()
        last_generation = 0
        for action, idx in actions:
            member = f"m{idx}"
            if action == "join":
                gc.join("g", member, {"t"})
                members.add(member)
            elif member in members:
                gc.leave("g", member)
                members.remove(member)
            else:
                continue
            generation = gc.generation("g")
            assert generation > last_generation
            last_generation = generation
            assigned = []
            for m in members:
                assigned.extend(gc.assignment_for("g", m))
            if members:
                assert len(assigned) == partitions
                assert len(set(assigned)) == partitions
                sizes = [len(gc.assignment_for("g", m)) for m in members]
                assert max(sizes) - min(sizes) <= 1
