"""Unit tests for the group coordinator (§3.1 consumer groups)."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import UnknownMemberError
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.consumer_group import GroupCoordinator


def make_coordinator(partitions=6):
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=partitions, replication_factor=1)
    cluster.create_topic("u", num_partitions=2, replication_factor=1)
    return GroupCoordinator(cluster)


class TestMembership:
    def test_join_returns_generation(self):
        gc = make_coordinator()
        assert gc.join("g", "m1", {"t"}) == 1
        assert gc.join("g", "m2", {"t"}) == 2

    def test_leave_unknown_member_rejected(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        with pytest.raises(UnknownMemberError):
            gc.leave("g", "ghost")

    def test_unknown_group_rejected(self):
        gc = make_coordinator()
        with pytest.raises(UnknownMemberError):
            gc.generation("nope")

    def test_members_listed(self):
        gc = make_coordinator()
        gc.join("g", "b", {"t"})
        gc.join("g", "a", {"t"})
        assert gc.members("g") == ["a", "b"]


class TestRangeAssignment:
    def test_single_member_gets_everything(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        assert len(gc.assignment_for("g", "m1")) == 6

    def test_assignment_is_disjoint_partition_of_topic(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t", "u"})
        gc.join("g", "m2", {"t", "u"})
        a1 = set(gc.assignment_for("g", "m1"))
        a2 = set(gc.assignment_for("g", "m2"))
        assert a1.isdisjoint(a2)
        assert a1 | a2 == set(
            TopicPartition(topic, p) for topic, n in (("t", 6), ("u", 2))
            for p in range(n)
        )
        for topic in ("t", "u"):  # balanced per topic
            counts = [sum(tp.topic == topic for tp in a) for a in (a1, a2)]
            assert abs(counts[0] - counts[1]) <= 1

    def test_uneven_split_gives_extra_to_first(self):
        gc = make_coordinator(partitions=5)
        gc.join("g", "m1", {"t"})
        gc.join("g", "m2", {"t"})
        assert len(gc.assignment_for("g", "m1")) == 3
        assert len(gc.assignment_for("g", "m2")) == 2

    def test_range_is_contiguous(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        gc.join("g", "m2", {"t"})
        partitions = sorted(p.partition for p in gc.assignment_for("g", "m1"))
        assert partitions == list(range(partitions[0], partitions[-1] + 1))

    def test_more_members_than_partitions_leaves_idle(self):
        gc = make_coordinator(partitions=2)
        for i in range(4):
            gc.join("g", f"m{i}", {"t"})
        sizes = sorted(
            len(gc.assignment_for("g", f"m{i}")) for i in range(4)
        )
        assert sizes == [0, 0, 1, 1]

    def test_subscription_respected(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        gc.join("g", "m2", {"u"})
        assert all(tp.topic == "t" for tp in gc.assignment_for("g", "m1"))
        assert all(tp.topic == "u" for tp in gc.assignment_for("g", "m2"))


class TestRebalance:
    def test_leave_redistributes(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        gc.join("g", "m2", {"t"})
        gc.leave("g", "m2")
        assert len(gc.assignment_for("g", "m1")) == 6

    def test_generation_bumps_on_every_change(self):
        gc = make_coordinator()
        g1 = gc.join("g", "m1", {"t"})
        g2 = gc.join("g", "m2", {"t"})
        gc.leave("g", "m2")
        assert gc.generation("g") == g2 + 1 > g1

    def test_rebalance_count(self):
        gc = make_coordinator()
        gc.join("g", "m1", {"t"})
        gc.join("g", "m2", {"t"})
        gc.leave("g", "m1")
        assert gc.rebalance_count("g") == 3

    def test_groups_are_independent(self):
        gc = make_coordinator()
        gc.join("g1", "m1", {"t"})
        gc.join("g2", "m1", {"t"})
        assert len(gc.assignment_for("g1", "m1")) == 6
        assert len(gc.assignment_for("g2", "m1")) == 6
        assert gc.groups() == ["g1", "g2"]

