"""Unit tests for the replication loop and ISR maintenance (§4.3)."""

import pytest

from repro.chaos.failpoints import SKIP, registry, skipping
from repro.common.clock import SimClock
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.replication import ReplicationManager

TP = TopicPartition("t", 0)


def make_cluster(max_lag=4) -> MessagingCluster:
    cluster = MessagingCluster(
        num_brokers=3, clock=SimClock(), replication_max_lag=max_lag
    )
    cluster.create_topic("t", num_partitions=1, replication_factor=3)
    return cluster


def entries(n):
    return [(f"k{i}", i, None, {}) for i in range(n)]


class TestCopying:
    def test_poll_copies_to_all_followers(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(5), acks=ACKS_LEADER)
        stats = cluster.replication.poll()
        assert stats.messages_copied == 10  # 5 records x 2 followers
        for broker in cluster.brokers():
            assert broker.replica(TP).log_end_offset == 5

    def test_poll_advances_follower_hw(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(5), acks=ACKS_LEADER)
        cluster.replication.poll()
        cluster.replication.poll()  # second pass piggybacks the leader HW
        for broker in cluster.brokers():
            assert broker.replica(TP).high_watermark == 5

    def test_idle_poll_copies_nothing(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(3), acks=ACKS_LEADER)
        cluster.replication.poll()
        stats = cluster.replication.poll()
        assert stats.messages_copied == 0

    def test_max_fetch_bounds_catchup_bandwidth(self):
        cluster = make_cluster()
        cluster.replication.max_fetch = 2
        cluster.produce("t", 0, entries(10), acks=ACKS_LEADER)
        stats = cluster.replication.poll()
        assert stats.messages_copied == 4  # 2 per follower

    def test_offline_follower_skipped(self):
        cluster = make_cluster()
        leader = cluster.leader_of("t", 0)
        follower = [b for b in range(3) if b != leader][0]
        cluster.kill_broker(follower)
        cluster.produce("t", 0, entries(4), acks=ACKS_LEADER)
        stats = cluster.replication.poll()
        assert stats.messages_copied == 4  # only the live follower


class TestIdleFollower:
    """A caught-up follower costs a comparison, not a fetch: same epoch, same
    end offset, the leader has that offset on record, nothing to learn about
    the high watermark, already in the ISR.  Each condition carries weight.
    A partition whose online followers all pass it is settled and costs a
    pass nothing until the cluster marks it again."""

    @staticmethod
    def settled():
        cluster = make_cluster()
        cluster.produce("t", 0, entries(5), acks=ACKS_LEADER)
        cluster.run_until_replicated()
        cluster.replication.poll()  # the slower follower learns the HW
        leader_id = cluster.leader_of("t", 0)
        follower_id = [b for b in range(3) if b != leader_id][0]
        return (
            cluster,
            cluster.broker(leader_id).replica(TP),
            cluster.broker(follower_id).replica(TP),
        )

    @staticmethod
    def fetches_in_one_pass(cluster) -> int:
        """Log reads a pass performs, counted where a replica fetch lands."""
        registry().reset_counters()
        with registry().scoped("log.read"):
            stats = cluster.replication.poll()
        # Two followers each for "t" and the offsets topic: visited or
        # settled, every online in-sync pair is still counted.
        assert stats.partitions_synced == 4
        return registry().fires("log.read")

    def test_settled_cluster_fetches_nothing(self):
        cluster, _leader, _follower = self.settled()
        assert self.fetches_in_one_pass(cluster) == 0

    def test_nothing_to_fetch_means_nothing_to_stall(self):
        """The five conditions come before the ``replication.sync`` hook: an
        armed stall reaches a pair only once a mark has given it work."""
        cluster, leader, follower = self.settled()
        registry().reset_counters()
        with registry().scoped("replication.sync", skipping):
            # Settled + armed stall: nobody is visited, the count stands.
            assert cluster.replication.poll().partitions_synced == 4
            assert registry().fires("replication.sync") == 0
            # Lagging + armed stall: the lag accumulates and the partition
            # stays pending, one hit per follower per pass.
            cluster.produce("t", 0, entries(3), acks=ACKS_LEADER)
            for _ in range(3):
                stats = cluster.replication.poll()
                assert (stats.messages_copied, stats.partitions_synced) == (0, 2)
            assert registry().fires("replication.sync") == 6
            assert (leader.log_end_offset, follower.log_end_offset) == (8, 5)
            assert cluster.replication.pending() == 1
        # One pass after the lift repairs it.
        assert cluster.replication.poll().messages_copied == 6
        assert follower.log_end_offset == leader.log_end_offset == 8

    @pytest.mark.parametrize(
        "unsettle, marks_itself",
        [
            (lambda c, leader, f: f.become_follower(leader.leader_epoch + 1), False),
            (lambda c, leader, f: f.truncate_to(4), False),
            (lambda c, leader, f: leader._follower_leo.update({f.broker_id: 4}), False),
            (lambda c, leader, f: setattr(f, "high_watermark", 4), False),
            (lambda c, leader, f: c.controller.shrink_isr(TP, f.broker_id), True),
        ],
        ids=["epoch", "end-offset", "recorded-position", "high-watermark", "isr"],
    )
    def test_any_one_condition_missing_means_a_fetch(self, unsettle, marks_itself):
        cluster, leader, follower = self.settled()
        assert cluster.replication.pending() == 0
        unsettle(cluster, leader, follower)
        # State forced by assignment goes around the cluster-level site that
        # would have marked the partition (an election, a leader append, a
        # restart); the controller's ISR change arrives through its listener.
        assert cluster.replication.pending() == marks_itself
        cluster.replication.mark(TP)
        assert self.fetches_in_one_pass(cluster) == 1  # the other one idles
        # ... and the fetch did its job: position, HW and ISR are whole again.
        assert follower.log_end_offset == leader.log_end_offset == 5
        assert leader._follower_leo[follower.broker_id] == 5
        assert follower.high_watermark == leader.high_watermark == 5
        assert len(cluster.controller.isr_for(TP)) == 3


class TestIsrMaintenance:
    def test_lagging_follower_shrunk(self):
        cluster = make_cluster(max_lag=2)
        cluster.replication.max_fetch = 1  # throttle: follower can't keep up
        cluster.produce("t", 0, entries(10), acks=ACKS_LEADER)
        stats = cluster.replication.poll()
        assert stats.isr_shrinks
        isr = cluster.controller.isr_for(TP)
        assert len(isr) == 1

    def test_caught_up_follower_re_expanded(self):
        cluster = make_cluster(max_lag=2)
        cluster.replication.max_fetch = 1
        cluster.produce("t", 0, entries(10), acks=ACKS_LEADER)
        cluster.replication.poll()  # shrinks
        cluster.replication.max_fetch = 1000
        stats = cluster.replication.poll()  # catches up fully
        assert stats.isr_expansions
        assert len(cluster.controller.isr_for(TP)) == 3

    def test_a_follower_whose_session_expired_is_not_re_expanded(self):
        cluster = make_cluster()
        cluster.controller.broker_failed(2)  # session gone, broker still up
        cluster.produce("t", 0, entries(1), acks=ACKS_ALL)
        stats = cluster.tick()  # broker 2 catches up, yet is not live
        assert cluster.broker(2).replica(TP).log_end_offset == 1
        assert not stats.isr_expansions
        assert 2 not in cluster.controller.isr_for(TP)

    def test_shrink_advances_leader_hw(self):
        cluster = make_cluster(max_lag=2)
        cluster.replication.max_fetch = 1
        cluster.produce("t", 0, entries(10), acks=ACKS_LEADER)
        cluster.replication.poll()
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        # With laggards out of the ISR, the HW no longer waits for them.
        assert leader.high_watermark == 10


class TestDivergenceReconciliation:
    def test_follower_truncates_longer_log(self):
        cluster = make_cluster()
        leader_id = cluster.leader_of("t", 0)
        follower_id = [b for b in range(3) if b != leader_id][0]
        cluster.produce("t", 0, entries(5), acks=ACKS_LEADER)
        cluster.replication.poll()
        # Simulate divergence: the follower has an un-replicated tail the
        # (new) leader never saw.
        follower = cluster.broker(follower_id).replica(TP)
        follower.log.append("zombie", {"extra": True})
        assert follower.log_end_offset == 6
        stats = cluster.replication.poll()
        assert (TP, follower_id, 1) in stats.truncations
        assert follower.log_end_offset == 5

    def test_follower_adopts_new_epoch(self):
        cluster = make_cluster()
        old_leader = cluster.leader_of("t", 0)
        cluster.produce("t", 0, entries(3), acks=ACKS_LEADER)
        cluster.replication.poll()
        cluster.kill_broker(old_leader)
        cluster.produce("t", 0, entries(2), acks=ACKS_LEADER)
        cluster.replication.poll()
        new_leader = cluster.leader_of("t", 0)
        survivor = [b for b in range(3) if b not in (old_leader, new_leader)][0]
        replica = cluster.broker(survivor).replica(TP)
        assert replica.leader_epoch == cluster.controller.epoch_for(TP)

    def test_online_deposed_leader_drops_its_tail_at_the_epoch_change(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(5), acks=ACKS_ALL)
        cluster.produce("t", 0, entries(2), acks=ACKS_LEADER)  # never copied
        old_leader = cluster.leader_of("t", 0)
        deposed = cluster.broker(old_leader).replica(TP)
        assert (deposed.log_end_offset, deposed.high_watermark) == (7, 5)
        # Its session expires while the machine stays up (a long pause).
        cluster.controller.broker_failed(old_leader)
        assert cluster.leader_of("t", 0) != old_leader
        assert deposed.role == "follower"
        assert deposed.leader_epoch == cluster.controller.epoch_for(TP)
        assert deposed.log_end_offset == deposed.high_watermark == 5
        # The new leader's writes at 5 and 6 are what it copies back.
        cluster.produce("t", 0, [("n", "new", None, {})] * 2, acks=ACKS_ALL)
        cluster.controller.broker_recovered(old_leader)
        cluster.run_until_replicated()
        assert [m.value for m in deposed.log.all_messages()][5:] == ["new", "new"]


class TestNewEpochDropsUncommittedTail:
    """Clean elections only.  Ten committed records; two more the leader
    acks alone, which follower 2 copies and follower 1 does not, so both
    stay in the ISR with the high watermark at 10.  The leader dies, broker 1
    takes three records at 10-12, then broker 1 dies.  Broker 2 must serve
    those three: it drops its uncommitted 10-11 when it takes broker 1's
    epoch, not after the new leader has written over their offsets."""

    @pytest.mark.parametrize("acks", [ACKS_ALL, ACKS_LEADER], ids=["push", "ticks"])
    def test_the_new_leaders_records_survive_the_next_failover(self, acks):
        cluster = make_cluster()
        assert cluster.leader_of("t", 0) == 0
        cluster.produce("t", 0, entries(10), acks=acks)
        cluster.run_until_replicated()
        cluster.produce(
            "t", 0, [("a", "OLD-A", None, {}), ("b", "OLD-B", None, {})],
            acks=ACKS_LEADER,
        )

        def only_follower_2(follower=None, **_ctx):
            return None if follower == 2 else SKIP

        with registry().scoped("replication.sync", only_follower_2):
            cluster.tick()
        assert cluster.broker(2).replica(TP).log_end_offset == 12
        assert cluster.controller.isr_for(TP) == [0, 1, 2]
        cluster.kill_broker(0)
        assert cluster.leader_of("t", 0) == 1
        new = [("n", f"NEW-{i}", None, {}) for i in range(3)]
        ack = cluster.produce("t", 0, new, acks=acks)
        assert (ack.base_offset, ack.last_offset) == (10, 12)
        cluster.run_until_replicated()
        cluster.kill_broker(1)
        assert cluster.leader_of("t", 0) == 2
        values = [r.value for r in cluster.fetch("t", 0, 10).records]
        assert values == ["NEW-0", "NEW-1", "NEW-2"]


class TestCommittedRecordsSurviveCleanElections:
    """A follower learns the high watermark only when it fetches, so an ISR
    member can hold committed records above its own HW.  The epoch change
    must keep them: it cuts an in-step follower at the new leader's end,
    not at its own HW."""

    @staticmethod
    def sync_only(cluster, follower_id):
        def only(follower=None, **_ctx):
            return None if follower == follower_id else SKIP

        with registry().scoped("replication.sync", only):
            cluster.tick()

    def test_an_isr_member_keeps_records_committed_above_its_hw(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(3), acks=ACKS_LEADER)
        self.sync_only(cluster, 2)  # LEO 3, but the HW it learns is 0
        self.sync_only(cluster, 1)  # the leader's HW reaches 3
        follower_2 = cluster.broker(2).replica(TP)
        assert (follower_2.log_end_offset, follower_2.high_watermark) == (3, 0)
        cluster.kill_broker(0)
        assert cluster.leader_of("t", 0) == 1
        # Committed and served by the new leader ...
        assert [r.value for r in cluster.fetch("t", 0, 0).records] == [0, 1, 2]
        assert 2 in cluster.controller.isr_for(TP)
        assert follower_2.log_end_offset == 3
        # ... so still served after the next clean failover.
        cluster.kill_broker(1)
        assert cluster.leader_of("t", 0) == 2
        assert [r.value for r in cluster.fetch("t", 0, 0).records] == [0, 1, 2]

    def test_the_next_pass_reports_the_cut_an_election_made(self):
        cluster = make_cluster()
        cluster.produce("t", 0, entries(5), acks=ACKS_ALL)
        cluster.produce("t", 0, entries(2), acks=ACKS_LEADER)
        self.sync_only(cluster, 2)  # follower 2 alone holds 5-6
        cluster.kill_broker(0)
        assert cluster.broker(2).replica(TP).log_end_offset == 5
        assert cluster.tick().truncations == [(TP, 2, 2)]
        assert cluster.tick().truncations == []
