"""Producer state lives and dies with the log it describes.

Dedup windows, open transactions and aborted runs are a fold of the log's
batch index, so they shrink when the log does.  These are the cases where
the per-record bookkeeping this replaced did not: a truncation that left a
phantom transaction or sequence behind after an unclean election, a
follower that copied after compaction and never saw the marker, and state
that only ever grew under retention.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.partition import DEDUP_WINDOW_BATCHES
from repro.messaging.producer import Producer
from repro.messaging.topic import CLEANUP_COMPACT, TopicConfig
from repro.messaging.transactions import TransactionalProducer
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig

TP = TopicPartition("t", 0)


def make_cluster(**topic_options) -> MessagingCluster:
    cluster = MessagingCluster(
        num_brokers=3, clock=SimClock(), allow_unclean_election=True
    )
    cluster.create_topic(TopicConfig(name="t", replication_factor=3, **topic_options))
    return cluster


def committed_values(cluster):
    result = cluster.fetch("t", 0, 0, max_messages=10_000, isolation="read_committed")
    return [r.value for r in result.records]


def entries(*values):
    return [(f"k-{value}", value, None, {}) for value in values]


class TestUncleanElectionTruncatesProducerState:
    """An unclean election truncates producer state.  Broker 2 misses a
    batch, brokers 0 and 1 die holding it, broker 2 is crowned uncleanly
    with the shorter log, broker 1 returns and truncates the batch away —
    then leads."""

    def lose_the_tail(self, cluster, write_the_tail):
        Producer(cluster).send("t", "before")
        cluster.run_until_replicated()
        cluster.kill_broker(2)
        write_the_tail()
        cluster.tick()  # broker 1 holds the tail too
        assert cluster.broker(1).replica(TP).log_end_offset == 3
        cluster.kill_broker(0)
        cluster.kill_broker(1)
        cluster.restart_broker(2)
        assert cluster.leader_of("t", 0) == 2  # unclean: log end 1
        cluster.restart_broker(1)
        cluster.run_until_replicated()
        assert cluster.broker(1).replica(TP).log_end_offset == 1  # truncated

    def hand_leadership_to_broker_1(self, cluster):
        cluster.run_until_replicated()
        cluster.kill_broker(2)
        assert cluster.leader_of("t", 0) == 1

    def test_no_log_holds_the_transaction_so_nothing_pins_the_lso(self):
        cluster = make_cluster()
        lost = TransactionalProducer(cluster, "lost")

        def open_a_transaction():
            lost.begin()
            lost.send("t", "a")
            lost.send("t", "b")

        self.lose_the_tail(cluster, open_a_transaction)
        Producer(cluster).send("t", "after-1")
        self.hand_leadership_to_broker_1(cluster)
        Producer(cluster).send("t", "after-2")
        # The transaction's producer never came back to abort it, and no
        # replica holds a record of it: the new leader has nothing to wait for.
        leader = cluster.broker(1).replica(TP)
        assert leader.last_stable_offset == leader.high_watermark == 3
        assert committed_values(cluster) == ["before", "after-1", "after-2"]

    def test_a_retry_of_the_truncated_batch_is_appended_not_answered(self):
        cluster = make_cluster()
        batch = entries("mine-1", "mine-2")

        def send_the_batch():
            ack = cluster.produce(
                "t", 0, batch, acks=ACKS_LEADER, producer_id=7, producer_seq=0
            )
            assert (ack.base_offset, ack.last_offset) == (1, 2)

        self.lose_the_tail(cluster, send_the_batch)
        # Another producer's records now sit where the lost batch sat.
        cluster.produce(
            "t", 0, entries("theirs-1", "theirs-2"), producer_id=8, producer_seq=0
        )
        self.hand_leadership_to_broker_1(cluster)
        retry = cluster.produce(
            "t", 0, batch, acks=ACKS_LEADER, producer_id=7, producer_seq=0
        )
        # ``duplicate=True`` with offsets (1, 2) would be an acked loss:
        # those offsets hold the other producer's records.
        assert not retry.duplicate
        assert (retry.base_offset, retry.last_offset) == (3, 4)
        assert committed_values(cluster) == [
            "before", "theirs-1", "theirs-2", "mine-1", "mine-2",
        ]


class TestFollowerCopiesAfterCompaction:
    def test_a_marker_compaction_removed_still_closes_its_transaction(self):
        """Batch entries ship from the fetch offset, not from the first
        surviving record: a follower that was away while the leader compacted
        an abort marker out of a sealed segment still learns the verdict."""
        cluster = make_cluster(
            cleanup_policy=CLEANUP_COMPACT, log=LogConfig(segment_max_messages=2)
        )
        aborted = TransactionalProducer(cluster, "aborted")
        aborted.begin()
        aborted.send("t", "never", key="a")
        cluster.kill_broker(2)  # holding offset 0: its next fetch is from 1
        aborted.abort()  # marker at offset 1: key None, sealed with offset 0
        kept = TransactionalProducer(cluster, "kept")
        kept.begin()
        kept.send("t", "kept", key="b")
        kept.commit()  # a newer None-keyed record: the old marker is garbage
        Producer(cluster).send("t", "tail", key="c")
        for broker_id in (0, 1):
            cluster.broker(broker_id).run_compaction()
        leader_log = cluster.broker(cluster.leader_of("t", 0)).replica(TP).log
        assert 1 not in [m.offset for m in leader_log.all_messages()]

        assert cluster.broker(2).replica(TP).log_end_offset == 1
        cluster.restart_broker(2)
        cluster.run_until_replicated()
        cluster.kill_broker(0)
        cluster.kill_broker(1)
        assert cluster.leader_of("t", 0) == 2
        late = cluster.broker(2).replica(TP)
        assert late.log.batches() == leader_log.batches()
        assert late.last_stable_offset == late.high_watermark
        assert committed_values(cluster) == ["kept", "tail"]


class TestProducerStateIsBounded:
    """Producer state shrinks with the log: a soak through a partition with
    retention."""

    BATCHES = 2_000
    ABORTS = 200
    RETAINED_BATCHES = 40  # what four seconds of retention hold, roughly

    def test_index_window_and_aborted_runs_stay_bounded(self):
        cluster = make_cluster(
            retention=RetentionConfig(retention_seconds=4.0),
            log=LogConfig(segment_max_messages=8),
        )
        clock = cluster.clock
        # Idempotent producers 1-3 by hand (explicit ids and sequences: the
        # client's ids come from a process-wide counter), 99 a one-shot.
        first_batch = entries("first-0", "first-1")
        cluster.produce("t", 0, first_batch, producer_id=99, producer_seq=0)
        sizes = []
        for n in range(self.BATCHES):
            cluster.produce(
                "t", 0, [(f"k{n % 7}", f"v{n}", None, {}), (f"k{n % 5}", f"w{n}", None, {})],
                producer_id=1 + n % 3, producer_seq=n // 3,
            )
            every = self.BATCHES // self.ABORTS
            if n % every == 0:
                doomed = TransactionalProducer(cluster, f"txn-{n // every % 4}")
                doomed.begin()
                doomed.send("t", f"never-{n}")
                doomed.abort()
            clock.advance(0.1)
            if n % 50 == 49:
                cluster.run_until_replicated()
                for broker in cluster.brokers():
                    broker.run_retention()
                sizes.append(self.state_sizes(cluster))
        # 3 idempotent + 4 transactional + the one-shot producer 99.
        live_pids = 8
        bound = DEDUP_WINDOW_BATCHES * live_pids + 3 * self.RETAINED_BATCHES
        assert max(max(size) for size in sizes[2:]) <= bound
        # Flat, not growing: the last quarter is no larger than the second.
        quarter = len(sizes) // 4
        assert max(map(max, sizes[-quarter:])) <= max(map(max, sizes[quarter:2 * quarter]))

        # An idle producer's window outlived its records, so its replay is
        # still answered; a replay older than a busy producer's window is
        # refused, never re-appended.
        end = cluster.log_end_offset(TP)
        assert cluster.beginning_offset(TP) > 2
        replay = cluster.produce("t", 0, first_batch, producer_id=99, producer_seq=0)
        assert replay.duplicate and (replay.base_offset, replay.last_offset) == (0, 1)
        with pytest.raises(ConfigError):
            cluster.produce("t", 0, entries("stale"), producer_id=1, producer_seq=0)
        assert cluster.log_end_offset(TP) == end

    @staticmethod
    def state_sizes(cluster):
        """Per replica: index entries, windowed entries, hidden runs."""
        sizes = []
        for broker in cluster.brokers():
            replica = broker.replica(TP)
            sizes.append(len(replica.log.batches()))
            sizes.append(sum(len(window) for window in replica._windows.values()))
            sizes.append(len(replica._hidden))
        return sizes
