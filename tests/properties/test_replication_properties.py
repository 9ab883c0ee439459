"""Property-based tests for replication and delivery guarantees (§4.3).

The paper's durability contract: with acks=all, an acknowledged message
survives any N-1 failures of the ISR; delivery is at-least-once; and
per-partition order is total.  These properties are checked under randomized
produce / kill / restart / tick schedules.

The replication loop skips the fetch for a follower it can show is caught
up; :class:`TestIdleFollowerShortCut` holds that against the loop that always
fetches, kept below as the reference.
"""

from types import MethodType

from hypothesis import example, given, settings, strategies as st

from repro.chaos.failpoints import SKIP, failpoint, registry
from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    MessagingError,
    NotEnoughReplicasError,
    NotLeaderForPartitionError,
    OffsetOutOfRangeError,
)
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer

TP = TopicPartition("t", 0)

#: A schedule step: produce a batch, kill a broker, restart one, or tick.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("kill"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("restart"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


def run_schedule(schedule):
    """Execute a schedule; returns (cluster, acked payload list)."""
    cluster = MessagingCluster(
        num_brokers=3, clock=SimClock(), replication_max_lag=2
    )
    cluster.create_topic(
        "t", num_partitions=1, replication_factor=3, min_insync_replicas=2
    )
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL, max_retries=2))
    acked = []
    counter = 0
    for action, arg in schedule:
        if action == "produce":
            for _ in range(arg):
                payload = counter
                counter += 1
                try:
                    ack = producer.send("t", payload, key=f"k{payload % 3}")
                except (MessagingError, NotEnoughReplicasError,
                        BrokerUnavailableError):
                    continue  # re-buffered, not acked: no guarantee yet
                if ack is not None:
                    acked.append(payload)
                # ack is None: held back behind a re-buffered batch.
        elif action == "kill":
            live = cluster.controller.live_brokers()
            if len(live) > 1 and arg in live:
                cluster.kill_broker(arg)
        elif action == "restart":
            if arg not in cluster.controller.live_brokers():
                cluster.restart_broker(arg)
        else:
            cluster.tick(0.1)
    # Recover everything and settle.
    for broker_id in range(3):
        if broker_id not in cluster.controller.live_brokers():
            cluster.restart_broker(broker_id)
    cluster.run_until_replicated()
    # Failed sends were re-buffered, not dropped: after full recovery a
    # flush MUST deliver them, and their acks then claim the durability
    # guarantee like any other.
    if producer.pending():
        pending = [
            value
            for batches in producer._failed_batches.values()
            for _seq, entries in batches
            for (_k, value, _ts, _h) in entries
        ] + [
            value
            for buffer in producer._buffers.values()
            for (_k, value, _ts, _h) in buffer
        ]
        producer.flush()
        acked.extend(pending)
        cluster.run_until_replicated()
    return cluster, acked


class TestDurability:
    @given(steps)
    @settings(max_examples=40, deadline=None)
    def test_acked_messages_never_lost(self, schedule):
        cluster, acked = run_schedule(schedule)
        records, _ = cluster.fetch("t", 0, 0, max_messages=100000)
        delivered = [r.value for r in records]
        for payload in acked:
            assert payload in delivered, (
                f"acked payload {payload} lost; delivered={delivered}"
            )

    @given(steps)
    @settings(max_examples=40, deadline=None)
    def test_per_partition_order_is_produce_order(self, schedule):
        cluster, acked = run_schedule(schedule)
        records, _ = cluster.fetch("t", 0, 0, max_messages=100000)
        delivered = [r.value for r in records]
        # At-least-once: drop duplicates, keep first occurrence.
        seen = set()
        deduped = []
        for value in delivered:
            if value not in seen:
                seen.add(value)
                deduped.append(value)
        acked_in_delivered = [v for v in deduped if v in set(acked)]
        assert acked_in_delivered == sorted(acked_in_delivered)

    @given(steps)
    @settings(max_examples=30, deadline=None)
    def test_replicas_converge_to_identical_logs(self, schedule):
        cluster, _acked = run_schedule(schedule)
        cluster.run_until_replicated()
        logs = []
        for broker in cluster.brokers():
            if broker.hosts(TP):
                logs.append(
                    [(m.offset, m.key) for m in broker.replica(TP).log.all_messages()]
                )
        leader_id = cluster.leader_of("t", 0)
        leader_log = [
            (m.offset, m.key)
            for m in cluster.broker(leader_id).replica(TP).log.all_messages()
        ]
        for log in logs:
            # Followers hold a prefix of (or exactly) the leader's log.
            assert log == leader_log[: len(log)]

    @given(steps)
    @settings(max_examples=30, deadline=None)
    def test_hw_never_exceeds_any_isr_leo(self, schedule):
        cluster, _acked = run_schedule(schedule)
        leader_id = cluster.leader_of("t", 0)
        leader = cluster.broker(leader_id).replica(TP)
        for broker_id in cluster.controller.isr_for(TP):
            replica = cluster.broker(broker_id).replica(TP)
            assert leader.high_watermark <= replica.log_end_offset


# -- the idle-follower short cut against the loop that always fetches ---------

WIRE_BYTES = "messaging.cluster.bytes_on_wire"


def reference_sync_follower(self, partition, leader_id, follower_id, stats):
    """``ReplicationManager._sync_follower`` as it was before the short cut:
    every online follower fetches from its leader on every pass, caught up or
    not.  Shares nothing with the method it stands in for."""
    if failpoint("replication.sync", partition=partition, follower=follower_id) is SKIP:
        return
    controller = self.cluster.controller
    leader_broker = self.cluster.broker(leader_id)
    follower_broker = self.cluster.broker(follower_id)
    leader_replica = leader_broker.replica(partition)
    follower_replica = follower_broker.replica(partition)

    if follower_replica.leader_epoch < leader_replica.leader_epoch:
        safe_point = min(
            follower_replica.high_watermark, leader_replica.log_end_offset
        )
        removed = follower_replica.truncate_to(safe_point)
        if removed:
            stats.truncations.append((partition, follower_id, removed))
        follower_replica.become_follower(leader_replica.leader_epoch)
    elif follower_replica.log_end_offset > leader_replica.log_end_offset:
        removed = follower_replica.truncate_to(leader_replica.log_end_offset)
        if removed:
            stats.truncations.append((partition, follower_id, removed))

    fetch_offset = follower_replica.log_end_offset
    try:
        messages, leader_leo, leader_hw, frames, stored_bytes, batches = (
            leader_broker.replica_fetch(
                partition, fetch_offset, follower_id, self.max_fetch
            )
        )
    except (
        BrokerUnavailableError,
        NotLeaderForPartitionError,
        OffsetOutOfRangeError,
    ):
        return
    if messages:
        follower_replica.replicate_batch(messages, frames, batches)
        stats.messages_copied += len(messages)
        self.cluster.metrics.counter(WIRE_BYTES).increment(stored_bytes)
        leader_hw = leader_replica.record_follower_position(
            follower_id, follower_replica.log_end_offset
        )
    follower_replica.update_high_watermark(leader_hw)
    stats.partitions_synced += 1

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


PARTITIONS = (TopicPartition("t", 0), TopicPartition("t", 1))

brokers = st.integers(min_value=0, max_value=2)
produces = st.tuples(
    st.just("produce"),
    st.integers(0, 1),  # partition
    st.integers(1, 6),  # records, flushed as one batch
    st.sampled_from([ACKS_LEADER, ACKS_ALL]),
    st.booleans(),  # compressed
)
#: produce / tick / crash / restart / stall one follower's
#: ``replication.sync`` (None lifts the stall).  Weighted towards traffic.
chaos_steps = st.lists(
    st.one_of(
        produces, produces, produces,
        st.just(("tick",)), st.just(("tick",)), st.just(("tick",)),
        st.tuples(st.just("kill"), brokers),
        st.tuples(st.just("restart"), brokers),
        st.tuples(st.just("stall"), st.one_of(st.none(), brokers)),
    ),
    min_size=8,
    max_size=60,
)

#: Schedules that are sure to reach what random ones reach rarely.  Broker
#: ``p`` leads partition ``p`` at the start; catch-up moves 3 records a pass.
LAGGARD_SHRUNK_THEN_READMITTED = (
    [("stall", 1)]
    + [("produce", 0, 6, ACKS_LEADER, False), ("produce", 0, 6, ACKS_LEADER, True)]
    + [("tick",), ("tick",), ("stall", None)]
    + [("tick",)] * 3
    + [("produce", 0, 2, ACKS_ALL, False)]
)
DEPOSED_LEADER_TRUNCATES = [
    ("produce", 0, 4, ACKS_LEADER, True),
    ("kill", 0),
    ("produce", 0, 2, ACKS_ALL, False),
    ("tick",),
    ("restart", 0),
]
LAST_ISR_MEMBER_DIES = [
    ("kill", 1),
    ("kill", 2),
    ("produce", 0, 3, ACKS_LEADER, False),
    ("restart", 1),
    ("kill", 0),  # unclean: broker 1 leads with nothing; clean: offline
    ("produce", 0, 2, ACKS_LEADER, False),
    ("tick",),
    ("restart", 0),
    ("tick",),
    ("produce", 0, 1, ACKS_ALL, True),
]


class Driven:
    """One rf=3 cluster plus the four producers a schedule sends through."""

    def __init__(self, unclean: bool, reference: bool) -> None:
        self.cluster = MessagingCluster(
            num_brokers=3,
            clock=SimClock(),
            replication_max_lag=2,
            allow_unclean_election=unclean,
        )
        self.cluster.create_topic("t", num_partitions=2, replication_factor=3)
        replication = self.cluster.replication
        replication.max_fetch = 3  # a backlog takes passes: lag, shrink, expand
        if reference:
            replication._sync_follower = MethodType(
                reference_sync_follower, replication
            )
        self.producers = {
            (acks, compressed): Producer(
                self.cluster,
                ProducerConfig(
                    acks=acks,
                    linger_messages=64,
                    max_retries=1,
                    retry_jitter_seed=11,
                    compression="zlib:6" if compressed else "none",
                ),
            )
            for acks in (ACKS_LEADER, ACKS_ALL)
            for compressed in (False, True)
        }
        self.sent = 0

    def step(self, step, stalled):
        """Run one schedule step; returns what it visibly produced."""

        def stall(follower=None, **_ctx):
            return SKIP if follower == stalled else None

        cluster = self.cluster
        with registry().scoped("replication.sync", stall):
            if step[0] == "produce":
                _, partition, count, acks, compressed = step
                producer = self.producers[acks, compressed]
                try:
                    for _ in range(count):
                        self.sent += 1
                        producer.send(
                            "t", {"n": self.sent}, key=f"k{self.sent % 5}",
                            partition=partition,
                        )
                    return producer.flush()  # ProduceAcks compare by value
                except MessagingError as exc:
                    return type(exc).__name__
            if step[0] == "tick":
                return cluster.tick(0.1)
            live = cluster.controller.live_brokers()
            if step[0] == "kill" and step[1] in live and len(live) > 1:
                cluster.kill_broker(step[1])
            elif step[0] == "restart" and step[1] not in live:
                cluster.restart_broker(step[1])
        return None

    def snapshot(self):
        """Everything replication decides, per partition and per replica."""
        cluster = self.cluster
        out = [cluster.clock.now(), cluster.metrics.counter(WIRE_BYTES).value]
        for tp in PARTITIONS:
            state = cluster.controller.partition_state(tp)
            out.append((state.leader, state.epoch, list(state.isr)))
            for broker in cluster.brokers():
                replica = broker.replica(tp)
                log = replica.log
                out.append((
                    replica.role,
                    replica.leader_epoch,
                    replica.log_end_offset,
                    replica.high_watermark,
                    dict(replica._follower_leo),
                    list(replica._isr),
                    [
                        (m.offset, m.key, m.value, m.timestamp, m.headers,
                         m.size, m.stored_size)
                        for m in log.all_messages()
                    ],
                    [(base, last, frame.wire_bytes)
                     for base, last, frame in log.frames_between(0, 1 << 62)],
                ))
        return out


class TestIdleFollowerShortCut:
    @given(chaos_steps, st.booleans())
    @example(LAGGARD_SHRUNK_THEN_READMITTED, False)
    @example(DEPOSED_LEADER_TRUNCATES, False)
    @example(LAST_ISR_MEMBER_DIES, True)
    @example(LAST_ISR_MEMBER_DIES, False)
    @settings(max_examples=150, deadline=None)
    def test_same_cluster_as_the_loop_that_always_fetches(self, schedule, unclean):
        registry().disarm_all()
        short_cut = Driven(unclean, reference=False)
        always_fetch = Driven(unclean, reference=True)
        stalled = None
        # Settle at the end: recover every broker, lift the stall, drain.
        settle = [("restart", b) for b in range(3)] + [("stall", None)]
        settle += [("tick",)] * 6
        for step in schedule + settle:
            if step[0] == "stall":
                stalled = step[1]
                continue
            assert short_cut.step(step, stalled) == always_fetch.step(step, stalled), step
            assert short_cut.snapshot() == always_fetch.snapshot(), step
