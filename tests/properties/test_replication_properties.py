"""Property-based tests for replication and delivery guarantees (§4.3).

The paper's durability contract: with acks=all, an acknowledged message
survives any N-1 failures of the ISR; delivery is at-least-once; and
per-partition order is total.  These properties are checked under randomized
produce / kill / restart / tick schedules.

The replication loop visits only the partitions the cluster marked, and
skips the fetch for a follower it can show is caught up.  The loop it
replaced — every partition x every follower, every pass — is kept below as
the reference: :class:`TestPendingSet` holds the pending set against it, and
:class:`TestIdleFollowerShortCut` holds both short cuts against the same scan
with the fetch always made.
"""

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
from repro.messaging.replication import ReplicationStats

TP = TopicPartition("t", 0)


def examples(tier1: int) -> int:
    """Examples per property: ``tier1`` in tier-1, as deep as the profile
    asks under ``--hypothesis-profile=deep`` (CI's ``determinism`` job)."""
    deep = settings.default.max_examples
    return deep if deep > 100 else tier1


#: A schedule step: produce a batch with acks=all or with acks=leader, kill
#: a broker, restart one, tick, or tick with only one broker following (the
#: other followers stall), which leaves the followers' logs unequal.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("produce"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("produce_leader"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("kill"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("restart"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("tick"), st.just(0)),
        st.tuples(st.just("sync"), st.integers(min_value=0, max_value=2)),
    ),
    min_size=1,
    max_size=25,
)

#: Clean elections only, yet at the parent of the one copy step two records
#: acked with acks=all were lost: follower 2 alone copied two acks=leader
#: records, kept them across the epoch change, and served them after the
#: next failover in place of the new leader's first two.
UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH = [
    ("produce", 5), ("produce", 5), ("tick", 0), ("tick", 0),
    ("produce_leader", 2), ("sync", 2),
    ("kill", 0), ("produce", 3), ("tick", 0), ("kill", 1),
]


#: Clean elections only, yet at the parent of the in-step cut three
#: committed records were lost with an ISR member alive: follower 2 copied
#: them first and so learned a high watermark of 0, and dropped them at the
#: epoch change although the new leader served them as committed.
COMMITTED_ABOVE_A_FOLLOWERS_HW = [
    ("produce_leader", 3), ("sync", 2), ("sync", 1), ("kill", 0), ("kill", 1),
]


def run_schedule(schedule, observe=None):
    """Execute a schedule; returns (cluster, acked payload list).
    ``observe(cluster)`` runs after every step."""
    cluster = MessagingCluster(
        num_brokers=3, clock=SimClock(), replication_max_lag=2
    )
    cluster.create_topic(
        "t", num_partitions=1, replication_factor=3, min_insync_replicas=2
    )
    producer = Producer(cluster, ProducerConfig(acks=ACKS_ALL, max_retries=2))
    # Its acks promise nothing past the leader: its records are not `acked`.
    leader_only = Producer(cluster, ProducerConfig(acks=ACKS_LEADER, max_retries=2))
    acked = []
    counter = 0
    for action, arg in schedule:
        if action in ("produce", "produce_leader"):
            sender = producer if action == "produce" else leader_only
            for _ in range(arg):
                payload = counter
                counter += 1
                try:
                    ack = sender.send("t", payload, key=f"k{payload % 3}")
                except (MessagingError, NotEnoughReplicasError,
                        BrokerUnavailableError):
                    continue  # re-buffered, not acked: no guarantee yet
                if ack is not None and sender is producer:
                    acked.append(payload)
                # ack is None: held back behind a re-buffered batch.
        elif action == "sync":

            def only_this_follower(follower=None, **_ctx):
                return None if follower == arg else SKIP

            with registry().scoped("replication.sync", only_this_follower):
                cluster.tick(0.1)
        elif action == "kill":
            live = cluster.controller.live_brokers()
            if len(live) > 1 and arg in live:
                cluster.kill_broker(arg)
        elif action == "restart":
            if arg not in cluster.controller.live_brokers():
                cluster.restart_broker(arg)
        else:
            cluster.tick(0.1)
        if observe is not None:
            observe(cluster)
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
    leader_only.flush()
    cluster.run_until_replicated()
    return cluster, acked


class TestDurability:
    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(40), deadline=None)
    def test_acked_messages_never_lost(self, schedule):
        cluster, acked = run_schedule(schedule)
        records = cluster.fetch("t", 0, 0, max_messages=100000).records
        delivered = [r.value for r in records]
        for payload in acked:
            assert payload in delivered, (
                f"acked payload {payload} lost; delivered={delivered}"
            )

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @example(COMMITTED_ABOVE_A_FOLLOWERS_HW)
    @settings(max_examples=examples(40), deadline=None)
    def test_committed_records_never_change(self, schedule):
        """Whatever a consumer could read — below the leader's HW, acks=all
        or not — stays at its offset, while the schedule runs and after."""
        committed = {}

        def observe(cluster):
            leader_id = cluster.leader_of("t", 0)
            if leader_id is None:
                return
            leader = cluster.broker(leader_id).replica(TP)
            for m in leader.log.all_messages():
                if m.offset < leader.high_watermark:
                    assert committed.setdefault(m.offset, m.value) == m.value, (
                        f"offset {m.offset}: {committed[m.offset]} became {m.value}"
                    )

        cluster, _acked = run_schedule(schedule, observe)
        observe(cluster)
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        assert leader.high_watermark >= len(committed)  # offsets 0..n-1

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(40), deadline=None)
    def test_per_partition_order_is_produce_order(self, schedule):
        cluster, acked = run_schedule(schedule)
        records = cluster.fetch("t", 0, 0, max_messages=100000).records
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
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(30), deadline=None)
    def test_replicas_converge_to_identical_logs(self, schedule):
        cluster, _acked = run_schedule(schedule)
        cluster.run_until_replicated()
        # Values, not keys: every payload is unique, three keys are not.
        logs = []
        for broker in cluster.brokers():
            if broker.hosts(TP):
                logs.append(
                    [(m.offset, m.value) for m in broker.replica(TP).log.all_messages()]
                )
        leader_id = cluster.leader_of("t", 0)
        leader_log = [
            (m.offset, m.value)
            for m in cluster.broker(leader_id).replica(TP).log.all_messages()
        ]
        for log in logs:
            # Followers hold a prefix of (or exactly) the leader's log.
            assert log == leader_log[: len(log)]

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(30), deadline=None)
    def test_hw_never_exceeds_any_isr_leo(self, schedule):
        cluster, _acked = run_schedule(schedule)
        leader_id = cluster.leader_of("t", 0)
        leader = cluster.broker(leader_id).replica(TP)
        for broker_id in cluster.controller.isr_for(TP):
            replica = cluster.broker(broker_id).replica(TP)
            assert leader.high_watermark <= replica.log_end_offset


# -- the pending set and the idle short cut against the loop that scans it all --

WIRE_BYTES = "messaging.cluster.bytes_on_wire"

EXAMPLES = examples(60)


def caught_up(cluster, partition, leader_id, follower_id) -> bool:
    """The five conditions under which a follower has nothing to do."""
    leader = cluster.broker(leader_id).replica(partition)
    follower = cluster.broker(follower_id).replica(partition)
    return (
        follower.leader_epoch == leader.leader_epoch
        and follower.log_end_offset == leader.log_end_offset
        and leader._follower_leo.get(follower_id) == follower.log_end_offset
        and follower.high_watermark >= leader.high_watermark
        and follower_id in cluster.controller.isr_for(partition)
    )


def reference_poll(self, always_fetch):
    """``ReplicationManager.poll`` as it was before the pending set: every
    partition of the controller x every online follower, on every pass.
    Cuts made since the last pass (elections, pushes) are this pass's too."""
    stats = ReplicationStats(truncations=self._truncations)
    self._truncations = []
    controller = self.cluster.controller
    for partition in controller.partitions():
        state = controller.partition_state(partition)
        if state.leader is None:
            continue
        if not self.cluster.broker(state.leader).online:
            continue
        for follower_id in state.replicas:
            if follower_id == state.leader:
                continue
            if not self.cluster.broker(follower_id).online:
                continue
            reference_sync_follower(
                self, partition, state.leader, follower_id, stats, always_fetch
            )
    return stats


def reference_sync_follower(
    self, partition, leader_id, follower_id, stats, always_fetch
):
    """``ReplicationManager._sync_follower`` as the full scan ran it: a
    follower with nothing to fetch has nothing to stall, and (unless
    ``always_fetch``, the loop from before the short cut) is counted without
    a fetch.  Returns nothing: the scan settles no one."""
    idle = caught_up(self.cluster, partition, leader_id, follower_id)
    if idle and not always_fetch:
        stats.partitions_synced += 1
        return
    if not idle and (
        failpoint("replication.sync", partition=partition, follower=follower_id)
        is SKIP
    ):
        return
    controller = self.cluster.controller
    leader_broker = self.cluster.broker(leader_id)
    leader_replica = leader_broker.replica(partition)
    follower_replica = self.cluster.broker(follower_id).replica(partition)

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
        read, leader_leo, leader_hw, entries = leader_broker.replica_fetch(
            partition, fetch_offset, follower_id, self.max_fetch
        )
    except (
        BrokerUnavailableError,
        NotLeaderForPartitionError,
        OffsetOutOfRangeError,
    ):
        return
    if read.messages:
        follower_replica.replicate_batch(read, entries)
        stats.messages_copied += len(read.messages)
        self.cluster.metrics.counter(WIRE_BYTES).increment(read.stored_bytes)
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


#: Three two-partition topics (plus the offsets topic, plus whatever a
#: schedule creates mid-run): most partitions are idle in any one step.
TOPICS = ("t", "u", "v")

brokers = st.integers(min_value=0, max_value=2)
produces = st.tuples(
    st.just("produce"),
    st.integers(0, len(TOPICS) - 1),
    st.integers(0, 1),  # partition
    st.integers(1, 6),  # records, flushed as one batch
    st.sampled_from([ACKS_LEADER, ACKS_ALL]),
    st.booleans(),  # compressed
    st.booleans(),  # idempotent
)
#: produce / tick / crash / restart / create a topic mid-run / have the
#: controller drop a follower from an ISR / stall one follower's
#: ``replication.sync`` (None lifts the stall).  Weighted towards traffic.
chaos_steps = st.lists(
    st.one_of(
        produces, produces, produces,
        st.just(("tick",)), st.just(("tick",)), st.just(("tick",)),
        st.tuples(st.just("kill"), brokers),
        st.tuples(st.just("restart"), brokers),
        st.tuples(st.just("stall"), st.one_of(st.none(), brokers)),
        st.just(("create",)),
        st.tuples(st.just("shrink"), st.integers(0, len(TOPICS) - 1), st.integers(0, 1)),
    ),
    min_size=8,
    max_size=60,
)


def produce(partition, count, acks, compressed, topic=0, idempotent=False):
    return ("produce", topic, partition, count, acks, compressed, idempotent)


#: Schedules that are sure to reach what random ones reach rarely.  Broker
#: ``p`` leads partition ``p`` at the start; catch-up moves 3 records a pass.
LAGGARD_SHRUNK_THEN_READMITTED = (
    [("stall", 1)]
    + [produce(0, 6, ACKS_LEADER, False), produce(0, 6, ACKS_LEADER, True)]
    + [("tick",), ("tick",), ("stall", None)]
    + [("tick",)] * 3
    + [produce(0, 2, ACKS_ALL, False)]
)
DEPOSED_LEADER_TRUNCATES = [
    produce(0, 4, ACKS_LEADER, True),
    ("kill", 0),
    produce(0, 2, ACKS_ALL, False),
    ("tick",),
    ("restart", 0),
]
LAST_ISR_MEMBER_DIES = [
    ("kill", 1),
    ("kill", 2),
    produce(0, 3, ACKS_LEADER, False),
    ("restart", 1),
    ("kill", 0),  # unclean: broker 1 leads with nothing; clean: offline
    produce(0, 2, ACKS_LEADER, False),
    ("tick",),
    ("restart", 0),
    ("tick",),
    produce(0, 1, ACKS_ALL, True),
]
#: Six partitions fall more than ``replication_max_lag`` behind in one pass
#: and are re-admitted in another, one of them created mid-run: the shrink
#: and expansion lists come out in visit order, which must be creation order.
EVERY_PARTITION_SHRINKS_IN_ONE_PASS = (
    [("tick",), ("tick",), ("create",)]
    + [
        produce(partition, 6, ACKS_LEADER, False, topic, idempotent=bool(partition))
        for topic in (2, 0, 1)
        for partition in (1, 0)
    ]
    + [("tick",)] * 4
)
#: A stall armed on a settled cluster touches nobody; the produce that gives
#: the stalled follower work brings the stall with it, and a restart puts
#: every partition the broker hosts back in front of the loop.
STALL_ARMED_ON_A_SETTLED_CLUSTER = (
    [("tick",), ("tick",), ("stall", 2), ("tick",), ("tick",)]
    + [produce(0, 4, ACKS_LEADER, False), ("tick",), ("tick",), ("kill", 1)]
    + [produce(1, 2, ACKS_ALL, True, topic=1), ("tick",), ("restart", 1)]
    + [("tick",), ("stall", None), ("tick",), ("tick",), ("tick",)]
)
#: The controller drops an in-sync follower of a settled partition with no
#: traffic anywhere: only the ISR listener can bring the pass back to it.
CONTROLLER_SHRINKS_A_SETTLED_ISR = [("tick",), ("tick",), ("shrink", 1, 0), ("tick",)]


class Driven:
    """One rf=3 cluster plus the eight producers a schedule sends through.

    ``reference`` swaps the replication pass for the full scan: ``"scan"`` as
    it ran before the pending set, ``"always-fetch"`` as it ran before the
    idle short cut as well.
    """

    def __init__(self, unclean: bool, reference: str | None) -> None:
        self.cluster = MessagingCluster(
            num_brokers=3,
            clock=SimClock(),
            replication_max_lag=2,
            allow_unclean_election=unclean,
        )
        for topic in TOPICS:
            self.cluster.create_topic(topic, num_partitions=2, replication_factor=3)
        replication = self.cluster.replication
        replication.max_fetch = 3  # a backlog takes passes: lag, shrink, expand
        if reference is not None:
            always_fetch = reference == "always-fetch"
            replication.poll = lambda: reference_poll(replication, always_fetch)
        self.producers = {
            (acks, compressed, idempotent): Producer(
                self.cluster,
                ProducerConfig(
                    acks=acks,
                    linger_messages=64,
                    max_retries=1,
                    retry_jitter_seed=11,
                    compression="zlib:6" if compressed else "none",
                    idempotent=idempotent,
                ),
            )
            for acks in (ACKS_LEADER, ACKS_ALL)
            for compressed in (False, True)
            for idempotent in (False, True)
        }
        # Producer ids come from a process-wide counter; same-seed clusters
        # need the same ones in their batch indexes.
        for producer_id, producer in enumerate(self.producers.values(), 1):
            producer.producer_id = producer_id
        self.sent = 0
        self.created = 0

    def step(self, step, stalled):
        """Run one schedule step; returns what it visibly produced."""

        def stall(follower=None, **_ctx):
            return SKIP if follower == stalled else None

        cluster = self.cluster
        with registry().scoped("replication.sync", stall):
            if step[0] == "produce":
                _, topic, partition, count, acks, compressed, idempotent = step
                producer = self.producers[acks, compressed, idempotent]
                try:
                    for _ in range(count):
                        self.sent += 1
                        producer.send(
                            TOPICS[topic], {"n": self.sent},
                            key=f"k{self.sent % 5}", partition=partition,
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
            elif step[0] == "shrink":
                tp = TopicPartition(TOPICS[step[1]], step[2])
                state = cluster.controller.partition_state(tp)
                followers = [b for b in state.isr if b != state.leader]
                if followers:
                    cluster.controller.shrink_isr(tp, followers[0])
            elif step[0] == "create":
                self.created += 1
                cluster.create_topic(
                    f"w{self.created}",
                    num_partitions=2,
                    replication_factor=min(3, len(live)),
                )
        return None

    def snapshot(self):
        """Everything replication decides, per partition and per replica."""
        cluster = self.cluster
        out = [cluster.clock.now(), cluster.metrics.counter(WIRE_BYTES).value]
        for tp in cluster.controller.partitions():
            state = cluster.controller.partition_state(tp)
            out.append((tp, state.leader, state.epoch, list(state.isr)))
            for broker_id in state.replicas:
                replica = cluster.broker(broker_id).replica(tp)
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
                     for base, last, *_entry, frame in log.batches()
                     if frame is not None],
                    [entry[:5] for entry in log.batches()],
                ))
        return out

    def check_settled(self):
        """What the pending set claims, checked directly: a partition the
        next pass will not visit has a live leader and only caught-up online
        followers, and stands for exactly that many pairs."""
        cluster = self.cluster
        replication = cluster.replication
        pairs = 0
        for tp in cluster.controller.partitions():
            if tp in replication._pending:
                assert tp not in replication._settled, tp
                continue
            state = cluster.controller.partition_state(tp)
            assert state.leader is not None, tp
            assert cluster.broker(state.leader).online, tp
            followers = [
                b for b in state.replicas
                if b != state.leader and cluster.broker(b).online
            ]
            for follower_id in followers:
                assert caught_up(cluster, tp, state.leader, follower_id), (
                    tp, follower_id,
                )
            assert replication._settled[tp] == len(followers), tp
            pairs += len(followers)
        assert replication._settled_pairs == pairs


def drive_against(reference, schedule, unclean):
    """Run ``schedule`` on the cluster under test and on ``reference``'s, same
    seed, and hold them equal — acks or errors, pass statistics, every
    replica — after every step."""
    registry().disarm_all()
    under_test = Driven(unclean, reference=None)
    scanned = Driven(unclean, reference=reference)
    stalled = None
    # Settle at the end: recover every broker, lift the stall, drain.
    settle = [("restart", b) for b in range(3)] + [("stall", None)]
    settle += [("tick",)] * 6
    for step in list(schedule) + settle:
        if step[0] == "stall":
            stalled = step[1]
            continue
        assert under_test.step(step, stalled) == scanned.step(step, stalled), step
        assert under_test.snapshot() == scanned.snapshot(), step
        under_test.check_settled()


FIXED = [
    (LAGGARD_SHRUNK_THEN_READMITTED, False),
    (DEPOSED_LEADER_TRUNCATES, False),
    (LAST_ISR_MEMBER_DIES, True),
    (LAST_ISR_MEMBER_DIES, False),
    (EVERY_PARTITION_SHRINKS_IN_ONE_PASS, False),
    (STALL_ARMED_ON_A_SETTLED_CLUSTER, False),
    (CONTROLLER_SHRINKS_A_SETTLED_ISR, False),
]


def with_fixed_schedules(test):
    for schedule, unclean in FIXED:
        test = example(schedule, unclean)(test)
    return test


class TestPendingSet:
    @given(chaos_steps, st.booleans())
    @with_fixed_schedules
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_same_cluster_as_the_loop_that_scans_every_partition(
        self, schedule, unclean
    ):
        drive_against("scan", schedule, unclean)


class TestIdleFollowerShortCut:
    @given(chaos_steps, st.booleans())
    @with_fixed_schedules
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_same_cluster_as_the_loop_that_always_fetches(self, schedule, unclean):
        drive_against("always-fetch", schedule, unclean)
