"""Property-based tests for replication and delivery guarantees (§4.3).

The paper's durability contract: with acks=all, an acknowledged message
survives any N-1 failures of the ISR; delivery is at-least-once; and
per-partition order is total.  These properties are checked under randomized
produce / kill / restart / tick schedules.

The replication loop visits only the partitions the cluster marked, and
skips the fetch for a follower it can show is caught up.  The loop it
replaced — every partition x every follower, every pass — is the reference
(:func:`~tests.reference.replica.reference_poll`): :class:`TestPendingSet`
holds the pending set against it, and :class:`TestIdleFollowerShortCut`
holds both short cuts against the same scan with the fetch always made.
"""

from functools import partial

from hypothesis import example, given, settings, strategies as st

from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER
from repro.messaging.config import ProducerConfig
from repro.messaging.topic import TopicConfig
from tests.reference import examples
from tests.reference.cluster import TICK, Cluster, produce
from tests.reference.replica import WIRE_BYTES, caught_up, reference_poll

TP = TopicPartition("t", 0)
brokers = st.integers(min_value=0, max_value=2)
counts = st.integers(min_value=1, max_value=5)

#: A schedule step: produce a batch with acks=all or with acks=leader, kill
#: a broker, restart one, tick, or tick with only one broker following (the
#: other followers stall), which leaves the followers' logs unequal.
steps = st.lists(
    st.one_of(
        st.builds(produce, counts),
        st.builds(produce, counts, st.just(ACKS_LEADER)),
        st.tuples(st.just("kill"), brokers),
        st.tuples(st.just("restart"), brokers),
        st.just(TICK),
        st.tuples(st.just("sync"), brokers),
    ),
    min_size=1,
    max_size=25,
)

#: Clean elections only, yet at the parent of the one copy step two records
#: acked with acks=all were lost: follower 2 alone copied two acks=leader
#: records, kept them across the epoch change, and served them after the
#: next failover in place of the new leader's first two.
UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH = [
    produce(5), produce(5), TICK, TICK,
    produce(2, ACKS_LEADER), ("sync", 2),
    ("kill", 0), produce(3), TICK, ("kill", 1),
]


#: Clean elections only, yet at the parent of the in-step cut three
#: committed records were lost with an ISR member alive: follower 2 copied
#: them first and so learned a high watermark of 0, and dropped them at the
#: epoch change although the new leader served them as committed.
COMMITTED_ABOVE_A_FOLLOWERS_HW = [
    produce(3, ACKS_LEADER), ("sync", 2), ("sync", 1), ("kill", 0), ("kill", 1),
]


def settled(schedule, check=None):
    """Run ``schedule`` on one rf=3, min-ISR-2 partition, then recover every
    broker and settle; returns (cluster, acked values)."""
    driven = Cluster(
        [TopicConfig(name="t", replication_factor=3, min_insync_replicas=2)],
        producer=ProducerConfig(max_retries=2),
    ).run(schedule, check)
    cluster = driven.cluster
    for broker_id in driven.brokers:
        cluster.restart_broker(broker_id)
    cluster.run_until_replicated()
    # Failed sends were re-buffered, not dropped: after full recovery a
    # flush MUST deliver them, and their acks then claim the durability
    # guarantee like any other.
    producer = driven.producers[ACKS_ALL, False, False]
    if producer.pending():
        held = [e for parked in producer._failed_batches.values()
                for _seq, entries in parked for e in entries]
        held += [e for buffer in producer._buffers.values() for e in buffer]
        producer.flush()
        driven.acked.extend(value["n"] for _k, value, _ts, _h in held)
        cluster.run_until_replicated()
    # Its acks promise nothing past the leader: its records are not `acked`.
    driven.producers[ACKS_LEADER, False, False].flush()
    cluster.run_until_replicated()
    return cluster, driven.acked


def delivered(cluster):
    return [r.value["n"] for r in cluster.fetch("t", 0, 0, max_messages=100000).records]


class TestDurability:
    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(40), deadline=None)
    def test_acked_messages_never_lost(self, schedule):
        cluster, acked = settled(schedule)
        values = delivered(cluster)
        for payload in acked:
            assert payload in values, f"acked payload {payload} lost; delivered={values}"

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

        cluster, _acked = settled(schedule, lambda driven, *_: observe(driven.cluster))
        observe(cluster)
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        assert leader.high_watermark >= len(committed)  # offsets 0..n-1

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(40), deadline=None)
    def test_per_partition_order_is_produce_order(self, schedule):
        cluster, acked = settled(schedule)
        # At-least-once: drop duplicates, keep first occurrence.
        deduped = list(dict.fromkeys(delivered(cluster)))
        acked_in_delivered = [v for v in deduped if v in set(acked)]
        assert acked_in_delivered == sorted(acked_in_delivered)

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(30), deadline=None)
    def test_replicas_converge_to_identical_logs(self, schedule):
        cluster, _acked = settled(schedule)
        cluster.run_until_replicated()
        # Values, not keys: every payload is unique, three keys are not.
        logs = [
            [(m.offset, m.value) for m in broker.replica(TP).log.all_messages()]
            for broker in cluster.brokers() if broker.hosts(TP)
        ]
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        leader_log = [(m.offset, m.value) for m in leader.log.all_messages()]
        for log in logs:
            # Followers hold a prefix of (or exactly) the leader's log.
            assert log == leader_log[: len(log)]

    @given(steps)
    @example(UNCOMMITTED_TAIL_OUTLIVES_THE_EPOCH)
    @settings(max_examples=examples(30), deadline=None)
    def test_hw_never_exceeds_any_isr_leo(self, schedule):
        cluster, _acked = settled(schedule)
        leader = cluster.broker(cluster.leader_of("t", 0)).replica(TP)
        for broker_id in cluster.controller.isr_for(TP):
            replica = cluster.broker(broker_id).replica(TP)
            assert leader.high_watermark <= replica.log_end_offset


# -- the pending set and the idle short cut against the loop that scans it all --

#: Three two-partition topics (plus the offsets topic, plus whatever a
#: schedule creates mid-run): most partitions are idle in any one step.
TOPICS = [
    TopicConfig(name=name, num_partitions=2, replication_factor=3)
    for name in ("t", "u", "v")
]

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
        st.just(TICK), st.just(TICK), st.just(TICK),
        st.tuples(st.just("kill"), brokers),
        st.tuples(st.just("restart"), brokers),
        st.tuples(st.just("stall"), st.one_of(st.none(), brokers)),
        st.just(("create",)),
        st.tuples(st.just("shrink"), st.integers(0, len(TOPICS) - 1), st.integers(0, 1)),
    ),
    min_size=8,
    max_size=60,
)

#: Schedules that are sure to reach what random ones reach rarely.  Broker
#: ``p`` leads partition ``p`` at the start; catch-up moves 3 records a pass.
LAGGARD_SHRUNK_THEN_READMITTED = [
    ("stall", 1), produce(6, ACKS_LEADER), produce(6, ACKS_LEADER, compressed=True),
    TICK, TICK, ("stall", None), TICK, TICK, TICK, produce(2, ACKS_ALL),
]
DEPOSED_LEADER_TRUNCATES = [
    produce(4, ACKS_LEADER, compressed=True), ("kill", 0), produce(2, ACKS_ALL), TICK,
    ("restart", 0),
]
LAST_ISR_MEMBER_DIES = [
    ("kill", 1), ("kill", 2), produce(3, ACKS_LEADER), ("restart", 1),
    ("kill", 0),  # unclean: broker 1 leads with nothing; clean: offline
    produce(2, ACKS_LEADER), TICK, ("restart", 0), TICK,
    produce(1, ACKS_ALL, compressed=True),
]
#: Six partitions fall more than ``replication_max_lag`` behind in one pass
#: and are re-admitted in another, one of them created mid-run: the shrink
#: and expansion lists come out in visit order, which must be creation order.
EVERY_PARTITION_SHRINKS_IN_ONE_PASS = (
    [TICK, TICK, ("create",)]
    + [
        produce(6, ACKS_LEADER, topic=topic, partition=partition,
                idempotent=bool(partition))
        for topic in (2, 0, 1)
        for partition in (1, 0)
    ]
    + [TICK] * 4
)
#: A stall armed on a settled cluster touches nobody; the produce that gives
#: the stalled follower work brings the stall with it, and a restart puts
#: every partition the broker hosts back in front of the loop.
STALL_ARMED_ON_A_SETTLED_CLUSTER = [
    TICK, TICK, ("stall", 2), TICK, TICK, produce(4, ACKS_LEADER), TICK, TICK,
    ("kill", 1), produce(2, ACKS_ALL, topic=1, partition=1, compressed=True), TICK,
    ("restart", 1), TICK, ("stall", None), TICK, TICK, TICK,
]
#: The controller drops an in-sync follower of a settled partition with no
#: traffic anywhere: only the ISR listener can bring the pass back to it.
CONTROLLER_SHRINKS_A_SETTLED_ISR = [TICK, TICK, ("shrink", 1, 0), TICK]


def snapshot(cluster):
    """Everything replication decides, per partition and per replica."""
    out = [cluster.clock.now(), cluster.metrics.counter(WIRE_BYTES).value]
    for tp in cluster.controller.partitions():
        state = cluster.controller.partition_state(tp)
        out.append((tp, state.leader, state.epoch, list(state.isr)))
        for broker_id in state.replicas:
            replica = cluster.broker(broker_id).replica(tp)
            log = replica.log
            out.append((
                replica.role, replica.leader_epoch, replica.log_end_offset,
                replica.high_watermark, dict(replica._follower_leo), list(replica._isr),
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


def check_settled(cluster):
    """What the pending set claims, checked directly: a partition the next
    pass will not visit has a live leader and only caught-up online
    followers, and stands for exactly that many pairs."""
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
            b for b in state.replicas if b != state.leader and cluster.broker(b).online
        ]
        for follower_id in followers:
            assert caught_up(cluster, tp, state.leader, follower_id), (tp, follower_id)
        assert replication._settled[tp] == len(followers), tp
        pairs += len(followers)
    assert replication._settled_pairs == pairs


def drive_against(always_fetch, schedule, unclean):
    """Run ``schedule`` on the cluster under test and on the full scan's,
    same seed, and hold them equal — acks or errors, pass statistics, every
    replica — after every step."""
    # Eight producers that linger until their step flushes them.
    producer = ProducerConfig(linger_messages=64, max_retries=1, retry_jitter_seed=11)
    # A backlog takes passes: lag, shrink, expand.
    scanned = Cluster(
        TOPICS, unclean=unclean, max_fetch=3, producer=producer,
        poll=partial(reference_poll, always_fetch=always_fetch),
    )

    def check(under_test, step, outcome):
        assert outcome == scanned.step(step), step
        assert snapshot(under_test.cluster) == snapshot(scanned.cluster), step
        check_settled(under_test.cluster)

    # Settle at the end: recover every broker, lift the stall, drain.
    settle = [("restart", b) for b in range(3)] + [("stall", None)] + [TICK] * 6
    Cluster(TOPICS, unclean=unclean, max_fetch=3, producer=producer).run(
        list(schedule) + settle, check
    )


def with_fixed_schedules(test):
    for schedule, unclean in [
        (LAGGARD_SHRUNK_THEN_READMITTED, False), (DEPOSED_LEADER_TRUNCATES, False),
        (LAST_ISR_MEMBER_DIES, True), (LAST_ISR_MEMBER_DIES, False),
        (EVERY_PARTITION_SHRINKS_IN_ONE_PASS, False),
        (STALL_ARMED_ON_A_SETTLED_CLUSTER, False),
        (CONTROLLER_SHRINKS_A_SETTLED_ISR, False),
    ]:
        test = example(schedule, unclean)(test)
    return test


class TestPendingSet:
    @given(chaos_steps, st.booleans())
    @with_fixed_schedules
    @settings(max_examples=examples(60), deadline=None)
    def test_same_cluster_as_the_loop_that_scans_every_partition(
        self, schedule, unclean
    ):
        drive_against(False, schedule, unclean)


class TestIdleFollowerShortCut:
    @given(chaos_steps, st.booleans())
    @with_fixed_schedules
    @settings(max_examples=examples(60), deadline=None)
    def test_same_cluster_as_the_loop_that_always_fetches(self, schedule, unclean):
        drive_against(True, schedule, unclean)
