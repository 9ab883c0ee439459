"""Property-based tests for replication and delivery guarantees (§4.3).

The paper's durability contract: with acks=all, an acknowledged message
survives any N-1 failures of the ISR; delivery is at-least-once; and
per-partition order is total.  These properties are checked under randomized
produce / kill / restart / tick schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import (
    BrokerUnavailableError,
    MessagingError,
    NotEnoughReplicasError,
)
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_ALL, MessagingCluster
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
