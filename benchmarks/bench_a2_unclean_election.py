"""Ablation A2 — unclean leader election: availability vs. durability.

§4.3's ISR design keeps a partition offline when no in-sync replica
survives, trading availability for zero committed-data loss.  The unclean
alternative promotes an out-of-sync replica: writes resume immediately but
committed records that only the dead leader held are silently lost.  This
ablation runs the same failure sequence under both policies.

Sequence: rf=2; the follower is shrunk out of the ISR (it lagged), the
leader keeps accepting writes, then the leader dies.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import BrokerUnavailableError
from repro.common.records import TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer

from reporting import attach, format_table, publish

TP = TopicPartition("t", 0)


def run_scenario(allow_unclean: bool) -> dict:
    cluster = MessagingCluster(
        num_brokers=2,
        clock=SimClock(),
        allow_unclean_election=allow_unclean,
        replication_max_lag=2,
    )
    cluster.create_topic("t", num_partitions=1, replication_factor=2)
    producer = Producer(cluster, ProducerConfig(acks=ACKS_LEADER, max_retries=0))
    leader = cluster.leader_of("t", 0)
    follower = 1 - leader

    # Phase 1: replicated writes.
    for i in range(20):
        producer.send("t", {"i": i})
    cluster.tick(0.1)

    # Phase 2: the follower falls behind and is shrunk out of the ISR
    # (simulated by stopping replication), while the leader keeps accepting.
    cluster.controller.shrink_isr(TP, follower)
    for i in range(20, 40):
        producer.send("t", {"i": i})
    # These writes were acked by the leader and committed (ISR = {leader}).
    committed = list(range(40))

    # Phase 3: the leader dies.
    cluster.kill_broker(leader)

    available = cluster.leader_of("t", 0) is not None
    write_ok = True
    try:
        producer.send("t", {"i": 999})
    except Exception:
        write_ok = False

    lost = []
    if available:
        result = cluster.fetch("t", 0, 0, max_messages=1000)
        delivered = [r.value["i"] for r in result.records]
        lost = [i for i in committed if i not in set(delivered)]
    else:
        # Recovery path: only the old leader can restore the data.
        cluster.restart_broker(leader)
        cluster.run_until_replicated()
        result = cluster.fetch("t", 0, 0, max_messages=1000)
        delivered = [r.value["i"] for r in result.records]
        lost = [i for i in committed if i not in set(delivered)]
    return {
        "policy": "unclean" if allow_unclean else "clean (paper)",
        "available_after_crash": available,
        "writes_resume_immediately": write_ok,
        "committed_lost": len(lost),
    }


def run_experiment() -> dict:
    results = {}
    rows = []
    for allow_unclean in (False, True):
        result = run_scenario(allow_unclean)
        results[allow_unclean] = result
        rows.append(
            [
                result["policy"],
                "yes" if result["available_after_crash"] else "no",
                "yes" if result["writes_resume_immediately"] else "no",
                result["committed_lost"],
            ]
        )
    table = format_table(
        "A2  Leader dies with only out-of-sync replicas left",
        ["election policy", "partition online", "writes resume",
         "committed records lost"],
        rows,
        notes=[
            "paper 4.3: electing only from the ISR tolerates N-1 failures "
            "without losing committed data; unclean election trades that "
            "durability for availability",
        ],
    )
    publish("a2_unclean_election", table)
    return results


class TestA2Shape:
    def test_clean_election_prefers_durability(self):
        results = run_experiment()
        clean = results[False]
        assert not clean["available_after_crash"]  # offline, not lying
        assert not clean["writes_resume_immediately"]
        assert clean["committed_lost"] == 0        # old leader restores all

    def test_unclean_election_prefers_availability(self):
        results = run_experiment()
        unclean = results[True]
        assert unclean["available_after_crash"]
        assert unclean["writes_resume_immediately"]
        assert unclean["committed_lost"] == 20     # the un-replicated tail

    def test_offline_partition_rejects_producers_loudly(self):
        cluster = MessagingCluster(
            num_brokers=2, clock=SimClock(), allow_unclean_election=False
        )
        cluster.create_topic("t", num_partitions=1, replication_factor=2)
        leader = cluster.leader_of("t", 0)
        cluster.controller.shrink_isr(TP, 1 - leader)
        cluster.kill_broker(leader)
        with pytest.raises(BrokerUnavailableError):
            cluster.produce("t", 0, [(None, "x", None, {})])


@pytest.mark.benchmark(group="a2")
def test_a2_failover_kernel(benchmark):
    result = benchmark.pedantic(
        lambda: run_scenario(False)["committed_lost"], rounds=3, iterations=1
    )
    attach(benchmark, committed_lost=result)
