"""S1 — §5, §3.2: serving queries off job state, and standby-promote failover.

A per-key counting job serves its store through the
:class:`StateQueryRouter`.  In simulated time every query kind must cost
something (a store probe plus one network hop), and after a crash a job
keeping one standby replica per task must recover at least 3x faster than
the same job replaying its whole changelog, replaying fewer records,
promoting every partition's standby, with both restoring the exact state.

8 000 updates over 400 keys and 4 partitions in four checkpointed phases,
then a 60-update tail that is processed but not checkpointed: the crash
point of both recovery arms.  500 point queries of each kind, 20 scans.
"""

import functools
import random

from repro.common.clock import SimClock
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.serving import StateQueryRouter

from reporting import format_table, publish

PARTITIONS = 4
UPDATES = 8000
KEYS = 400
TAIL = 60
QUERIES = 500
SEED = 20150107  # CIDR'15


class CountingTask:
    def init(self, context):
        self.store = context.store("counts")

    def process(self, record, collector):
        self.store.put(record.key, (self.store.get(record.key) or 0) + 1)


def build_job(standbys: int) -> JobRunner:
    rng = random.Random(SEED)
    cluster = MessagingCluster(num_brokers=3, clock=SimClock())
    cluster.create_topic("events", num_partitions=PARTITIONS,
                         replication_factor=3)
    producer = Producer(cluster)
    runner = JobRunner(
        JobConfig(name="bench-serving", inputs=["events"],
                  task_factory=CountingTask, stores=[StoreConfig("counts")],
                  changelog_replication=3, num_standby_replicas=standbys),
        cluster,
    )
    for _phase in range(4):
        for _ in range(UPDATES // 4):
            producer.send("events", 1, key=f"k{rng.randrange(KEYS)}")
        runner.run_until_idle()
        runner.checkpoint()
    for _ in range(TAIL):
        producer.send("events", 1, key=f"k{rng.randrange(KEYS)}")
    runner.run_until_idle()  # processed + changelogged, NOT checkpointed
    return runner


def run_queries() -> dict[str, list[float]]:
    runner = build_job(standbys=1)
    runner.checkpoint()  # warm the standbys before the query workload
    router = StateQueryRouter(runner)
    rng = random.Random(SEED + 1)
    keys = [f"k{rng.randrange(KEYS)}" for _ in range(QUERIES)]
    latencies = {
        "get": [router.get("counts", k).latency for k in keys],
        "get, stale ok": [router.get("counts", k, allow_stale=True).latency
                          for k in keys],
        "range (all keys)": [router.range("counts").latency for _ in range(20)],
        "approximate count": [router.approximate_count("counts").latency
                              for _ in range(20)],
    }
    table = format_table(
        "S1a  Routed query latency over job state (simulated)",
        ["query", "queries", "slowest latency (s)"],
        [[kind, len(samples), f"{max(samples):.10g}"]
         for kind, samples in latencies.items()],
        notes=["paper: the 5 use cases serve dashboards off nearline state"],
    )
    publish("s1a_query_latency", table)
    return latencies


def recover(standbys: int) -> dict:
    runner = build_job(standbys)
    before = [dict(task.stores["counts"].items()) for task in runner.tasks()]
    runner.crash()
    report = runner.recover()
    after = [dict(task.stores["counts"].items()) for task in runner.tasks()]
    return {"standbys": standbys, "seconds": report.simulated_seconds,
            "replayed": report.records_replayed,
            "promotions": report.standby_promotions(), "exact": after == before}


@functools.cache  # every recovery test reads the same run
def run_recovery() -> dict:
    arms = {"standby promote": recover(1), "cold changelog replay": recover(0)}
    warm, cold = arms.values()
    speedup = cold["seconds"] / warm["seconds"]
    table = format_table(
        "S1b  Recovery after a crash: standby promotion vs cold restore (simulated)",
        ["restore", "standby replicas", "records replayed", "recovery (s)",
         "standby promotions", "state exact"],
        [[name, arm["standbys"], arm["replayed"], f"{arm['seconds']:.10g}",
          arm["promotions"], "yes" if arm["exact"] else "NO"]
         for name, arm in arms.items()],
        notes=[
            f"standby promote vs cold restore: {speedup:.2f}x faster",
            "paper: a task's state is restored from its changelog (3.2); "
            "standby replicas are an extension",
        ],
    )
    publish("s1b_recovery", table)
    return {"warm": warm, "cold": cold, "speedup": speedup}


class TestS1Shape:
    def test_every_query_kind_costs_something(self):
        for samples in run_queries().values():
            assert min(samples) > 0.0

    def test_standby_promote_3x_faster_than_cold_restore(self):
        assert run_recovery()["speedup"] >= 3.0

    def test_standby_replays_less(self):
        results = run_recovery()
        assert results["warm"]["replayed"] < results["cold"]["replayed"]

    def test_both_recoveries_exact(self):
        results = run_recovery()
        assert results["warm"]["exact"] and results["cold"]["exact"]

    def test_every_partition_promotes_its_standby(self):
        assert run_recovery()["warm"]["promotions"] == PARTITIONS
