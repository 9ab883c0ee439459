"""E3 — §4.2: incremental processing vs. full recompute.

"reading all data each time that it changes would be infeasible — the
required time would increase linearly with data size.  Instead, the
processing layer can read the available data, compute such statistics and
maintain them as state ... and reads only the new data."

Maintains per-user profile statistics over a profile-update feed.  The
history length is swept while the per-period delta stays fixed; the cost of
one statistics refresh is measured three ways: full recompute, Hourglass
(incremental MR on the DFS — the industry approach the paper cites as [14])
and Liquid's nearline incremental fold.
"""

import pytest

from repro.baselines.dfs import SimulatedDFS
from repro.baselines.hourglass import HourglassJob
from repro.baselines.mapreduce import MapReduceEngine
from repro.common.clock import SimClock
from repro.core.incremental import IncrementalFold
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.workloads.profiles import ProfileUpdateGenerator

from reporting import attach, format_table, publish

HISTORIES = [1_000, 4_000, 16_000]
DELTA = 50


def build_feed(history: int) -> MessagingCluster:
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("profiles", num_partitions=2, replication_factor=1)
    producer = Producer(cluster)
    generator = ProfileUpdateGenerator(users=max(100, history // 10), seed=3)
    produced = 0
    for profile in generator.snapshot():
        if produced >= history:
            break
        producer.send("profiles", profile, key=profile["user"])
        produced += 1
    period = 0.0
    while produced < history:
        period += 1.0
        for update in generator.delta(period):
            if produced >= history:
                break
            producer.send("profiles", update, key=update["user"])
            produced += 1
    return cluster


def stats_fold() -> tuple:
    def init():
        return {"updates": 0, "users": set()}

    def fold(state, record):
        state["updates"] += 1
        state["users"].add(record.value["user"])
        return state

    return init, fold


def refresh_costs(history: int) -> tuple[float, float]:
    """Returns (incremental_cost, recompute_cost) of refreshing the stats
    after DELTA new updates arrive on a feed with `history` records."""
    cluster = build_feed(history)
    init, fold = stats_fold()
    incremental = IncrementalFold(cluster, "profiles", "stats", init, fold)
    incremental.update()  # initial build (both strategies start warm)

    producer = Producer(cluster)
    generator = ProfileUpdateGenerator(users=100, seed=99)
    count = 0
    for update in generator.deltas(periods=1000, start=1000.0):
        if count >= DELTA:
            break
        producer.send("profiles", update, key=update["user"])
        count += 1

    incremental_cost = incremental.update().simulated_seconds
    recompute_cost = incremental.recompute_from_scratch().simulated_seconds
    return incremental_cost, recompute_cost


def hourglass_refresh_cost(history: int) -> float:
    """Simulated cost of one Hourglass (incremental-MR) refresh of the same
    statistics after a DELTA-record update lands as a new DFS part-file."""
    clock = SimClock()
    dfs = SimulatedDFS(clock)
    engine = MapReduceEngine(dfs)
    generator = ProfileUpdateGenerator(users=max(100, history // 10), seed=3)
    records = []
    for profile in generator.snapshot():
        if len(records) >= history:
            break
        records.append(profile)
    for start in range(0, len(records), 1000):
        dfs.write_file(
            f"/profiles/part-{start // 1000:05d}", records[start : start + 1000]
        )
    job = HourglassJob(
        dfs, engine, name=f"stats-{history}", input_dir="/profiles",
        map_fn=lambda r: [(r["user"], 1)],
        aggregate_fn=sum,
        merge_fn=lambda a, b: a + b,
    )
    job.run()  # warm: aggregates the full history once
    delta = [
        {"user": f"member-x{i}", "headline": "h"} for i in range(DELTA)
    ]
    dfs.write_file("/profiles/part-99999", delta)
    return job.run().total_seconds


def run_experiment() -> dict:
    rows = []
    inc_series, full_series, hourglass_series = [], [], []
    for history in HISTORIES:
        inc, full = refresh_costs(history)
        hourglass = hourglass_refresh_cost(history)
        inc_series.append(inc)
        full_series.append(full)
        hourglass_series.append(hourglass)
        rows.append([history, DELTA, full, hourglass, inc, full / inc])
    table = format_table(
        "E3  Statistics refresh cost after a fixed delta (simulated seconds)",
        ["history (msgs)", "delta (msgs)", "full recompute (s)",
         "Hourglass incr. MR (s)", "Liquid incremental (s)",
         "recompute/Liquid"],
        rows,
        notes=[
            "paper: recompute 'would increase linearly with data size'; "
            "incremental reads only the new data (4.2)",
            "Hourglass (paper ref [14]) reads only the delta too, but every "
            "refresh still pays the fixed MR job startup",
            "full recompute here re-reads the retained log nearline; a "
            "DFS-based recompute would add the E2 MR overheads on top",
        ],
    )
    publish("e3_incremental", table)
    return {
        "recompute_growth": full_series[-1] / full_series[0],
        "incremental_growth": inc_series[-1] / inc_series[0],
        "advantage_at_max": full_series[-1] / inc_series[-1],
        "hourglass_flat": max(hourglass_series) / min(hourglass_series),
        "hourglass_overhead": min(hourglass_series),
        "liquid_worst": max(inc_series),
    }


class TestE3Shape:
    def test_recompute_linear_incremental_flat(self):
        metrics = run_experiment()
        # 16x history -> recompute cost grows ~linearly (allow >6x),
        # incremental stays bounded (<3x).
        assert metrics["recompute_growth"] > 6.0
        assert metrics["incremental_growth"] < 3.0
        assert metrics["advantage_at_max"] > 20.0

    def test_hourglass_is_flat_but_startup_bound(self):
        """The paper-cited industry fix makes MR delta-proportional, yet each
        refresh still costs ~a job startup — Liquid's nearline incremental
        path is orders of magnitude cheaper per refresh."""
        metrics = run_experiment()
        assert metrics["hourglass_flat"] < 2.0           # flat in history
        assert metrics["hourglass_overhead"] > 5.0       # startup-bound
        assert metrics["hourglass_overhead"] > 100 * metrics["liquid_worst"]


@pytest.mark.benchmark(group="e3")
def test_e3_incremental_update_kernel(benchmark):
    cluster = build_feed(2_000)
    init, fold = stats_fold()
    incremental = IncrementalFold(cluster, "profiles", "stats", init, fold)
    incremental.update()
    producer = Producer(cluster)

    def one_cycle():
        for i in range(10):
            producer.send("profiles", {"user": f"member-x{i}", "headline": "h"},
                          key=f"member-x{i}")
        return incremental.update().simulated_seconds

    simulated = benchmark.pedantic(one_cycle, rounds=5, iterations=1)
    attach(benchmark, simulated_update_s=simulated)
