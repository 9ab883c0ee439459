"""E2 — §1(1)/§2.1: end-to-end latency vs. pipeline depth.

"Intermediate results of MR jobs are written to the DFS, resulting in higher
latencies as job pipelines grow in length" — while Liquid jobs hop through
the log with no per-stage job startup or DFS materialization.

The same N-stage identity pipeline (data cleaning stages) is run on both
stacks for N = 1..6 and the end-to-end simulated latency of one input batch
is reported.
"""

import pytest

from repro.baselines.dfs import SimulatedDFS
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec
from repro.common.clock import SimClock
from repro.core.etl import MapTask
from repro.core.liquid import Liquid
from repro.processing.job import JobConfig

from reporting import attach, format_table, publish

DEPTHS = [1, 2, 3, 4, 5, 6]
BATCH = 500


def mr_pipeline_latency(depth: int) -> float:
    clock = SimClock()
    dfs = SimulatedDFS(clock)
    engine = MapReduceEngine(dfs)
    dfs.write_file("/stage0/part-0", [{"i": i} for i in range(BATCH)])
    specs = []
    for stage in range(depth):
        specs.append(
            MRJobSpec(
                name=f"stage{stage}",
                input_paths=[f"/stage{stage}"],
                output_path=f"/stage{stage + 1}",
                map_fn=lambda r: [(0, r)],
                reduce_fn=lambda key, values: values,
            )
        )
    results = engine.run_pipeline(specs, advance_clock=False)
    return sum(r.total_seconds for r in results)


def liquid_pipeline_latency(depth: int) -> float:
    liquid = Liquid(num_brokers=3)
    liquid.create_feed("stage0", partitions=1)
    for stage in range(depth):
        liquid.submit_job(
            JobConfig(
                name=f"stage{stage}",
                inputs=[f"stage{stage}"],
                task_factory=lambda s=stage: MapTask(f"stage{s + 1}"),
            ),
            outputs=[f"stage{stage + 1}"],
        )
    producer = liquid.producer()
    start = liquid.clock.now()
    for i in range(BATCH):
        producer.send("stage0", {"i": i})
    liquid.process_available()
    return liquid.clock.now() - start


def run_experiment() -> dict:
    rows = []
    mr_series, liquid_series = [], []
    for depth in DEPTHS:
        mr = mr_pipeline_latency(depth)
        liq = liquid_pipeline_latency(depth)
        mr_series.append(mr)
        liquid_series.append(liq)
        rows.append([depth, mr, liq, mr / liq])
    table = format_table(
        "E2  End-to-end pipeline latency vs. depth (simulated seconds)",
        ["stages", "MR/DFS (s)", "Liquid (s)", "speedup"],
        rows,
        notes=[
            "paper: MR latency grows with pipeline length (per-stage job "
            "startup + DFS materialization); Liquid stays nearline",
            f"batch of {BATCH} records per run",
        ],
    )
    publish("e2_pipeline_latency", table)
    mr_slope = (mr_series[-1] - mr_series[0]) / (DEPTHS[-1] - DEPTHS[0])
    liquid_slope = (liquid_series[-1] - liquid_series[0]) / (
        DEPTHS[-1] - DEPTHS[0]
    )
    return {
        "mr_slope": mr_slope,
        "liquid_slope": liquid_slope,
        "speedup_at_max_depth": mr_series[-1] / liquid_series[-1],
        "liquid_worst": max(liquid_series),
    }


class TestE2Shape:
    def test_mr_grows_per_stage_liquid_stays_nearline(self):
        metrics = run_experiment()
        # Each MR stage adds ~startup seconds; Liquid stages add milliseconds.
        assert metrics["mr_slope"] > 5.0          # >= job-startup scale
        assert metrics["liquid_slope"] < 0.5      # sub-second per stage
        assert metrics["speedup_at_max_depth"] > 50
        # Liquid's 6-stage pipeline still delivers within nearline bounds
        # (the paper's "order of seconds").
        assert metrics["liquid_worst"] < 10.0


@pytest.mark.benchmark(group="e2")
def test_e2_liquid_three_stage_kernel(benchmark):
    """Wall-clock kernel: one 3-stage Liquid pipeline run."""
    result = benchmark.pedantic(
        liquid_pipeline_latency, args=(3,), rounds=3, iterations=1
    )
    attach(benchmark, simulated_latency_s=result)
