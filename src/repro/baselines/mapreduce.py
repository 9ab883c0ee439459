"""A MapReduce engine over the simulated DFS (the paper's legacy stack).

"Today's data integration stacks are frequently based on a MapReduce model —
they run custom ETL-like MR jobs on commodity shared-nothing clusters with
scalable distributed file systems ... Intermediate results of MR jobs are
written to the DFS, resulting in higher latencies as job pipelines grow in
length."

The engine reproduces the cost structure behind that sentence:

* fixed *job startup* (YARN negotiation, JVM spin-up) per job;
* map tasks read whole input files (coarse-grained);
* intermediate results are **materialized** (local disk write + shuffle
  transfer + reducer-side read);
* reducer output is written back to the DFS, replicated;
* a pipeline of N jobs pays all of it N times (E2's baseline curve).

Map/reduce parallelism divides the data-proportional costs but not the fixed
ones, which is exactly why short nearline jobs are dominated by overhead.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.common.clock import SimClock
from repro.common.errors import ConfigError, MapReduceError
from repro.common.records import estimate_size
from repro.baselines.dfs import SimulatedDFS

MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
ReduceFn = Callable[[Any, list[Any]], Iterable[Any]]


@dataclass(frozen=True)
class MRJobSpec:
    """One MapReduce job: input dir(s) → map → shuffle → reduce → output dir."""

    name: str
    input_paths: tuple[str, ...] | list[str]
    output_path: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    combiner: ReduceFn | None = None

    def __post_init__(self) -> None:
        if not self.input_paths:
            raise ConfigError(f"MR job {self.name!r} has no inputs")


@dataclass
class MRJobResult:
    """Outcome and simulated cost breakdown of one MR job."""

    records_in: int = 0
    records_out: int = 0
    startup_seconds: float = 0.0
    map_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    reduce_seconds: float = 0.0
    output_write_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.startup_seconds
            + self.map_seconds
            + self.shuffle_seconds
            + self.reduce_seconds
            + self.output_write_seconds
        )


class MapReduceEngine:
    """Executes MR jobs and pipelines against a :class:`SimulatedDFS`."""

    def __init__(
        self,
        dfs: SimulatedDFS,
        clock: SimClock | None = None,
        map_parallelism: int = 4,
        reduce_parallelism: int = 2,
    ) -> None:
        if map_parallelism <= 0 or reduce_parallelism <= 0:
            raise ConfigError("parallelism must be > 0")
        self.dfs = dfs
        self.clock = clock if clock is not None else dfs.clock
        self.cost_model = self.clock.cost_model
        self.map_parallelism = map_parallelism
        self.reduce_parallelism = reduce_parallelism

    # -- single job ---------------------------------------------------------------------

    def run(self, spec: MRJobSpec, advance_clock: bool = True) -> MRJobResult:
        """Run one MR job; optionally advance the simulated clock by its
        duration (so downstream jobs see correct wall-clock)."""
        result = MRJobResult()
        result.startup_seconds = (
            self.cost_model.mr_job_startup
            + (self.map_parallelism + self.reduce_parallelism)
            * self.cost_model.mr_task_startup
        )

        # Map phase: read inputs (parallelized), apply map_fn.
        records, read_latency = self._read_inputs(spec)
        result.records_in = len(records)
        map_cpu = len(records) * self.cost_model.cpu_per_message
        intermediate: list[tuple[Any, Any]] = []
        for record in records:
            try:
                intermediate.extend(spec.map_fn(record))
            except Exception as exc:
                raise MapReduceError(
                    f"map_fn of job {spec.name!r} failed: {exc}"
                ) from exc
        result.map_seconds = (read_latency + map_cpu) / self.map_parallelism

        # Optional combiner shrinks the shuffle.
        if spec.combiner is not None:
            intermediate = self._combine(spec, intermediate)

        # Shuffle: materialize intermediate on local disk, transfer to
        # reducers, read back — the per-stage cost the paper calls out.
        inter_bytes = sum(
            estimate_size(k) + estimate_size(v) + 8 for k, v in intermediate
        )
        materialize = self.cost_model.disk_sequential_write(inter_bytes)
        transfer = self.cost_model.network_transfer(inter_bytes)
        reread = self.cost_model.disk_sequential_read(inter_bytes)
        sort_cost = (
            len(intermediate)
            * max(1, math.ceil(math.log2(len(intermediate) + 1)))
            * self.cost_model.cpu_per_message
            / 4
        )
        result.shuffle_seconds = (
            materialize + transfer + reread + sort_cost
        ) / self.reduce_parallelism

        # Reduce phase.
        grouped: dict[Any, list[Any]] = defaultdict(list)
        for key, value in intermediate:
            grouped[key].append(value)
        output: list[Any] = []
        for key in sorted(grouped, key=repr):
            try:
                output.extend(spec.reduce_fn(key, grouped[key]))
            except Exception as exc:
                raise MapReduceError(
                    f"reduce_fn of job {spec.name!r} failed: {exc}"
                ) from exc
        result.reduce_seconds = (
            len(intermediate) * self.cost_model.cpu_per_message
        ) / self.reduce_parallelism
        result.records_out = len(output)

        # Output write: back to the DFS, replicated.
        part = f"{spec.output_path}/part-00000"
        write = self.dfs.overwrite_file(part, output)
        result.output_write_seconds = write.latency

        if advance_clock:
            self.clock.advance(result.total_seconds)
        return result

    def _read_inputs(self, spec: MRJobSpec) -> tuple[list[Any], float]:
        records: list[Any] = []
        latency = 0.0
        for path in spec.input_paths:
            result = self.dfs.read_dir(path)
            records.extend(result.records)
            latency += result.latency
        return records, latency

    def _combine(
        self, spec: MRJobSpec, intermediate: list[tuple[Any, Any]]
    ) -> list[tuple[Any, Any]]:
        grouped: dict[Any, list[Any]] = defaultdict(list)
        for key, value in intermediate:
            grouped[key].append(value)
        combined: list[tuple[Any, Any]] = []
        for key, values in grouped.items():
            assert spec.combiner is not None
            for value in spec.combiner(key, values):
                combined.append((key, value))
        return combined

    # -- pipelines (E2) --------------------------------------------------------------------

    def run_pipeline(
        self, specs: list[MRJobSpec], advance_clock: bool = True
    ) -> list[MRJobResult]:
        """Run jobs sequentially; stage N+1 reads stage N's DFS output.

        End-to-end latency is the sum of per-job totals — each stage pays
        startup and materialization again, which is the curve the Liquid
        pipeline (hops through the log, no startup) is compared against.
        """
        results = []
        for spec in specs:
            results.append(self.run(spec, advance_clock=advance_clock))
        return results
