"""Hourglass-style incremental MapReduce (paper ref [14], §6).

"The incremental processing of continuously-changing data has received
attention in both industry [14 = Hayes & Shah, 'Hourglass: a Library for
Incremental Processing on Hadoop'] and academia ..."

Hourglass makes *MR jobs* incremental: per-key partial aggregates from
previous runs are persisted alongside the output, and a new run maps only
the input part-files that appeared since, then reduces the new partials
together with the saved state.  The data-proportional cost becomes
delta-proportional — but every refresh still pays the fixed MR job startup,
which is exactly why the paper argues incremental processing belongs in the
nearline stack instead (E3 measures all three: full MR recompute, Hourglass
incremental MR, Liquid incremental).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.common.errors import ConfigError
from repro.baselines.dfs import SimulatedDFS
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec

MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
#: Combines mapped contributions for one key into a partial aggregate.
AggregateFn = Callable[[list[Any]], Any]
#: Merges two partial aggregates of the same key.
MergeFn = Callable[[Any, Any], Any]


@dataclass
class HourglassRunResult:
    """Outcome of one incremental refresh."""

    new_files: int
    records_read: int
    total_seconds: float
    from_scratch: bool


class HourglassJob:
    """An incrementally-refreshable MR aggregation over a DFS directory."""

    def __init__(
        self,
        dfs: SimulatedDFS,
        engine: MapReduceEngine,
        name: str,
        input_dir: str,
        map_fn: MapFn,
        aggregate_fn: AggregateFn,
        merge_fn: MergeFn,
    ) -> None:
        if not name:
            raise ConfigError("job name must be non-empty")
        self.dfs = dfs
        self.engine = engine
        self.name = name
        self.input_dir = input_dir
        self.map_fn = map_fn
        self.aggregate_fn = aggregate_fn
        self.merge_fn = merge_fn
        self._state_path = f"/hourglass/{name}/state"
        self._processed_path = f"/hourglass/{name}/processed"
        self.output_path = f"/hourglass/{name}/output"

    # -- persisted bookkeeping ---------------------------------------------------

    def _load_processed(self) -> set[str]:
        if not self.dfs.exists(self._processed_path):
            return set()
        return set(self.dfs.read_file(self._processed_path).records)

    def _load_state(self) -> dict[Any, Any]:
        if not self.dfs.exists(self._state_path):
            return {}
        return dict(self.dfs.read_file(self._state_path).records)

    # -- refresh -------------------------------------------------------------------

    def run(self) -> HourglassRunResult:
        """Refresh the aggregate, mapping only unseen input part-files."""
        processed = self._load_processed()
        all_files = self.dfs.list_dir(self.input_dir)
        new_files = [path for path in all_files if path not in processed]
        state = self._load_state()
        from_scratch = not processed

        if not new_files:
            return HourglassRunResult(0, 0, 0.0, from_scratch)

        aggregate_fn = self.aggregate_fn

        def reduce_to_pairs(key: Any, values: list[Any]) -> Iterable[Any]:
            yield (key, aggregate_fn(values))

        # The MR engine reads whole directories, so the delta is staged
        # under its own prefix (as real Hourglass does with date partitions).
        staging = f"/hourglass/{self.name}/staging"
        for path in self.dfs.list_dir(staging):
            self.dfs.delete(path)
        for i, path in enumerate(new_files):
            records = self.dfs.read_file(path).records
            self.dfs.write_file(f"{staging}/part-{i:05d}", records)

        spec = MRJobSpec(
            name=f"hourglass-{self.name}",
            input_paths=[staging],
            output_path=f"/hourglass/{self.name}/delta",
            map_fn=self.map_fn,
            reduce_fn=reduce_to_pairs,
        )
        result = self.engine.run(spec)

        delta = dict(
            self.dfs.read_file(f"/hourglass/{self.name}/delta/part-00000").records
        )
        for key, partial in delta.items():
            if key in state:
                state[key] = self.merge_fn(state[key], partial)
            else:
                state[key] = partial

        self.dfs.overwrite_file(self._state_path, sorted(state.items(), key=repr))
        self.dfs.overwrite_file(
            self._processed_path, sorted(processed | set(new_files))
        )
        self.dfs.overwrite_file(self.output_path + "/part-00000",
                                sorted(state.items(), key=repr))
        return HourglassRunResult(
            new_files=len(new_files),
            records_read=result.records_in,
            total_seconds=result.total_seconds,
            from_scratch=from_scratch,
        )

    # -- queries ----------------------------------------------------------------------

    def result(self) -> dict[Any, Any]:
        """The current aggregate (empty before the first run)."""
        return self._load_state()
