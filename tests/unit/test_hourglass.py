"""Unit tests for the Hourglass incremental-MR baseline (§6 / ref [14])."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.baselines.dfs import SimulatedDFS
from repro.baselines.hourglass import HourglassJob
from repro.baselines.mapreduce import MapReduceEngine


def make_job(name="wc") -> tuple[SimulatedDFS, HourglassJob]:
    clock = SimClock()
    dfs = SimulatedDFS(clock)
    engine = MapReduceEngine(dfs)
    job = HourglassJob(
        dfs,
        engine,
        name=name,
        input_dir="/events",
        map_fn=lambda r: [(r["w"], 1)],
        aggregate_fn=sum,
        merge_fn=lambda a, b: a + b,
    )
    return dfs, job


def write_part(dfs, index, words):
    dfs.write_file(f"/events/part-{index:05d}", [{"w": w} for w in words])


class TestIncrementalRuns:
    def test_first_run_aggregates_everything(self):
        dfs, job = make_job()
        write_part(dfs, 0, ["a", "b", "a"])
        result = job.run()
        assert result.from_scratch
        assert result.new_files == 1
        assert result.records_read == 3
        assert job.result() == {"a": 2, "b": 1}

    def test_second_run_reads_only_new_files(self):
        dfs, job = make_job()
        write_part(dfs, 0, ["a"] * 50)
        job.run()
        write_part(dfs, 1, ["a", "b"])
        result = job.run()
        assert not result.from_scratch
        assert result.new_files == 1
        assert result.records_read == 2  # only the delta
        assert job.result() == {"a": 51, "b": 1}

    def test_no_new_files_is_free(self):
        dfs, job = make_job()
        write_part(dfs, 0, ["a"])
        job.run()
        result = job.run()
        assert result.new_files == 0
        assert result.total_seconds == 0.0

    def test_matches_from_scratch_aggregation(self):
        dfs, job = make_job()
        words = []
        for i in range(4):
            part = [f"w{j % 3}" for j in range(i + 2)]
            write_part(dfs, i, part)
            words.extend(part)
            job.run()
        expected = {}
        for w in words:
            expected[w] = expected.get(w, 0) + 1
        assert job.result() == expected

    def test_state_survives_job_object_restart(self):
        dfs, job = make_job()
        write_part(dfs, 0, ["a", "a"])
        job.run()
        # A new HourglassJob instance (process restart) picks up the
        # persisted state and processed-file list from the DFS.
        _dfs2, restarted = make_job()
        restarted.dfs = dfs
        restarted.engine.dfs = dfs
        fresh = HourglassJob(
            dfs, job.engine, "wc", "/events",
            map_fn=lambda r: [(r["w"], 1)],
            aggregate_fn=sum,
            merge_fn=lambda a, b: a + b,
        )
        write_part(dfs, 1, ["b"])
        result = fresh.run()
        assert result.records_read == 1
        assert fresh.result() == {"a": 2, "b": 1}

    def test_output_written_for_downstream_consumers(self):
        dfs, job = make_job()
        write_part(dfs, 0, ["x"])
        job.run()
        output = dict(dfs.read_file(job.output_path + "/part-00000").records)
        assert output == {"x": 1}

    def test_empty_name_rejected(self):
        dfs, _job = make_job()
        with pytest.raises(ConfigError):
            HourglassJob(
                dfs, MapReduceEngine(dfs), "", "/events",
                map_fn=lambda r: [], aggregate_fn=sum, merge_fn=lambda a, b: a,
            )


class TestCostProfile:
    def test_each_refresh_still_pays_job_startup(self):
        """Hourglass saves data cost, not the fixed MR overhead — the E3
        story for why nearline incremental processing wins."""
        dfs, job = make_job()
        write_part(dfs, 0, ["a"] * 1000)
        first = job.run()
        write_part(dfs, 1, ["a"])
        second = job.run()
        startup = job.engine.cost_model.mr_job_startup
        assert second.total_seconds >= startup   # delta of 1 record: ~10s!
        assert second.total_seconds < first.total_seconds
