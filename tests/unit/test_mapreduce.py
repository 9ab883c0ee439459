"""Unit tests for the MapReduce engine baseline."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigError, MapReduceError
from repro.baselines.dfs import SimulatedDFS
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec


def make_engine(**kwargs) -> tuple[SimClock, SimulatedDFS, MapReduceEngine]:
    clock = SimClock()
    dfs = SimulatedDFS(clock)
    return clock, dfs, MapReduceEngine(dfs, **kwargs)


def wordcount_spec(name="wc", inputs=("/in",), output="/out") -> MRJobSpec:
    return MRJobSpec(
        name=name,
        input_paths=list(inputs),
        output_path=output,
        map_fn=lambda r: [(r["word"], 1)],
        reduce_fn=lambda key, values: [(key, sum(values))],
    )


class TestWordCount:
    def test_correct_counts(self):
        _clock, dfs, engine = make_engine()
        words = ["a", "b", "a", "c", "a", "b"]
        dfs.write_file("/in/part-00000", [{"word": w} for w in words])
        result = engine.run(wordcount_spec())
        assert result.records_in == 6
        assert result.records_out == 3
        output = dict(dfs.read_file("/out/part-00000").records)
        assert output == {"a": 3, "b": 2, "c": 1}

    def test_multiple_input_dirs(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in1/part-0", [{"word": "x"}])
        dfs.write_file("/in2/part-0", [{"word": "x"}])
        engine.run(wordcount_spec(inputs=("/in1", "/in2")))
        output = dict(dfs.read_file("/out/part-00000").records)
        assert output == {"x": 2}

    def test_combiner_shrinks_shuffle_but_preserves_result(self):
        _clock, dfs, engine = make_engine()
        words = [{"word": f"w{i % 3}"} for i in range(300)]
        dfs.write_file("/in/part-0", words)
        plain = engine.run(wordcount_spec(output="/out-a"))
        combined_spec = MRJobSpec(
            name="wc-c",
            input_paths=["/in"],
            output_path="/out-b",
            map_fn=lambda r: [(r["word"], 1)],
            reduce_fn=lambda key, values: [(key, sum(values))],
            combiner=lambda key, values: [sum(values)],
        )
        combined = engine.run(combined_spec)
        assert dict(dfs.read_file("/out-a/part-00000").records) == dict(
            dfs.read_file("/out-b/part-00000").records
        )
        assert combined.shuffle_seconds < plain.shuffle_seconds

    def test_rerun_overwrites_output(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        engine.run(wordcount_spec())
        engine.run(wordcount_spec())  # no FileExists error
        assert dict(dfs.read_file("/out/part-00000").records) == {"x": 1}


class TestCosts:
    def test_startup_dominates_small_jobs(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        result = engine.run(wordcount_spec())
        assert result.startup_seconds > 0.9 * result.total_seconds

    def test_clock_advanced_by_job_duration(self):
        clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        result = engine.run(wordcount_spec())
        assert clock.now() == pytest.approx(result.total_seconds)

    def test_advance_clock_disabled(self):
        clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        engine.run(wordcount_spec(), advance_clock=False)
        assert clock.now() == 0.0

    def test_parallelism_shrinks_data_costs(self):
        _clock, dfs1, slow = make_engine(map_parallelism=1, reduce_parallelism=1)
        records = [{"word": f"w{i}"} for i in range(2000)]
        dfs1.write_file("/in/part-0", records)
        slow_result = slow.run(wordcount_spec())
        _clock2, dfs2, fast = make_engine(map_parallelism=8, reduce_parallelism=8)
        dfs2.write_file("/in/part-0", records)
        fast_result = fast.run(wordcount_spec())
        assert fast_result.map_seconds < slow_result.map_seconds
        assert fast_result.shuffle_seconds < slow_result.shuffle_seconds

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ConfigError):
            make_engine(map_parallelism=0)


class TestPipelines:
    def test_pipeline_chains_through_dfs(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}, {"word": "y"}])
        stage1 = MRJobSpec(
            name="s1", input_paths=["/in"], output_path="/mid",
            map_fn=lambda r: [(r["word"], 1)],
            reduce_fn=lambda k, vs: [{"word": k.upper()}],
        )
        stage2 = MRJobSpec(
            name="s2", input_paths=["/mid"], output_path="/final",
            map_fn=lambda r: [(r["word"], 1)],
            reduce_fn=lambda k, vs: [(k, sum(vs))],
        )
        results = engine.run_pipeline([stage1, stage2])
        assert len(results) == 2
        output = dict(dfs.read_file("/final/part-00000").records)
        assert output == {"X": 1, "Y": 1}

    def test_pipeline_cost_scales_with_depth(self):
        """E2's structural fact: each stage pays startup again."""
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])

        def identity_stage(i):
            return MRJobSpec(
                name=f"s{i}",
                input_paths=["/in" if i == 0 else f"/mid{i - 1}"],
                output_path=f"/mid{i}",
                map_fn=lambda r: [(0, r)],
                reduce_fn=lambda k, vs: vs,
            )

        short = sum(
            r.total_seconds for r in engine.run_pipeline([identity_stage(0)])
        )
        long = sum(
            r.total_seconds
            for r in engine.run_pipeline([identity_stage(i) for i in range(4)])
        )
        assert long > 3.5 * short


class TestFailures:
    def test_map_error_wrapped(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        spec = MRJobSpec(
            name="bad", input_paths=["/in"], output_path="/out",
            map_fn=lambda r: 1 / 0,
            reduce_fn=lambda k, vs: vs,
        )
        with pytest.raises(MapReduceError, match="map_fn"):
            engine.run(spec)

    def test_reduce_error_wrapped(self):
        _clock, dfs, engine = make_engine()
        dfs.write_file("/in/part-0", [{"word": "x"}])
        spec = MRJobSpec(
            name="bad", input_paths=["/in"], output_path="/out",
            map_fn=lambda r: [(1, r)],
            reduce_fn=lambda k, vs: 1 / 0,
        )
        with pytest.raises(MapReduceError, match="reduce_fn"):
            engine.run(spec)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            MRJobSpec(
                name="x", input_paths=[], output_path="/o",
                map_fn=lambda r: [], reduce_fn=lambda k, v: [],
            )
