"""Unit tests for the simulated DFS baseline."""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import CostModel
from repro.common.errors import (
    ConfigError,
    FileExistsInDfsError,
    FileNotFoundInDfsError,
)
from repro.baselines.dfs import SimulatedDFS


def make_dfs(**kwargs) -> SimulatedDFS:
    return SimulatedDFS(SimClock(), **kwargs)


class TestWriteRead:
    def test_roundtrip(self):
        dfs = make_dfs()
        records = [{"i": i} for i in range(10)]
        dfs.write_file("/data/part-0", records)
        result = dfs.read_file("/data/part-0")
        assert result.records == records
        assert result.latency > 0

    def test_files_immutable(self):
        dfs = make_dfs()
        dfs.write_file("/f", [1])
        with pytest.raises(FileExistsInDfsError):
            dfs.write_file("/f", [2])

    def test_overwrite_replaces(self):
        dfs = make_dfs()
        dfs.write_file("/f", [1])
        dfs.overwrite_file("/f", [2, 3])
        assert dfs.read_file("/f").records == [2, 3]

    def test_missing_file_rejected(self):
        with pytest.raises(FileNotFoundInDfsError):
            make_dfs().read_file("/nope")

    def test_read_returns_copy(self):
        dfs = make_dfs()
        dfs.write_file("/f", [{"a": 1}])
        result = dfs.read_file("/f")
        result.records.append("junk")
        assert len(dfs.read_file("/f").records) == 1

    def test_invalid_path_rejected(self):
        dfs = make_dfs()
        with pytest.raises(ConfigError):
            dfs.write_file("no-slash", [])
        with pytest.raises(ConfigError):
            dfs.write_file("/trailing/", [])


class TestNamespace:
    def test_list_dir_sorted_prefix(self):
        dfs = make_dfs()
        dfs.write_file("/logs/part-00001", [1])
        dfs.write_file("/logs/part-00000", [0])
        dfs.write_file("/other/part-00000", [9])
        assert dfs.list_dir("/logs") == ["/logs/part-00000", "/logs/part-00001"]

    def test_list_dir_exact_prefix_boundary(self):
        dfs = make_dfs()
        dfs.write_file("/logs-other/x", [1])
        assert dfs.list_dir("/logs") == []

    def test_delete(self):
        dfs = make_dfs()
        dfs.write_file("/f", [1])
        dfs.delete("/f")
        assert not dfs.exists("/f")
        with pytest.raises(FileNotFoundInDfsError):
            dfs.delete("/f")

    def test_read_dir_concatenates(self):
        dfs = make_dfs()
        dfs.write_file("/d/part-00000", [1, 2])
        dfs.write_file("/d/part-00001", [3])
        result = dfs.read_dir("/d")
        assert result.records == [1, 2, 3]


class TestCosts:
    def test_write_cost_includes_replication_transfer(self):
        records = [{"x": "y" * 100} for _ in range(100)]
        single = make_dfs(replication=1)
        triple = make_dfs(replication=3)
        assert (
            triple.write_file("/f", records).latency
            > single.write_file("/f", records).latency
        )

    def test_stored_bytes_count_replicas(self):
        dfs = make_dfs(replication=3)
        dfs.write_file("/f", [{"x": 1}])
        assert dfs.total_stored_bytes() == 3 * dfs.file_size("/f")

    def test_block_count_scales_with_size(self):
        model = CostModel(dfs_block_size=1024)
        dfs = SimulatedDFS(SimClock(cost_model=model))
        dfs.write_file("/big", [{"payload": "x" * 100} for _ in range(100)])
        assert dfs._files["/big"].num_blocks > 1

    def test_every_open_pays_namenode_overhead(self):
        dfs = make_dfs()
        dfs.write_file("/f", [1])
        latency = dfs.read_file("/f").latency
        assert latency >= dfs.cost_model.dfs_open_overhead

    def test_replication_validated(self):
        with pytest.raises(ConfigError):
            make_dfs(replication=0)
