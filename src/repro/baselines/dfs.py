"""A simulated distributed file system (GFS/HDFS stand-in).

The paper's foil: "the storage layer uses a DFS to store data in a
cost-effective way ... the coarse-grained data access of a MR/DFS stack is
only appropriate for batch-oriented processing."

The simulation reproduces the *structural* properties the paper criticizes:

* files are immutable once closed — new data means new files, and updates
  mean rewriting;
* access is coarse-grained: the unit of I/O is the block (64 MB by
  default), and every open pays a namenode round trip;
* there is no notion of offsets, subscriptions, or incremental reads — a
  consumer wanting "what's new" must list the directory and re-read.

Latency is charged through the same cost model as the messaging layer, so
E1/E2 comparisons are apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import ConfigError, FileExistsInDfsError, FileNotFoundInDfsError
from repro.common.records import estimate_size


@dataclass
class DfsFile:
    """An immutable, block-replicated file."""

    path: str
    records: list[Any]
    size_bytes: int
    num_blocks: int
    replication: int
    created_at: float


@dataclass
class DfsOpResult:
    """Outcome of a DFS operation with its simulated latency."""

    latency: float
    records: list[Any] = field(default_factory=list)
    bytes_moved: int = 0


class SimulatedDFS:
    """Namenode + block storage with replication, as one object."""

    def __init__(
        self,
        clock: SimClock | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        replication: int = 3,
    ) -> None:
        if replication <= 0:
            raise ConfigError("replication must be > 0")
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = cost_model
        self.replication = replication
        self._files: dict[str, DfsFile] = {}
        self.total_bytes_written = 0
        self.total_bytes_read = 0

    # -- write path ---------------------------------------------------------------------

    def write_file(
        self, path: str, records: list[Any], size_bytes: int | None = None
    ) -> DfsOpResult:
        """Create an immutable file from ``records``.

        The file is ``size_bytes`` long when the caller knows its bytes (an
        archived log segment: its records' stored sizes); otherwise each
        record is sized with :func:`estimate_size` plus 16 bytes of framing.
        Cost: namenode create + per-block (seek + sequential write) on the
        primary, plus the pipeline transfer to ``replication - 1`` replicas.
        """
        self._validate_path(path)
        if path in self._files:
            raise FileExistsInDfsError(path)
        if size_bytes is not None:
            size = size_bytes
        else:
            size = sum(estimate_size(r) + 16 for r in records)
        num_blocks = max(1, math.ceil(size / self.cost_model.dfs_block_size))
        latency = self.cost_model.dfs_open_overhead
        latency += num_blocks * self.cost_model.disk_seek_time
        latency += self.cost_model.disk_sequential_write(size)
        # Replication pipeline: data crosses the wire once per extra replica,
        # but replicas write in parallel, so only the transfer serializes.
        latency += (self.replication - 1) * self.cost_model.network_transfer(size)
        self._files[path] = DfsFile(
            path=path,
            records=list(records),
            size_bytes=size,
            num_blocks=num_blocks,
            replication=self.replication,
            created_at=self.clock.now(),
        )
        stored = size * self.replication
        self.total_bytes_written += stored
        return DfsOpResult(latency=latency, bytes_moved=stored)

    def overwrite_file(self, path: str, records: list[Any]) -> DfsOpResult:
        """Delete-and-rewrite (the DFS 'update'): full cost every time."""
        if path in self._files:
            self.delete(path)
        return self.write_file(path, records)

    # -- read path ----------------------------------------------------------------------

    def read_file(self, path: str) -> DfsOpResult:
        """Read a whole file (the only read granularity below a block).

        Cost: namenode open + per-block seek + sequential read of all bytes.
        """
        dfs_file = self._require(path)
        latency = self.cost_model.dfs_open_overhead
        latency += dfs_file.num_blocks * self.cost_model.disk_seek_time
        latency += self.cost_model.disk_sequential_read(dfs_file.size_bytes)
        self.total_bytes_read += dfs_file.size_bytes
        return DfsOpResult(
            latency=latency,
            records=list(dfs_file.records),
            bytes_moved=dfs_file.size_bytes,
        )

    def read_dir(self, prefix: str) -> DfsOpResult:
        """Read every file under a directory prefix, concatenated.

        This is how a batch consumer gets "the topic": list + read all, with
        no way to skip already-seen data — the coarse-grained access E3's
        full-recompute baseline pays.
        """
        result = DfsOpResult(latency=self.cost_model.dfs_open_overhead)
        for path in self.list_dir(prefix):
            one = self.read_file(path)
            result.latency += one.latency
            result.records.extend(one.records)
            result.bytes_moved += one.bytes_moved
        return result

    # -- namespace ------------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        self._require(path)
        del self._files[path]

    def list_dir(self, prefix: str) -> list[str]:
        """Paths under ``prefix``, sorted (creation order == name order by
        convention: callers use zero-padded part numbers)."""
        normalized = prefix.rstrip("/") + "/"
        return sorted(p for p in self._files if p.startswith(normalized))

    def file_size(self, path: str) -> int:
        return self._require(path).size_bytes

    def total_stored_bytes(self) -> int:
        """Bytes on disk including replication."""
        return sum(f.size_bytes * f.replication for f in self._files.values())

    def _require(self, path: str) -> DfsFile:
        dfs_file = self._files.get(path)
        if dfs_file is None:
            raise FileNotFoundInDfsError(path)
        return dfs_file

    @staticmethod
    def _validate_path(path: str) -> None:
        if not path.startswith("/") or path.endswith("/"):
            raise ConfigError(f"invalid DFS path {path!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedDFS(files={len(self._files)})"
