"""The cold store: immutable objects keyed by name.

The offline tier of the tiered log is an object store in the S3/HDFS mold:
whole-object puts and gets, no appends, no offsets.  Paper §4.1 makes the
batch DFS the offline tier, so :class:`DfsObjectStore` persists objects as
files in a :class:`~repro.baselines.dfs.SimulatedDFS`, turning the paper's
batch-storage foil into the cold tier of the unified system.  Latency
charges the cross-tier cost model *plus* the DFS's own block mechanics
(namenode round trip, per-block seeks, replication pipeline).

Objects are immutable once written; an idempotent ``put`` of an existing key
(two replicas archiving the same segment) is a free no-op by design, which
is what makes replica-side archiving race-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import ObjectNotFoundError

if TYPE_CHECKING:  # pragma: no cover - avoids storage <-> baselines cycle
    from repro.baselines.dfs import SimulatedDFS


@dataclass
class ObjectPutResult:
    """Outcome of an object upload."""

    key: str
    size_bytes: int
    latency: float
    created: bool  # False when the key already existed (idempotent put)


@dataclass
class ObjectGetResult:
    """Outcome of an object download."""

    key: str
    records: list[Any] = field(default_factory=list)
    size_bytes: int = 0
    latency: float = 0.0


class DfsObjectStore:
    """Cold store persisted in a :class:`SimulatedDFS` under one root dir.

    The cross-tier transfer (request round trip + hydration/upload stream)
    comes from the cold cost model; the storage-side work (namenode, block
    seeks, replication pipeline) comes from the DFS itself — so archived
    bytes show up in the same ``total_stored_bytes`` accounting every DFS
    baseline uses, and cold reads are visibly more expensive than hot ones.
    """

    def __init__(self, dfs: "SimulatedDFS", root: str = "/cold") -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.cost_model = dfs.cost_model

    def _path(self, key: str) -> str:
        return f"{self.root}/{key}"

    def put(self, key: str, records: list[Any], size_bytes: int) -> ObjectPutResult:
        path = self._path(key)
        if self.dfs.exists(path):
            return ObjectPutResult(
                key, self.dfs.file_size(path), 0.0, created=False
            )
        dfs_result = self.dfs.write_file(path, records, size_bytes)
        latency = self.cost_model.cold_put(size_bytes) + dfs_result.latency
        return ObjectPutResult(key, size_bytes, latency, created=True)

    def get(self, key: str) -> ObjectGetResult:
        path = self._path(key)
        if not self.dfs.exists(path):
            raise ObjectNotFoundError(key)
        dfs_result = self.dfs.read_file(path)
        size = self.dfs.file_size(path)
        latency = self.cost_model.cold_fetch(size) + dfs_result.latency
        return ObjectGetResult(key, dfs_result.records, size, latency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DfsObjectStore(root={self.root!r})"
