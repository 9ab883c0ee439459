"""Cold-store abstraction: immutable objects keyed by name.

The offline tier of the tiered log is an object store in the S3/HDFS mold:
whole-object puts and gets, no appends, no offsets.  Two implementations:

* :class:`DfsObjectStore` — persists objects as files in a
  :class:`~repro.baselines.dfs.SimulatedDFS`, turning the paper's batch-
  storage foil into the cold tier of the unified system.  Latency charges
  the cross-tier cost model *plus* the DFS's own block mechanics (namenode
  round trip, per-block seeks, replication pipeline).
* :class:`InMemoryObjectStore` — a test double charging only the cold-tier
  cost model, with deterministic contents.

Objects are immutable once written; an idempotent ``put`` of an existing key
(two replicas archiving the same segment) is a free no-op by design, which
is what makes replica-side archiving race-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
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


class ObjectStore(Protocol):
    """Minimal cold-store surface the tiered subsystem depends on."""

    def put(self, key: str, records: list[Any], size_bytes: int) -> ObjectPutResult:
        """Upload ``records`` under ``key``; no-op if the key exists."""
        ...

    def get(self, key: str) -> ObjectGetResult:
        """Download the object stored under ``key``."""
        ...

    def exists(self, key: str) -> bool:
        ...

    def delete(self, key: str) -> None:
        ...

    def list_prefix(self, prefix: str) -> list[str]:
        """Keys under ``prefix``, sorted."""
        ...

    def size_of(self, key: str) -> int:
        ...

    def total_stored_bytes(self) -> int:
        ...


class InMemoryObjectStore:
    """Dict-backed cold store charging only the cold-tier cost model."""

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        self.cost_model = cost_model
        self._objects: dict[str, tuple[list[Any], int]] = {}
        self.puts = 0
        self.gets = 0

    def put(self, key: str, records: list[Any], size_bytes: int) -> ObjectPutResult:
        if key in self._objects:
            return ObjectPutResult(key, self._objects[key][1], 0.0, created=False)
        self._objects[key] = (list(records), size_bytes)
        self.puts += 1
        return ObjectPutResult(
            key, size_bytes, self.cost_model.cold_put(size_bytes), created=True
        )

    def get(self, key: str) -> ObjectGetResult:
        stored = self._objects.get(key)
        if stored is None:
            raise ObjectNotFoundError(key)
        records, size_bytes = stored
        self.gets += 1
        return ObjectGetResult(
            key, list(records), size_bytes, self.cost_model.cold_fetch(size_bytes)
        )

    def exists(self, key: str) -> bool:
        return key in self._objects

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise ObjectNotFoundError(key)
        del self._objects[key]

    def list_prefix(self, prefix: str) -> list[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def size_of(self, key: str) -> int:
        stored = self._objects.get(key)
        if stored is None:
            raise ObjectNotFoundError(key)
        return stored[1]

    def total_stored_bytes(self) -> int:
        return sum(size for _records, size in self._objects.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InMemoryObjectStore(objects={len(self._objects)})"


class DfsObjectStore:
    """Cold store persisted in a :class:`SimulatedDFS` under one root dir.

    The cross-tier transfer (request round trip + hydration/upload stream)
    comes from the cold cost model; the storage-side work (namenode, block
    seeks, replication pipeline) comes from the DFS itself — so archived
    bytes show up in the same ``total_stored_bytes`` accounting every DFS
    baseline uses, and cold reads are visibly more expensive than hot ones.
    """

    def __init__(
        self,
        dfs: "SimulatedDFS",
        root: str = "/cold",
        cost_model: CostModel | None = None,
    ) -> None:
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.cost_model = cost_model if cost_model is not None else dfs.cost_model

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

    def exists(self, key: str) -> bool:
        return self.dfs.exists(self._path(key))

    def delete(self, key: str) -> None:
        path = self._path(key)
        if not self.dfs.exists(path):
            raise ObjectNotFoundError(key)
        self.dfs.delete(path)

    def list_prefix(self, prefix: str) -> list[str]:
        start = len(self.root) + 1
        normalized = self._path(prefix)
        return sorted(
            p[start:] for p in self.dfs.list_dir(self.root)
            if p.startswith(normalized)
        )

    def size_of(self, key: str) -> int:
        path = self._path(key)
        if not self.dfs.exists(path):
            raise ObjectNotFoundError(key)
        return self.dfs.file_size(path)

    def total_stored_bytes(self) -> int:
        return sum(
            self.dfs.file_size(p) for p in self.dfs.list_dir(self.root)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DfsObjectStore(root={self.root!r})"
