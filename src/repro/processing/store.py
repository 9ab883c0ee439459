"""Local key-value stores for stateful tasks (§3.2, §4.4).

"Stateful jobs access state locally for efficiency.  State can be
represented as arbitrary data structures, e.g. a window of the most recent
stream data, a dictionary of statistics or an inverted index."  At LinkedIn
the store is RocksDB, chosen to keep state off the JVM heap; here we
reproduce its *shape* — a log-structured merge store with an in-memory
memtable and immutable sorted runs — because that shape is what interacts
with changelogs and compaction, while the GC motivation is moot in Python
(noted in DESIGN.md).

Two implementations share the :class:`KeyValueStore` interface:

* :class:`InMemoryStore` — plain dict; zero-cost, for tests and small state;
* :class:`LsmStore` — memtable + sorted runs with simulated probe costs from
  the cost model, including run compaction.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Iterator, Protocol, runtime_checkable

from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.common.errors import ConfigError, StateStoreError
from repro.common.records import estimate_size

#: Sentinel distinguishing "key absent" from "key stored with value None".
_MISSING = object()


@runtime_checkable
class KeyValueStore(Protocol):
    """Interface every task-local store implements."""

    def get(self, key: Any) -> Any: ...

    def put(self, key: Any, value: Any) -> None: ...

    def delete(self, key: Any) -> None: ...

    def __contains__(self, key: Any) -> bool: ...

    def items(self) -> Iterator[tuple[Any, Any]]: ...

    def range_items(
        self, start: Any = None, end: Any = None
    ) -> Iterator[tuple[Any, Any]]: ...

    def __len__(self) -> int: ...

    def approximate_size_bytes(self) -> int: ...

    def clear(self) -> None: ...


class InMemoryStore:
    """Dict-backed store; the zero-overhead baseline."""

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}

    def get(self, key: Any) -> Any:
        return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: Any) -> None:
        self._data.pop(key, None)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range_items()

    def range_items(
        self, start: Any = None, end: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``start <= repr(key) < end`` in key-repr order.

        Bounds are compared in the stores' native order — the ``repr`` of
        the key — so range semantics are identical for every store
        implementation (and for arbitrary hashable keys).  ``None`` means
        unbounded.
        """
        lo = None if start is None else repr(start)
        hi = None if end is None else repr(end)
        inside = []
        for key, value in self._data.items():
            sort_key = repr(key)
            if (lo is None or sort_key >= lo) and (hi is None or sort_key < hi):
                inside.append((sort_key, key, value))
        inside.sort(key=itemgetter(0))
        return iter([(key, value) for _sort_key, key, value in inside])

    def __len__(self) -> int:
        return len(self._data)

    def approximate_size_bytes(self) -> int:
        return sum(
            estimate_size(k) + estimate_size(v) + 16 for k, v in self._data.items()
        )

    def clear(self) -> None:
        self._data.clear()


class _SortedRun:
    """An immutable sorted run: (sort_key, key, value) triples.

    ``keys`` is the sort-key column of ``entries``, kept beside it so a
    probe is one C bisect over plain strings.
    """

    __slots__ = ("entries", "keys")

    def __init__(self, entries: list[tuple[str, Any, Any]]) -> None:
        self.entries = entries  # sorted by sort_key
        self.keys = [entry[0] for entry in entries]

    def get(self, sort_key: str) -> Any:
        keys = self.keys
        idx = bisect_left(keys, sort_key)
        if idx < len(keys) and keys[idx] == sort_key:
            return self.entries[idx][2]
        return _MISSING

    def between(self, lo: str | None, hi: str | None) -> list[tuple[str, Any, Any]]:
        """The entries with ``lo <= sort_key < hi``; ``None`` is unbounded."""
        keys = self.keys
        first = 0 if lo is None else bisect_left(keys, lo)
        stop = len(keys) if hi is None else bisect_left(keys, hi)
        return self.entries[first:stop]

    def __len__(self) -> int:
        return len(self.entries)


class LsmStore:
    """Log-structured merge store with simulated probe costs.

    Keys are ordered by ``repr`` so arbitrary hashable keys work; tombstones
    (deleted keys) are retained in runs until a full compaction merges them
    away — the same mechanics that make log compaction (E4) effective on the
    store's changelog.

    ``last_op_cost`` exposes the simulated cost of the most recent operation
    so the task runner can charge it to the job's CPU/IO budget.
    """

    def __init__(
        self,
        memtable_max_entries: int = 1000,
        max_runs: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if memtable_max_entries <= 0:
            raise ConfigError("memtable_max_entries must be > 0")
        if max_runs <= 0:
            raise ConfigError("max_runs must be > 0")
        self.memtable_max_entries = memtable_max_entries
        self.max_runs = max_runs
        self.cost_model = cost_model
        self._memtable: dict[str, tuple[Any, Any]] = {}  # sort_key -> (key, value)
        self._runs: list[_SortedRun] = []  # newest first
        self.last_op_cost = 0.0
        self.flushes = 0
        self.compactions = 0

    # -- point ops ---------------------------------------------------------------

    def get(self, key: Any) -> Any:
        sort_key = repr(key)
        cost = self.cost_model.store_memtable_get
        entry = self._memtable.get(sort_key)
        if entry is not None:
            self.last_op_cost = cost
            value = entry[1]
            return None if value is _MISSING else value
        for run in self._runs:
            cost += self.cost_model.store_run_get
            value = run.get(sort_key)
            if value is not _MISSING:
                self.last_op_cost = cost
                # A tombstone is stored as None, which is also the "absent"
                # return convention, so it can be returned directly.
                return value
        self.last_op_cost = cost
        return None

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise StateStoreError(
                "LsmStore cannot store None (reserved for tombstones); "
                "use delete() instead"
            )
        self._memtable[repr(key)] = (key, value)
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def delete(self, key: Any) -> None:
        self._memtable[repr(key)] = (key, _MISSING)
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def __contains__(self, key: Any) -> bool:
        sort_key = repr(key)
        entry = self._memtable.get(sort_key)
        if entry is not None:
            return entry[1] is not _MISSING
        for run in self._runs:
            value = run.get(sort_key)
            if value is not _MISSING:
                return value is not None
        return False

    # -- flush / compaction ----------------------------------------------------------

    def flush_memtable(self) -> None:
        """Freeze the memtable into a new sorted run."""
        if not self._memtable:
            return
        entries = sorted(
            (sort_key, key, None if value is _MISSING else value)
            for sort_key, (key, value) in self._memtable.items()
        )
        self._runs.insert(0, _SortedRun(entries))
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def compact(self) -> None:
        """Merge all runs into one, dropping tombstones and shadowed values."""
        merged: dict[str, tuple[Any, Any]] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            for sort_key, key, value in run.entries:
                merged[sort_key] = (key, value)
        survivors = sorted(
            (sort_key, key, value)
            for sort_key, (key, value) in merged.items()
            if value is not None
        )
        self._runs = [_SortedRun(survivors)] if survivors else []
        self.compactions += 1

    # -- scans ------------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All live (key, value) pairs in key-repr order."""
        return self.range_items()

    def range_items(
        self, start: Any = None, end: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``start <= repr(key) < end`` in key-repr order.

        Reads each run's slice of the range plus the memtable, never the
        rest of the store; the snapshot is taken at the first ``next``.
        """
        lo = None if start is None else repr(start)
        hi = None if end is None else repr(end)
        merged: dict[str, tuple[Any, Any]] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            for sort_key, key, value in run.between(lo, hi):
                merged[sort_key] = (key, value)
        for sort_key, (key, value) in self._memtable.items():
            if (lo is None or sort_key >= lo) and (hi is None or sort_key < hi):
                merged[sort_key] = (key, None if value is _MISSING else value)
        for sort_key in sorted(merged):
            key, value = merged[sort_key]
            if value is not None:
                yield key, value

    def scan_cost(self) -> float:
        """Simulated cost of one scan pass: memtable plus every run probe."""
        return (
            self.cost_model.store_memtable_get
            + self.cost_model.store_run_get * len(self._runs)
        )

    def __len__(self) -> int:
        live: dict[str, bool] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            for sort_key, _key, value in run.entries:
                live[sort_key] = value is not None
        for sort_key, (_key, value) in self._memtable.items():
            live[sort_key] = value is not _MISSING
        return sum(live.values())

    def approximate_size_bytes(self) -> int:
        total = 0
        for sort_key, (key, value) in self._memtable.items():
            total += estimate_size(key) + estimate_size(value) + 16
        for run in self._runs:
            for _sort_key, key, value in run.entries:
                total += estimate_size(key) + estimate_size(value) + 16
        return total

    def clear(self) -> None:
        self._memtable.clear()
        self._runs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LsmStore(memtable={len(self._memtable)}, runs={len(self._runs)})"
        )


#: Store factories by name for config-driven construction.
STORE_TYPES = {
    "memory": InMemoryStore,
    "lsm": LsmStore,
}


def make_store(store_type: str, **kwargs: Any) -> KeyValueStore:
    """Construct a store by type name (``"memory"`` or ``"lsm"``)."""
    factory = STORE_TYPES.get(store_type)
    if factory is None:
        raise ConfigError(
            f"unknown store type {store_type!r}; known: {sorted(STORE_TYPES)}"
        )
    return factory(**kwargs)
