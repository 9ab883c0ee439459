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

Both are keyed by the key itself, so a point operation is a dict operation,
and both order keys by one definition, :func:`order_key`, which runs only
where order matters: when a run is built and when a range is cut.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import countOf, itemgetter
from typing import Any, Iterator, Protocol, runtime_checkable

from repro.common.clock import SimClock
from repro.common.costmodel import CostModel
from repro.common.errors import ConfigError, StateStoreError
from repro.common.records import estimate_size

#: Ranks of the key types in the store order, lowest first.
_NUMBER, _STR, _BYTES, _OTHER = range(4)
_JUST_STR = frozenset((str,))
#: Types of a bound that cuts a run of ``str`` keys as it is.
_PLAIN_BOUND = (str, type(None))


def order_key(key: Any) -> tuple[int, Any]:
    """A key's place in the store order.

    Numbers (``int``, ``float``, ``bool``) order numerically, ``str`` by code
    point, ``bytes`` bytewise, and across types numbers < ``str`` <
    ``bytes`` < everything else, which orders by ``repr``.
    """
    if isinstance(key, str):
        return _STR, key
    if isinstance(key, (int, float)):
        return _NUMBER, key
    if isinstance(key, bytes):
        return _BYTES, key
    return _OTHER, repr(key)


def _all_str(keys) -> bool:
    """Whether every key is a plain ``str``, so keys sort as they are."""
    return set(map(type, keys)) <= _JUST_STR


def in_order(keys) -> list:
    """``keys`` sorted in the store order."""
    if _all_str(keys):
        return sorted(keys)
    return sorted(keys, key=order_key)


def _item_order(item: tuple[Any, Any]) -> tuple[int, Any]:
    return order_key(item[0])


def sort_items(items: list[tuple[Any, Any]]) -> None:
    """Sort ``(key, value)`` pairs in place, in the store order of their
    keys (merging shards' range answers)."""
    if _all_str(map(itemgetter(0), items)):
        items.sort(key=itemgetter(0))
    else:
        items.sort(key=_item_order)


def _between(entries: dict, start: Any, end: Any) -> dict:
    """The entries whose keys lie in ``[start, end)`` in the store order;
    ``None`` is unbounded."""
    if start is None and end is None:
        return entries
    if type(start) in _PLAIN_BOUND and type(end) in _PLAIN_BOUND:
        # str bounds compare with str keys directly; any other key raises.
        items = entries.items()
        try:
            if start is None:
                return {key: value for key, value in items if key < end}
            if end is None:
                return {key: value for key, value in items if start <= key}
            return {key: value for key, value in items if start <= key < end}
        except TypeError:
            pass
    lo = None if start is None else order_key(start)
    hi = None if end is None else order_key(end)
    inside = {}
    for key, value in entries.items():
        rank = order_key(key)
        if (lo is None or lo <= rank) and (hi is None or rank < hi):
            inside[key] = value
    return inside


@runtime_checkable
class KeyValueStore(Protocol):
    """Interface every task-local store implements."""

    def get(self, key: Any) -> Any: ...

    def put(self, key: Any, value: Any) -> None: ...

    def put_many(self, writes: dict[Any, Any]) -> None: ...

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

    def put_many(self, writes: dict[Any, Any]) -> None:
        """Apply a run of writes at once; value ``None`` deletes."""
        data = self._data
        data |= writes
        if None in writes.values():
            for key, value in writes.items():
                if value is None:
                    del data[key]

    def delete(self, key: Any) -> None:
        self._data.pop(key, None)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range_items()

    def range_items(
        self, start: Any = None, end: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Pairs with ``start <= key < end`` in the store order
        (:func:`order_key`); ``None`` means unbounded.  The snapshot is taken
        at the call."""
        inside = _between(self._data, start, end)
        return iter([(key, inside[key]) for key in in_order(inside)])

    def __len__(self) -> int:
        return len(self._data)

    def approximate_size_bytes(self) -> int:
        return sum(
            estimate_size(k) + estimate_size(v) + 16 for k, v in self._data.items()
        )

    def clear(self) -> None:
        self._data.clear()


class _SortedRun:
    """An immutable sorted run.

    ``data`` maps each key to its value (``None`` for a tombstone), in key
    order, so a probe is one dict lookup.  ``keys`` is its ordered key
    column.  ``column`` is what a range cut bisects: ``keys`` itself when
    every key is a ``str``, else the keys' order keys.
    """

    __slots__ = ("data", "keys", "column")

    def __init__(self, entries: dict[Any, Any]) -> None:
        if _all_str(entries):
            self.keys = self.column = sorted(entries)
        else:
            self.keys = sorted(entries, key=order_key)
            self.column = list(map(order_key, self.keys))
        self.data = {key: entries[key] for key in self.keys}


class LsmStore:
    """Log-structured merge store with simulated probe costs.

    Keyed by the key itself, in the store order of :func:`order_key`;
    tombstones (deleted keys, value ``None``) are retained in the memtable
    and runs until a full compaction merges them away — the same mechanics
    that make log compaction (E4) effective on the store's changelog.

    ``last_op_cost`` exposes the simulated cost of the most recent operation
    so the task runner can charge it to the job's CPU/IO budget.  A store
    holds no clock, so it is handed the world's model (:func:`make_store`
    reads it off the clock).
    """

    def __init__(
        self,
        cost_model: CostModel,
        memtable_max_entries: int = 1000,
        max_runs: int = 4,
    ) -> None:
        if memtable_max_entries <= 0:
            raise ConfigError("memtable_max_entries must be > 0")
        if max_runs <= 0:
            raise ConfigError("max_runs must be > 0")
        self.memtable_max_entries = memtable_max_entries
        self.max_runs = max_runs
        self.cost_model = cost_model
        self._memtable: dict[Any, Any] = {}  # key -> value, None a tombstone
        self._runs: list[_SortedRun] = []  # newest first
        self.last_op_cost = 0.0
        self.flushes = 0
        self.compactions = 0

    # -- point ops ---------------------------------------------------------------

    def get(self, key: Any) -> Any:
        cost = self.cost_model.store_memtable_get
        memtable = self._memtable
        if key in memtable:
            self.last_op_cost = cost
            return memtable[key]
        for run in self._runs:
            cost += self.cost_model.store_run_get
            data = run.data
            if key in data:
                self.last_op_cost = cost
                # A tombstone is None, which is also the "absent" return.
                return data[key]
        self.last_op_cost = cost
        return None

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise StateStoreError(
                "LsmStore cannot store None (reserved for tombstones); "
                "use delete() instead"
            )
        self._memtable[key] = value
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def put_many(self, writes: dict[Any, Any]) -> None:
        """Apply a run of writes, value ``None`` a tombstone: one dict update
        and one flush check, so the memtable may overrun
        ``memtable_max_entries`` by the run's distinct keys before it
        flushes."""
        self._memtable |= writes
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def delete(self, key: Any) -> None:
        self._memtable[key] = None
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def __contains__(self, key: Any) -> bool:
        memtable = self._memtable
        if key in memtable:
            return memtable[key] is not None
        for run in self._runs:
            data = run.data
            if key in data:
                return data[key] is not None
        return False

    # -- flush / compaction ----------------------------------------------------------

    def flush_memtable(self) -> None:
        """Freeze the memtable into a new sorted run."""
        if not self._memtable:
            return
        self._runs.insert(0, _SortedRun(self._memtable))
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def compact(self) -> None:
        """Merge all runs into one, dropping tombstones and shadowed values."""
        merged: dict[Any, Any] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            merged |= run.data
        survivors = {key: value for key, value in merged.items() if value is not None}
        self._runs = [_SortedRun(survivors)] if survivors else []
        self.compactions += 1

    # -- scans ------------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All live (key, value) pairs in the store order."""
        return self.range_items()

    def range_items(
        self, start: Any = None, end: Any = None
    ) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``start <= key < end`` in the store order
        (:func:`order_key`); ``None`` means unbounded.

        Reads each run's slice of the range plus the memtable, never the
        rest of the store; the snapshot is taken at the first ``next``.
        """
        # A run of str keys is cut by a str bound as it is; a bound of
        # another type lies before or after all of it.  Any other run is cut
        # by the bounds' order keys.  Both are computed once per scan.
        lo = None if start is None else order_key(start)
        hi = None if end is None else order_key(end)
        str_lo = start if lo is not None and lo[0] == _STR else None
        str_hi = end if hi is not None and hi[0] == _STR else None
        str_empty = (lo is not None and lo[0] > _STR) or (
            hi is not None and hi[0] < _STR
        )
        merged: dict[Any, Any] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            keys, column, data = run.keys, run.column, run.data
            if column is not keys:
                first = 0 if lo is None else bisect_left(column, lo)
                stop = None if hi is None else bisect_left(column, hi)
            elif str_empty:
                continue
            else:
                first = 0 if str_lo is None else bisect_left(keys, str_lo)
                stop = None if str_hi is None else bisect_left(keys, str_hi)
            for key in keys[first:stop]:
                merged[key] = data[key]
        merged |= _between(self._memtable, start, end)
        for key in in_order(merged):
            value = merged[key]
            if value is not None:
                yield key, value

    def scan_cost(self) -> float:
        """Simulated cost of one scan pass: memtable plus every run probe."""
        return (
            self.cost_model.store_memtable_get
            + self.cost_model.store_run_get * len(self._runs)
        )

    def __len__(self) -> int:
        live: dict[Any, Any] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrites
            live |= run.data
        live |= self._memtable
        return len(live) - countOf(live.values(), None)

    def approximate_size_bytes(self) -> int:
        """Every entry the store holds, a tombstone charged as a ``None``
        value wherever it sits."""
        total = 0
        for key, value in self._memtable.items():
            total += estimate_size(key) + estimate_size(value) + 16
        for run in self._runs:
            for key, value in run.data.items():
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


def make_store(store_type: str, clock: SimClock, **kwargs: Any) -> KeyValueStore:
    """Construct a store by type name (``"memory"`` or ``"lsm"``).

    A store type that charges simulated time (``"lsm"``) charges the model
    of ``clock``, the simulated world's, whatever ``kwargs`` say.
    """
    factory = STORE_TYPES.get(store_type)
    if factory is None:
        raise ConfigError(
            f"unknown store type {store_type!r}; known: {sorted(STORE_TYPES)}"
        )
    if factory is LsmStore:
        kwargs["cost_model"] = clock.cost_model
    return factory(**kwargs)
