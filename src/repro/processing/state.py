"""Explicit task state with changelog-backed durability (§3.2).

"Our solution is for the processing layer to publish state updates to a
changelog, which is a derived feed stored by the messaging layer.  After
failure, state is reconstructed from the changelog."

:class:`KeyValueState` wraps a local :class:`~repro.processing.store.LsmStore`
behind a write-behind pass cache (Samza's ``CachedStore``): a pass's writes
collect in one dict, last value per key, and at the pass's hand-over land in
the store as one ``put_many`` and in a *compacted* changelog topic as one
run.  Because the changelog is keyed by the state key, compaction (§4.1)
bounds its size by the number of live keys, which is what makes recovery
fast (E4); the pass cache ships only what compaction would keep of the pass.

:func:`replay_changelog` is the way back: the cold restore and the standby
tail both run it, and it reads the changelog through a
:class:`~repro.messaging.reader.PartitionReader` drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.errors import StateStoreError
from repro.common.records import EMPTY_HEADERS, TopicPartition
from repro.messaging.reader import PartitionReader
from repro.processing.store import LsmStore


def changelog_topic_name(job_name: str, store_name: str) -> str:
    """Canonical changelog topic for a job's store (Samza convention)."""
    return f"__changelog-{job_name}-{store_name}"


@dataclass
class CatchUpStats:
    """What one pass of :func:`replay_changelog` applied and what it
    (simulatedly) cost."""

    records_applied: int = 0
    simulated_seconds: float = 0.0
    #: Offsets jumped over because retention deleted them before the reader
    #: could read them (only ever non-zero on a reseat).
    records_skipped: int = 0
    #: Whether the pass had to clear the store and rewind to the beginning.
    reseated: bool = False


def replay_changelog(
    cluster,
    tp: TopicPartition,
    store: LsmStore,
    position: int | None,
    isolation: str,
    batch: int,
    limit_offset: int | None = None,
    max_records: int | None = None,
) -> tuple[int, CatchUpStats]:
    """Apply changelog partition ``tp`` to ``store`` from ``position`` (the
    earliest offset when ``None``) up to its end, or ``limit_offset``;
    returns where the next pass starts, and the pass's stats.

    Each fetched batch goes straight into the store as one ``put_many`` (no
    re-publication): a tombstone deletes, any other record puts.  When
    retention deleted the range about to be read the reader *reseats* at the
    surviving head, and the store is cleared first: on a compacted changelog
    the head holds the newest value per live key.  Never ticks the cluster
    or advances the clock; the caller charges the summed fetch latency, or
    not.  A pass that raises returns no position, so the caller's stays put
    and its next pass re-applies from there.
    """
    stats = CatchUpStats()
    reader = PartitionReader(cluster, isolation=isolation)
    cleared = 0
    if position is not None:
        reader.positions[tp] = position
    end = cluster.end_offset(tp)
    if limit_offset is not None:
        end = min(end, limit_offset)
    for records, latency in reader.drain(tp, end, batch, max_records):
        if reader.reseats > cleared:
            # The store holds what was read before the gap: start over.
            cleared = reader.reseats
            store.clear()
        stats.simulated_seconds += latency
        # The batch lands as one write run: last value per key, a tombstone
        # (value None) deleting.
        store.put_many({record.key: record.value for record in records})
        stats.records_applied += len(records)
    stats.records_skipped = reader.skipped
    stats.reseated = cleared > 0
    return reader.positions[tp], stats


class KeyValueState:
    """A named state store owned by one task, optionally changelogged.

    Writes are behind: ``put`` and ``delete`` only record the key's last
    value (``None`` for a tombstone) in the pass's pending dict, which
    ``get`` and ``in`` read first.  A scan, ``len`` or size applies it to
    the store first.  :meth:`hand_over` ends the pass (the runner calls it
    at pass end, after ``init()`` and for an at-least-once pass that
    raised): the pass's writes land in the store as one ``put_many`` and,
    for a changelogged state (``changelog`` is its partition), in
    ``staged[changelog]`` as one run of producer entries ``(key, value,
    None, headers)`` — one per key written, in first-write order — which
    the runner hands to its changelog producer.  An exactly-once pass that
    raised is dropped with the whole task incarnation, which is rebuilt from
    its last checkpoint; :meth:`clear` drops them too.  Without a changelog
    the state is transient (lost on failure) — the ablation mode used to
    show why changelogs matter.
    """

    def __init__(
        self,
        name: str,
        store: LsmStore,
        changelog: TopicPartition | None = None,
        staged: dict[TopicPartition, list] | None = None,
    ) -> None:
        self.name = name
        self.store = store
        self.changelog = changelog
        self.staged: dict[TopicPartition, list] = {} if staged is None else staged
        #: Set by the job runner for a pass run under a tracer: records a
        #: changelog write's ``produce.send`` span and returns the headers
        #: that carry it.
        self.trace: Callable[[TopicPartition], dict[str, Any]] | None = None
        #: Writes not yet in the store, and every write of the pass; the
        #: same dict until a scan applies the first to the store.
        self._pending: dict[Any, Any] = {}
        self._written = self._pending
        self.puts = 0
        self.gets = 0
        self.deletes = 0

    # -- writes (behind, until the pass's hand-over) ---------------------------------

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise StateStoreError(
                f"state {self.name!r}: None values are reserved for deletes"
            )
        self._pending[key] = value
        self.puts += 1

    def delete(self, key: Any) -> None:
        self._pending[key] = None  # tombstone
        self.deletes += 1

    def _apply(self) -> None:
        """Write the pending writes through to the store."""
        pending = self._pending
        if pending:
            self.store.put_many(pending)
            if self._written is not pending:
                self._written |= pending
            self._pending = {}

    def hand_over(self) -> dict[Any, Any]:
        """End the pass: its writes go to the store and, changelogged, to
        ``staged`` as one run.  Returns them, ``{key: value or None}``."""
        self._apply()
        written = self._written
        if not written:
            return written
        self._pending = self._written = {}
        tp = self.changelog
        if tp is None:
            return written
        trace = self.trace
        if trace is None:
            run = [(key, value, None, EMPTY_HEADERS) for key, value in written.items()]
        else:
            run = [(key, value, None, trace(tp)) for key, value in written.items()]
        staged = self.staged
        if tp in staged:
            staged[tp] += run
        else:
            staged[tp] = run
        return written

    # -- reads -------------------------------------------------------------------------

    def get(self, key: Any) -> Any:
        self.gets += 1
        pending = self._pending
        if key in pending:
            return pending[key]
        return self.store.get(key)

    def get_or_default(self, key: Any, default: Any) -> Any:
        value = self.get(key)
        return value if value is not None else default

    def __contains__(self, key: Any) -> bool:
        pending = self._pending
        if key in pending:
            return pending[key] is not None
        return key in self.store

    def items(self) -> Iterator[tuple[Any, Any]]:
        self._apply()
        return self.store.items()

    def range(self, start: Any = None, end: Any = None) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``start <= key < end`` in the store order
        (:func:`~repro.processing.store.order_key`)."""
        self._apply()
        return self.store.range_items(start, end)

    def __len__(self) -> int:
        self._apply()
        return len(self.store)

    def approximate_size_bytes(self) -> int:
        self._apply()
        return self.store.approximate_size_bytes()

    def clear(self) -> None:
        """Empty the local store, dropping the pass's writes with it."""
        self._pending = self._written = {}
        self.store.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        logged = "changelogged" if self.changelog is not None else "transient"
        return f"KeyValueState({self.name!r}, {len(self.store)} keys, {logged})"
