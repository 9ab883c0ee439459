"""Explicit task state with changelog-backed durability (§3.2).

"Our solution is for the processing layer to publish state updates to a
changelog, which is a derived feed stored by the messaging layer.  After
failure, state is reconstructed from the changelog."

:class:`KeyValueState` wraps a local :class:`~repro.processing.store.KeyValueStore`
and stages every mutation for a *compacted* changelog topic in the
messaging layer; the job runner publishes a pass's mutations as one run
per changelog partition.  Because the changelog is keyed by the state key,
compaction (§4.1) bounds its size by the number of live keys, which is what
makes recovery fast (E4).

:func:`replay_changelog` is the way back, the one loop that fetches a
changelog into a store: the cold restore and the standby tail both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.errors import OffsetOutOfRangeError, StateStoreError
from repro.common.records import EMPTY_HEADERS, TopicPartition
from repro.processing.store import KeyValueStore


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
    store: KeyValueStore,
    position: int | None,
    isolation: str,
    batch: int,
    limit_offset: int | None = None,
    max_records: int | None = None,
) -> tuple[int, CatchUpStats]:
    """Apply changelog partition ``tp`` to ``store`` from ``position`` (the
    earliest offset when ``None``) up to its end, or ``limit_offset``;
    returns where the next pass starts, and the pass's stats.

    A tombstone deletes, any other record puts, straight into the store (no
    re-publication).  When retention deleted the range about to be read the
    loop *reseats*: clears the store and replays from the surviving head,
    which on a compacted changelog holds the newest value per live key.
    Never ticks the cluster or advances the clock; the caller charges the
    summed fetch latency, or not.  A pass that raises returns no position,
    so the caller's stays put and its next pass re-applies from there.
    """
    applied = skipped = 0
    seconds = 0.0
    reseated = False
    if position is None:
        position = cluster.beginning_offset(tp)
    end = cluster.end_offset(tp)
    if limit_offset is not None:
        end = min(end, limit_offset)
    while position < end:
        budget = batch
        if max_records is not None:
            budget = min(budget, max_records - applied)
            if budget <= 0:
                break
        try:
            result = cluster.fetch(
                tp.topic, tp.partition, position, budget, isolation=isolation
            )
        except OffsetOutOfRangeError:
            head = cluster.beginning_offset(tp)
            skipped += max(0, head - position)
            reseated = True
            store.clear()
            position = head
            end = cluster.end_offset(tp)
            if limit_offset is not None:
                end = min(end, limit_offset)
            continue
        seconds += result.latency
        for record in result.records:
            if record.offset >= end:
                break
            if record.value is None:
                store.delete(record.key)
            else:
                store.put(record.key, record.value)
            applied += 1
        if result.next_offset <= position:
            break  # no progress (e.g. everything above the LSO)
        position = min(result.next_offset, end)
    return position, CatchUpStats(applied, seconds, skipped, reseated)


class KeyValueState:
    """A named state store owned by one task, optionally changelogged.

    A changelogged state (``changelog`` is its partition) stages every
    mutation in ``staged[changelog]``: a run of producer entries ``(key,
    value, None, headers)``, value ``None`` for a tombstone, which the job
    runner hands to its changelog producer at pass end.  The runner gives
    a task's stores one shared ``staged`` dict, so a pass's runs keep the
    order the task first wrote them in.  Without a changelog the state is
    transient (lost on failure) — the ablation mode used to show why
    changelogs matter.
    """

    def __init__(
        self,
        name: str,
        store: KeyValueStore,
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
        self.puts = 0
        self.gets = 0
        self.deletes = 0

    # -- mutation (staged for the changelog) -----------------------------------------

    def put(self, key: Any, value: Any) -> None:
        if value is None:
            raise StateStoreError(
                f"state {self.name!r}: None values are reserved for deletes"
            )
        self.store.put(key, value)
        self.puts += 1
        if self.changelog is not None:
            self._stage(key, value)

    def delete(self, key: Any) -> None:
        self.store.delete(key)
        self.deletes += 1
        if self.changelog is not None:
            self._stage(key, None)  # tombstone

    def _stage(self, key: Any, value: Any) -> None:
        tp = self.changelog
        entry = (
            key, value, None, EMPTY_HEADERS if self.trace is None else self.trace(tp)
        )
        staged = self.staged
        if tp in staged:
            staged[tp].append(entry)
        else:
            staged[tp] = [entry]

    def get(self, key: Any) -> Any:
        self.gets += 1
        return self.store.get(key)

    def get_or_default(self, key: Any, default: Any) -> Any:
        value = self.get(key)
        return value if value is not None else default

    def __contains__(self, key: Any) -> bool:
        return key in self.store

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.store.items()

    def range(self, start: Any = None, end: Any = None) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``start <= repr(key) < end`` in key-repr order."""
        return self.store.range_items(start, end)

    def __len__(self) -> int:
        return len(self.store)

    def approximate_size_bytes(self) -> int:
        return self.store.approximate_size_bytes()

    def clear(self) -> None:
        self.store.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        logged = "changelogged" if self.changelog is not None else "transient"
        return f"KeyValueState({self.name!r}, {len(self.store)} keys, {logged})"
