"""State recovery from changelogs (§3.2, §4.1).

"After failure, state is reconstructed from the changelog."  Recovery time
is proportional to the changelog's *retained* size, which is why compaction
matters: a compacted changelog replays one record per live key instead of
one per historical update (E4 measures the difference).

Two restore paths feed the same :class:`RecoveryReport`:

* **cold restore** — replay the store's compacted changelog from its
  earliest offset (``source="changelog"``);
* **standby promotion** — adopt a warm replica's store and replay only the
  changelog *tail* published since it last caught up
  (``source="standby"``; see :mod:`repro.serving.replica`).  Jobs opt in
  with ``JobConfig.num_standby_replicas``; promotion failures (chaos
  failpoints, changelog leader offline) fall back to the cold path, so
  recovery never gets *worse* for having standbys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import MessagingError
from repro.common.records import TopicPartition
from repro.processing.state import changelog_topic_name

#: How a store's bytes got back into memory.
SOURCE_CHANGELOG = "changelog"
SOURCE_STANDBY = "standby"


@dataclass(frozen=True)
class RestoredStore:
    """One store of one task, as one restore saw it."""

    store: str
    task_id: int
    records_replayed: int
    simulated_seconds: float
    #: ``"changelog"`` (cold replay from the beginning) or ``"standby"``
    #: (warm replica promoted; only the catch-up tail was replayed).
    source: str = SOURCE_CHANGELOG
    #: Offsets skipped because retention deleted them mid-restore (standby
    #: reseat; always 0 on the cold path, which starts at the surviving head).
    records_skipped: int = 0

    @property
    def label(self) -> str:
        return f"{self.store}[{self.task_id}]"


@dataclass
class RecoveryReport:
    """What a restore replayed, from where, and how long it (simulatedly) took."""

    records_replayed: int = 0
    simulated_seconds: float = 0.0
    stores_restored: int = 0
    #: One :class:`RestoredStore` per (store, task) the restore touched, in
    #: restore order.
    entries: list[RestoredStore] = field(default_factory=list)

    def standby_promotions(self) -> int:
        """How many stores came back via standby promotion."""
        return sum(1 for entry in self.entries if entry.source == SOURCE_STANDBY)

    def add(self, entry: RestoredStore) -> None:
        self.entries.append(entry)
        self.records_replayed += entry.records_replayed
        self.simulated_seconds += entry.simulated_seconds
        self.stores_restored += 1

    def merge(self, other: "RecoveryReport") -> None:
        for entry in other.entries:
            self.add(entry)


def restore_state(
    cluster,
    job_name: str,
    store_name: str,
    task_id: int,
    state,
    batch: int = 500,
    isolation: str = "read_uncommitted",
) -> RecoveryReport:
    """Rebuild one task's store by replaying its changelog partition.

    Exactly-once jobs restore with ``read_committed``: their changelog
    writes are transactional, so entries of an aborted (crashed) transaction
    must not resurrect into the rebuilt store.
    """
    report = RecoveryReport()
    topic = changelog_topic_name(job_name, store_name)
    tp = TopicPartition(topic, task_id)
    # Let follower replication advance the high watermark so every published
    # changelog record is visible to the restore read.
    cluster.tick(0.0)
    offset = cluster.beginning_offset(tp)
    end = cluster.end_offset(tp)
    state.clear()
    records = 0
    seconds = 0.0
    while offset < end:
        result = cluster.fetch(topic, task_id, offset, batch, isolation=isolation)
        seconds += result.latency
        for record in result.records:
            state.restore_entry(record.key, record.value)
            records += 1
        if result.next_offset <= offset:
            break
        offset = result.next_offset
    report.add(
        RestoredStore(store_name, task_id, records, seconds, SOURCE_CHANGELOG)
    )
    return report


def _promote_standbys(runner, task_id: int) -> RecoveryReport | None:
    """Try the warm path: adopt promoted standby stores for one task.

    Returns ``None`` when the runner keeps no standbys for the task or the
    promotion failed (consumed standby; the caller cold-restores instead).
    """
    promote = getattr(runner, "promote_standby", None)
    if promote is None:
        return None
    try:
        promoted = promote(task_id)
    except MessagingError:
        # Chaos or a dead changelog leader mid-promotion: the standby set
        # was consumed, fall back to a cold replay of the full changelog.
        promoted = None
    if promoted is None:
        return None
    report = RecoveryReport()
    instance = runner.task(task_id)
    for store_name, (store, stats) in promoted.items():
        # The new incarnation adopts the replica's store object outright;
        # the KeyValueState wrapper (and its changelog write-through
        # closure) already points at the right partition.
        instance.stores[store_name].store = store
        report.add(
            RestoredStore(
                store_name,
                task_id,
                stats.records_applied,
                stats.simulated_seconds,
                SOURCE_STANDBY,
                records_skipped=stats.records_skipped,
            )
        )
    return report


def restore_task_state(runner, task_id: int) -> RecoveryReport:
    """Rebuild every changelogged store of one task of a job.

    This is the unit of work for both whole-job recovery and the elastic
    controller's container migration: a task landing on a new container
    replays exactly its own changelog partitions, nothing more.  When the
    runner keeps standby replicas, promotion replaces the full replay with
    a catch-up tail.
    """
    promoted = _promote_standbys(runner, task_id)
    if promoted is not None:
        return promoted
    total = RecoveryReport()
    instance = runner.task(task_id)
    for store_config in runner.config.stores:
        if not store_config.changelog:
            continue
        total.merge(
            restore_state(
                runner.cluster,
                runner.config.name,
                store_config.name,
                task_id,
                instance.stores[store_config.name],
                isolation=getattr(runner, "isolation", "read_uncommitted"),
            )
        )
    return total


def restore_job_state(runner) -> RecoveryReport:
    """Rebuild every changelogged store of every task of a job.

    Tasks with standbys promote first (each pays only its catch-up tail);
    the rest cold-restore store-major (all tasks of store A, then store B)
    so the page cache sees the same access sequence as always — the
    restore's simulated cost must not depend on how the report is assembled.
    """
    total = RecoveryReport()
    cold: list[Any] = []
    for instance in runner.tasks():
        promoted = _promote_standbys(runner, instance.task_id)
        if promoted is None:
            cold.append(instance)
        else:
            total.merge(promoted)
    for store_config in runner.config.stores:
        if not store_config.changelog:
            continue
        for instance in cold:
            total.merge(
                restore_state(
                    runner.cluster,
                    runner.config.name,
                    store_config.name,
                    instance.task_id,
                    instance.stores[store_config.name],
                    isolation=getattr(runner, "isolation", "read_uncommitted"),
                )
            )
    return total
