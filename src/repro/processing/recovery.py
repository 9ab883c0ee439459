"""State recovery from changelogs (§3.2, §4.1).

"After failure, state is reconstructed from the changelog."  Recovery time
is proportional to the changelog's *retained* size, which is why compaction
matters: a compacted changelog replays one record per live key instead of
one per historical update (E4 measures the difference).

Two restore paths feed the same :class:`RecoveryReport`, and both run
:func:`~repro.processing.state.replay_changelog`, a reader's drain:

* **cold restore** — replay the store's compacted changelog from its
  earliest offset (``source="changelog"``);
* **standby promotion** — adopt a warm replica's store and replay only the
  changelog *tail* published since it last caught up
  (``source="standby"``; see :mod:`repro.serving.replica`).  Jobs opt in
  with ``JobConfig.num_standby_replicas``; :class:`Standbys` owns a job's
  standby sets from construction to promotion.  Promotion failures (chaos
  failpoints, changelog leader offline) fall back to the cold path, so
  recovery never gets *worse* for having standbys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import MessagingError
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TopicPartition
from repro.processing.state import changelog_topic_name, replay_changelog
from repro.serving.replica import StandbyReplica

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
    # Let follower replication advance the high watermark so every published
    # changelog record is visible to the restore read.
    cluster.tick(0.0)
    state.clear()
    tp = TopicPartition(changelog_topic_name(job_name, store_name), task_id)
    _, stats = replay_changelog(cluster, tp, state.store, None, isolation, batch)
    report = RecoveryReport()
    report.add(RestoredStore(
        store_name, task_id, stats.records_applied, stats.simulated_seconds
    ))
    return report


class Standbys:
    """A job's warm standby replicas, from construction to promotion.

    Each task keeps ``num_standby_replicas`` ordered *sets*, each mapping a
    changelogged store to a :class:`StandbyReplica`.  Standbys live on
    *other* containers, so a container ``crash()`` leaves them intact — that
    is what makes promotion cheaper than a cold changelog restore.
    """

    def __init__(self, runner) -> None:
        config = runner.config
        self._cluster = runner.cluster
        self._job_name = config.name
        self._isolation = runner.isolation
        self._stores = [sc for sc in config.stores if sc.changelog]
        self._seq: dict[int, int] = {}
        self._sets: dict[int, tuple[dict[str, StandbyReplica], ...]] = {}
        if config.num_standby_replicas > 0 and self._stores:
            # Bound only where there is something to promote: a job without
            # standbys registers no serving.standby.* instrument.
            self._c_promotions = self._cluster.metrics.counter(metric_name(
                "serving", "standby", metric_segment(config.name), "promotions"
            ))
            for task_id in range(runner.num_tasks):
                self._sets[task_id] = tuple(
                    self._new_set(task_id)
                    for _ in range(config.num_standby_replicas)
                )

    def of(self, task_id: int) -> tuple[dict[str, StandbyReplica], ...]:
        """The task's live standby sets (possibly empty), freshest first.

        An immutable tuple, replaced on promotion, so the serving read path
        looks it up per query without copying it.
        """
        return self._sets.get(task_id, ())

    def _new_set(self, task_id: int) -> dict[str, StandbyReplica]:
        replica_id = self._seq.get(task_id, 0)
        self._seq[task_id] = replica_id + 1
        return {
            sc.name: StandbyReplica(
                self._cluster, self._job_name, sc.name, task_id,
                store_options=sc.store_options,
                isolation=self._isolation, replica_id=replica_id,
            )
            for sc in self._stores
        }

    def catch_up(self, task_id: int) -> None:
        """Warm the task's standbys at a checkpoint boundary.

        This is the only place standbys advance during normal processing:
        the checkpoint is a deterministic point in the run, so a job drains
        byte-identically whether it keeps 0 or N standbys, and the standby
        lag is bounded by the checkpoint interval.  Catch-up latency is
        *not* charged to the job's poll result — standbys burn other
        containers' cycles.
        """
        for replicas in self._sets.get(task_id, ()):
            for replica in replicas.values():
                try:
                    replica.catch_up()
                except MessagingError:
                    # Changelog leader offline (or chaos in the fetch path):
                    # the standby stays stale and pays a larger catch-up
                    # tail at promotion.  Never fail a checkpoint for it.
                    continue

    def promote(self, instance) -> RecoveryReport | None:
        """Adopt the task's first standby set into ``instance``, the task's
        fresh incarnation: a final catch-up tail per store, then the
        replica's store replaces the empty one.

        Returns ``None`` when the task keeps no standbys or the promotion
        failed.  Promotion consumes the set win or lose — a fresh cold
        standby is seeded in its place and warms at the next checkpoint
        boundaries — so a failed promotion (chaos failpoint, dead changelog
        leader) falls back to a cold restore rather than retrying a broken
        replica.
        """
        task_id = instance.task_id
        sets = self._sets.get(task_id)
        if not sets:
            return None
        replicas, rest = sets[0], sets[1:]
        try:
            promoted = {
                name: replica.promote() for name, replica in replicas.items()
            }
        except MessagingError:
            return None
        finally:
            self._sets[task_id] = (*rest, self._new_set(task_id))
        self._c_promotions.increment(1)
        report = RecoveryReport()
        for store_name, (store, stats) in promoted.items():
            # The new incarnation adopts the replica's store object outright;
            # the KeyValueState wrapper already stages for the right
            # changelog partition.
            instance.stores[store_name].store = store
            report.add(RestoredStore(
                store_name, task_id, stats.records_applied,
                stats.simulated_seconds, SOURCE_STANDBY, stats.records_skipped,
            ))
        return report


def worst_standby_lag(runners: Iterable = (), servers: Iterable = ()) -> int:
    """Worst changelog lag of any standby replica the ``runners`` keep or
    the ``servers`` fail over to (0 when there are none): the staleness
    SLO's signal and the health rollup's ``standby_staleness``.  A standby
    whose changelog partition has no leader has no known lag and is
    skipped; the rollup reports that partition offline."""
    worst = 0
    for server in servers:
        for lag in server.standby_staleness().values():
            worst = max(worst, lag)
    for runner in runners:
        for sets in runner.standbys._sets.values():
            for replicas in sets:
                for replica in replicas.values():
                    lag = replica.lag()
                    if lag is not None:
                        worst = max(worst, lag)
    return worst


def restore_job_state(runner, tasks: Iterable) -> RecoveryReport:
    """Rebuild every changelogged store of ``tasks``, fresh incarnations of
    a job's tasks: all of them after a crash (``recover()``), one when the
    elastic controller moves it (``migrate_task``) — a task landing on a
    new container replays exactly its own changelog partitions.

    Tasks with standbys promote first, in task order, each paying only its
    catch-up tail; the rest cold-restore store-major (all tasks of store A,
    then store B) so the page cache sees the same access sequence as always
    — the restore's simulated cost must not depend on how the report is
    assembled.
    """
    total = RecoveryReport()
    cold = []
    for instance in tasks:
        promoted = runner.standbys.promote(instance)
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
                    isolation=runner.isolation,
                )
            )
    return total
