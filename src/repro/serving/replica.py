"""Standby replicas: hot store copies maintained by tailing the changelog.

Reactive Liquid (arXiv:1902.05968) motivates keeping *warm* copies of task
state on other containers so that failover and elastic re-placement do not
cost availability: instead of replaying a store's whole compacted changelog
from offset 0 (the cold path in :mod:`repro.processing.recovery`), the new
owner adopts a standby's store and pays only the catch-up *tail* — the
changelog records published since the standby last caught up.

A :class:`StandbyReplica` is exactly that machinery: a local
:class:`~repro.processing.store.LsmStore` plus a position in one
changelog partition, advanced by :meth:`catch_up` — a restore that never
stops: the same :func:`~repro.processing.state.replay_changelog` drain
(a :class:`~repro.messaging.reader.PartitionReader`'s) the cold restore
runs once, resumed from where the last pass left off.  The
same class backs three consumers of the idea:

* **failover standbys** (``num_standby_replicas``) owned by
  :class:`~repro.processing.recovery.Standbys`, kept warm at checkpoint
  boundaries and promoted on recovery/migration;
* **snapshot followers** inside a :class:`~repro.serving.server.StateServer`,
  capped at the last checkpoint's changelog offset for
  snapshot-at-checkpoint reads;
* **stale-tolerant serving copies** the
  :class:`~repro.serving.router.StateQueryRouter` reads for load spreading.

Catch-up reads honour the job's isolation level: under exactly-once the
changelog is written transactionally, so ``read_committed`` tails only ever
apply entries whose checkpoint committed — a promoted standby can never
resurrect state from an aborted transaction.

A retention storm can delete changelog segments a slow standby still needs:
the reader's out-of-range policy then *reseats* at ``beginning_offset``,
the store is cleared and :meth:`catch_up` replays from there rather than
crashing.  On a compacted changelog the surviving head carries
the latest value per live key, so the reseated replay converges to the
correct state.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.failpoints import failpoint
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TopicPartition
from repro.processing.state import (
    CatchUpStats,
    changelog_topic_name,
    replay_changelog,
)
from repro.processing.store import LsmStore


class StandbyReplica:
    """One store copy kept warm by tailing one changelog partition."""

    def __init__(
        self,
        cluster,
        job_name: str,
        store_name: str,
        task_id: int,
        *,
        store_options: dict[str, Any] | None = None,
        isolation: str = "read_uncommitted",
        replica_id: int = 0,
        batch: int = 500,
    ) -> None:
        self.cluster = cluster
        self.job_name = job_name
        self.store_name = store_name
        self.task_id = task_id
        self.replica_id = replica_id
        self.isolation = isolation
        self.batch = batch
        self.tp = TopicPartition(
            changelog_topic_name(job_name, store_name), task_id
        )
        self.store = LsmStore(cluster.clock.cost_model, **(store_options or {}))
        #: Next changelog offset to apply.  ``None`` until the first
        #: catch-up seats the replica at the partition's earliest offset.
        self.position: int | None = None
        self.records_applied = 0
        self.reseats = 0
        #: Simulated time of the last completed catch-up (staleness bound).
        self.caught_up_at = cluster.clock.now()
        #: The controller's live record of the changelog partition (never
        #: replaced, only updated), and the leader's copy of it as of the
        #: leader id beside it: :meth:`lag` reads the high watermark
        #: straight off that copy, re-resolving it only when leadership moves.
        self._partition = cluster.controller.partition_state(self.tp)
        self._leader_id: int | None = None
        self._leader_copy = None
        segment = metric_segment(job_name)
        metrics = cluster.metrics
        self._c_applied = metrics.counter(
            metric_name("serving", "standby", segment, "records_applied")
        )
        self._c_reseats = metrics.counter(
            metric_name("serving", "standby", segment, "reseats")
        )

    # -- introspection ------------------------------------------------------------

    def lag(self) -> int | None:
        """Changelog records published but not yet applied here, or ``None``
        while the changelog partition has no leader: the lag is unknown then,
        and the controller already reports the partition offline.

        The end is ``cluster.end_offset(self.tp)``, read without its leader
        lookup: a broker's replica of a partition lives as long as the
        broker, so the copy found for a leader id stays that leader's.
        """
        leader = self._partition.leader
        if leader is None:
            return None
        if leader != self._leader_id:
            self._leader_copy = self.cluster.broker(leader).replica(self.tp)
            self._leader_id = leader
        copy = self._leader_copy
        if self.position is None:
            return copy.high_watermark - copy.earliest_offset
        lag = copy.high_watermark - self.position
        return lag if lag > 0 else 0

    # -- the tail loop ------------------------------------------------------------

    def catch_up(
        self, limit_offset: int | None = None, max_records: int | None = None
    ) -> CatchUpStats:
        """Apply changelog records up to the partition end (or ``limit_offset``).

        Deliberately does **not** advance the cluster clock or run
        replication passes: a standby lives on another container and its
        reads must not perturb the simulated timeline of the job it shadows
        (the 0-vs-N-standbys byte-identity property depends on this).  The
        fetch latencies it pays are reported in the returned stats and the
        ``serving.standby.*`` instruments, not charged to the job.
        """
        failpoint(
            "serving.catch_up",
            partition=self.tp,
            position=self.position,
            replica=self.replica_id,
        )
        self.position, stats = replay_changelog(
            self.cluster, self.tp, self.store, self.position,
            self.isolation, self.batch, limit_offset, max_records,
        )
        if stats.reseated:
            self.reseats += 1
            self._c_reseats.increment(1)
        self.records_applied += stats.records_applied
        if stats.records_applied:
            self._c_applied.increment(stats.records_applied)
        self.caught_up_at = self.cluster.clock.now()
        return stats

    # -- failover ----------------------------------------------------------------

    def promote(self) -> tuple[LsmStore, CatchUpStats]:
        """Final catch-up, then hand the store to the new task incarnation.

        The returned stats cover only the catch-up *tail* — that is the
        entire point of standby promotion: recovery pays for the records
        published since the standby last caught up, not the whole changelog.
        After promotion the replica no longer owns the store; callers
        discard it and seed a fresh replacement.
        """
        failpoint(
            "serving.promote",
            partition=self.tp,
            position=self.position,
            replica=self.replica_id,
        )
        stats = self.catch_up()
        return self.store, stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StandbyReplica({self.job_name!r}/{self.store_name!r}"
            f"[{self.task_id}]#{self.replica_id}, position={self.position}, "
            f"applied={self.records_applied})"
        )
