"""Recovery reference: :class:`ReferenceRecovery` is the restore, standby
promotion and catch-up code the shared replay loop replaced, as it was."""

from __future__ import annotations

from typing import Any

from repro.chaos.failpoints import failpoint
from repro.common.errors import MessagingError, OffsetOutOfRangeError
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TopicPartition
from repro.processing.recovery import SOURCE_CHANGELOG, SOURCE_STANDBY
from repro.processing.recovery import RecoveryReport, RestoredStore
from repro.processing.state import CatchUpStats, changelog_topic_name


class ReferenceRecovery:
    """The recovery code the shared loop and :class:`Standbys` replaced."""

    @staticmethod
    def restore_state(
        cluster,
        job_name: str,
        store_name: str,
        task_id: int,
        state,
        batch: int = 500,
        isolation: str = "read_uncommitted",
    ) -> RecoveryReport:
        report = RecoveryReport()
        topic = changelog_topic_name(job_name, store_name)
        tp = TopicPartition(topic, task_id)
        cluster.tick(0.0)
        offset = cluster.beginning_offset(tp)
        end = cluster.end_offset(tp)
        state.clear()
        records = 0
        seconds = 0.0
        while offset < end:
            result = cluster.fetch(topic, task_id, offset, batch, isolation=isolation)
            seconds += result.latency
            writes = {}
            for record in result.records:
                writes[record.key] = record.value
                records += 1
            state.store.put_many(writes)
            if result.next_offset <= offset:
                break
            offset = result.next_offset
        report.add(
            RestoredStore(store_name, task_id, records, seconds, SOURCE_CHANGELOG)
        )
        return report

    @staticmethod
    def promote_standby(runner, task_id: int):
        """``JobRunner.promote_standby``, over the runner's standby sets."""
        standbys = runner.standbys
        sets = standbys._sets.get(task_id)
        if not sets:
            return None
        replicas, rest = sets[0], sets[1:]
        standbys._sets[task_id] = rest
        try:
            promoted = {
                name: replica.promote() for name, replica in replicas.items()
            }
        finally:
            standbys._sets[task_id] = (*rest, standbys._new_set(task_id))
        runner.metrics.counter(
            metric_name(
                "serving", "standby", metric_segment(runner.config.name), "promotions"
            )
        ).increment(1)
        return promoted

    @staticmethod
    def promote_standbys(runner, task_id: int) -> RecoveryReport | None:
        try:
            promoted = ReferenceRecovery.promote_standby(runner, task_id)
        except MessagingError:
            promoted = None
        if promoted is None:
            return None
        report = RecoveryReport()
        instance = runner.task(task_id)
        for store_name, (store, stats) in promoted.items():
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

    @staticmethod
    def restore_task_state(runner, task_id: int) -> RecoveryReport:
        promoted = ReferenceRecovery.promote_standbys(runner, task_id)
        if promoted is not None:
            return promoted
        total = RecoveryReport()
        instance = runner.task(task_id)
        for store_config in runner.config.stores:
            if not store_config.changelog:
                continue
            total.merge(
                ReferenceRecovery.restore_state(
                    runner.cluster,
                    runner.config.name,
                    store_config.name,
                    task_id,
                    instance.stores[store_config.name],
                    isolation=runner.isolation,
                )
            )
        return total

    @staticmethod
    def restore_job_state(runner) -> RecoveryReport:
        total = RecoveryReport()
        cold: list[Any] = []
        for instance in runner.tasks():
            promoted = ReferenceRecovery.promote_standbys(runner, instance.task_id)
            if promoted is None:
                cold.append(instance)
            else:
                total.merge(promoted)
        for store_config in runner.config.stores:
            if not store_config.changelog:
                continue
            for instance in cold:
                total.merge(
                    ReferenceRecovery.restore_state(
                        runner.cluster,
                        runner.config.name,
                        store_config.name,
                        instance.task_id,
                        instance.stores[store_config.name],
                        isolation=runner.isolation,
                    )
                )
        return total

    @staticmethod
    def recover(runner) -> RecoveryReport:
        """``JobRunner.recover``: tasks started as they were built."""
        runner._build_tasks()
        for instance in runner._tasks:
            runner._start_task(instance)
        report = ReferenceRecovery.restore_job_state(runner)
        runner.running = True
        for instance in runner._tasks:
            runner._record_snapshot(instance.task_id)
        if runner.auto_advance_clock:
            runner.clock.advance(report.simulated_seconds)
        return report

    @staticmethod
    def migrate_task(runner, task_id: int) -> RecoveryReport:
        old = runner._tasks[task_id]
        if old.output.commit_open(
            old.reader.positions,
            {"software_version": runner.config.version, "task_id": task_id},
        ):
            old.records_since_checkpoint = 0
        instance = runner._new_task(task_id, old.partitions)
        runner._tasks[task_id] = instance
        try:
            report = ReferenceRecovery.restore_task_state(runner, task_id)
            instance.reader.assign(instance.partitions)
        except Exception:
            runner._tasks[task_id] = old
            raise
        instance.output = runner._output_path(runner, task_id)
        runner._record_snapshot(task_id)
        runner._start_task(instance)
        return report

    @staticmethod
    def catch_up(
        self, limit_offset: int | None = None, max_records: int | None = None
    ) -> CatchUpStats:
        """``StandbyReplica.catch_up`` with its own loop (``self`` is the
        replica: the reference side installs this as the method)."""
        failpoint(
            "serving.catch_up",
            partition=self.tp,
            position=self.position,
            replica=self.replica_id,
        )
        stats = CatchUpStats()
        if self.position is None:
            self.position = self.cluster.beginning_offset(self.tp)
        end = self.cluster.end_offset(self.tp)
        if limit_offset is not None:
            end = min(end, limit_offset)
        while self.position < end:
            if max_records is not None and stats.records_applied >= max_records:
                break
            budget = self.batch
            if max_records is not None:
                budget = min(budget, max_records - stats.records_applied)
            try:
                result = self.cluster.fetch(
                    self.tp.topic,
                    self.tp.partition,
                    self.position,
                    budget,
                    isolation=self.isolation,
                )
            except OffsetOutOfRangeError:
                reseated = self.cluster.beginning_offset(self.tp)
                stats.records_skipped += max(0, reseated - self.position)
                stats.reseated = True
                self.reseats += 1
                self._c_reseats.increment(1)
                self.store.clear()
                self.position = reseated
                end = self.cluster.end_offset(self.tp)
                if limit_offset is not None:
                    end = min(end, limit_offset)
                continue
            stats.simulated_seconds += result.latency
            writes = {}
            for record in result.records:
                if record.offset >= end:
                    break
                writes[record.key] = record.value
                stats.records_applied += 1
            self.store.put_many(writes)
            if result.next_offset <= self.position:
                break
            self.position = min(result.next_offset, end)
        self.records_applied += stats.records_applied
        if stats.records_applied:
            self._c_applied.increment(stats.records_applied)
        self.caught_up_at = self.cluster.clock.now()
        return stats
