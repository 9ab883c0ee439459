"""One changelog replay loop, standbys owned by recovery: equal to the code
it replaced.

A task's state used to come back two ways.  The cold restore had its own
fetch-and-apply loop (``restore_state``), the standby tail another
(``StandbyReplica.catch_up``), and the choice between promoting a standby
and replaying the changelog was split between ``JobRunner.promote_standby``
and ``recovery._promote_standbys`` / ``restore_task_state`` /
``restore_job_state``.  Those functions survive here, copied as they were,
as :class:`ReferenceRecovery` — including ``JobRunner.recover`` /
``migrate_task`` as they called them (``init()`` before the restore: no task
here reads state in ``init``) and the old ``StandbyReplica.catch_up``, which
the reference side runs in place of the shared loop.  Both apply each
fetched batch as one ``put_many`` (value ``None`` a tombstone), the rule
every store write follows since a pass's writes became one dict.

Two clusters are built from the same parameters and driven through the same
random schedule — puts, deletes (tombstones), changelog compaction, clock
jumps that make ``cluster.tick`` due for maintenance, exactly-once passes
left open by a crash (aborted by the fenced restart, restored
``read_committed``), 0–2 standbys, ``serving.promote`` /
``serving.catch_up`` armed, ``recover()`` and ``migrate_task``, snapshot
and stale-tolerant queries.  One runs the code under test, the other the
reference.  After every step both must agree on the outcome (including the
exception raised, if any), every ``RecoveryReport`` entry (store, task,
source, records replayed and skipped, simulated seconds compared with
``==``), every task's store contents, every standby's and snapshot
follower's contents and position, every query result, ``bytes_on_wire``
and the clock.
"""

from __future__ import annotations

from contextlib import ExitStack
from types import SimpleNamespace
from typing import Any
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import failpoint, raising, registry
from repro.common.clock import SimClock
from repro.common.errors import LiquidError, MessagingError, OffsetOutOfRangeError
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.recovery import (
    SOURCE_CHANGELOG,
    SOURCE_STANDBY,
    RecoveryReport,
    RestoredStore,
)
from repro.processing.state import CatchUpStats, changelog_topic_name
from repro.serving.replica import StandbyReplica
from repro.serving.router import StateQueryRouter

STORES = ("a", "b")
WIRE = metric_name("messaging", "cluster", "bytes_on_wire")


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
            old.positions,
            {"software_version": runner.config.version, "task_id": task_id},
        ):
            old.records_since_checkpoint = 0
        instance = runner._new_task(task_id, old.partitions)
        runner._tasks[task_id] = instance
        try:
            report = ReferenceRecovery.restore_task_state(runner, task_id)
            runner._seed_positions(instance)
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


class Upsert:
    """Store ``a``: the latest value per key, a negative value deletes it
    (a tombstone in the changelog).  Store ``b``: updates seen per key."""

    def init(self, context):
        self.a = context.store("a")
        self.b = context.store("b")

    def process(self, record, collector):
        if record.value < 0:
            self.a.delete(record.key)
        else:
            self.a.put(record.key, record.value)
        self.b.put(record.key, (self.b.get(record.key) or 0) + 1)


def build(guarantee, standbys, partitions, replication, store_type):
    cluster = MessagingCluster(num_brokers=2, clock=SimClock())
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    options = {"memtable_max_entries": 3} if store_type == "lsm" else {}
    runner = JobRunner(
        JobConfig(
            name="eq",
            inputs=["in"],
            task_factory=Upsert,
            stores=[
                StoreConfig("a", store_type=store_type, store_options=options),
                StoreConfig("b"),
            ],
            checkpoint_interval=1000,  # checkpoints are schedule steps
            processing_guarantee=guarantee,
            num_standby_replicas=standbys,
            changelog_replication=replication,
            changelog_segment_messages=4,  # compaction has sealed segments
        ),
        cluster,
    )
    return SimpleNamespace(
        cluster=cluster,
        runner=runner,
        router=StateQueryRouter(runner),
        producer=Producer(cluster),
    )


def apply(env, step, reference: bool):
    """Run one step; returns what the step observed, or the error it raised."""
    kind, arg, armed = step
    runner = env.runner
    with ExitStack() as stack:
        if reference:
            stack.enter_context(
                mock.patch.object(StandbyReplica, "catch_up", ReferenceRecovery.catch_up)
            )
        if armed is not None:
            name, times = armed
            stack.enter_context(
                registry().scoped(
                    name, raising(lambda: MessagingError("chaos")), times=times
                )
            )
        try:
            if kind == "produce":
                for key, value in arg:
                    env.producer.send("in", value, key=f"k{key}")
                env.producer.flush()
                return None
            if kind == "poll":
                return runner.poll_once(max_messages=arg).records_processed
            if kind == "checkpoint":
                runner.checkpoint()
                return None
            if kind == "compact":
                return [broker.run_compaction() for broker in env.cluster.brokers()]
            if kind == "advance":
                env.cluster.clock.advance(arg)
                return None
            if kind == "recover":
                runner.crash()
                report = (
                    ReferenceRecovery.recover(runner) if reference else runner.recover()
                )
                return report.entries
            if kind == "migrate":
                task_id = arg % runner.num_tasks
                report = (
                    ReferenceRecovery.migrate_task(runner, task_id)
                    if reference
                    else runner.migrate_task(task_id)
                )
                return report.entries
            if kind == "query":
                return [
                    env.router.range(store, **how)
                    for how in ({"consistency": "snapshot"}, {"allow_stale": True})
                    for store in STORES
                ]
            raise AssertionError(kind)
        except LiquidError as exc:
            return type(exc).__name__


def observe(env):
    runner = env.runner
    return {
        "tasks": [
            {name: dict(state.items()) for name, state in instance.stores.items()}
            for instance in runner.tasks()
        ],
        "standbys": {
            task_id: [
                {name: (replica.position, dict(replica.store.items()))
                 for name, replica in replicas.items()}
                for replicas in sets
            ]
            for task_id, sets in runner.standbys._sets.items()
        },
        "snapshot_followers": [
            {name: (follower.position, dict(follower.store.items()))
             for name, follower in server._snapshot_followers.items()}
            for server in env.router.servers
        ],
        "wire": env.cluster.metrics.counter(WIRE).value,
        "now": env.cluster.clock.now(),
    }


ARMED = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["serving.promote", "serving.catch_up"]),
        st.sampled_from([1, None]),
    ),
)
#: One round of work, then at most one event: the steps a round expands to
#: always produce and poll, so every event has changelog behind it.
ROUND = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(-2, 9)), min_size=1, max_size=12
    ),
    st.integers(1, 12),  # poll budget
    st.booleans(),  # checkpoint (catches the standbys up)
    st.booleans(),  # compact the changelogs
    st.sampled_from([0.0, 0.5, 6.0]),  # clock jump; 6 s makes maintenance due
    st.one_of(
        st.none(),
        st.just(("recover", None)),
        st.tuples(st.just("migrate"), st.integers(0, 1)),
        st.just(("query", None)),
    ),
    ARMED,
)


def expand(rounds):
    steps = []
    for records, budget, checkpoint, compact, jump, event, armed in rounds:
        steps += [("produce", records, None), ("poll", budget, None)]
        if checkpoint:
            steps.append(("checkpoint", None, armed))
        if compact:
            steps.append(("compact", None, None))
        if jump:
            steps.append(("advance", jump, None))
        if event is not None:
            steps.append((event[0], event[1], armed))
    return steps


#: Sized from the profile: 60 in tier-1, the ``deep`` profile's in CI's
#: ``determinism`` job.
EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 60


class TestRecoveryMatchesReference:
    @given(
        st.sampled_from([AT_LEAST_ONCE, EXACTLY_ONCE]),
        st.integers(0, 2),
        st.sampled_from([2, 1]),  # tasks: two make the restore order visible
        st.integers(1, 2),
        st.sampled_from(["memory", "lsm"]),
        st.lists(ROUND, min_size=1, max_size=8).map(expand),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_every_step_equals_the_reference(
        self, guarantee, standbys, partitions, replication, store_type, steps
    ):
        new = build(guarantee, standbys, partitions, replication, store_type)
        ref = build(guarantee, standbys, partitions, replication, store_type)
        for step in steps:
            assert apply(new, step, False) == apply(ref, step, True), step
            assert observe(new) == observe(ref), step
