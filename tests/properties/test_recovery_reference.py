"""One changelog replay loop, standbys owned by recovery: equal to the code
it replaced.

A task's state used to come back two ways.  The cold restore had its own
fetch-and-apply loop (``restore_state``), the standby tail another
(``StandbyReplica.catch_up``), and the choice between promoting a standby
and replaying the changelog was split between ``JobRunner.promote_standby``
and ``recovery._promote_standbys`` / ``restore_task_state`` /
``restore_job_state``.  Those functions survive, copied as they were, as
:class:`~tests.reference.recovery.ReferenceRecovery` — including
``JobRunner.recover`` / ``migrate_task`` as they called them (``init()``
before the restore: no task here reads state in ``init``) and the old
``StandbyReplica.catch_up``, which the reference side runs in place of the
shared loop.  Both apply each fetched batch as one ``put_many`` (value
``None`` a tombstone), the rule every store write follows since a pass's
writes became one dict.

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

from functools import partial
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chaos.failpoints import raising
from repro.common.errors import MessagingError
from repro.processing.job import AT_LEAST_ONCE, EXACTLY_ONCE, JobRunner, StoreConfig
from repro.serving.replica import StandbyReplica
from tests.reference import examples
from tests.reference.job import job, keyed, lockstep, states
from tests.reference.recovery import ReferenceRecovery
from tests.reference.replica import WIRE_BYTES


class ReferenceRunner(JobRunner):
    """The runner with ``recover`` / ``migrate_task`` as they were."""

    recover = ReferenceRecovery.recover
    migrate_task = ReferenceRecovery.migrate_task


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


def side(reference, guarantee, standbys, partitions, replication):
    catch_up = mock.patch.object(StandbyReplica, "catch_up", ReferenceRecovery.catch_up)
    return job(
        {"in": (partitions, 1)}, brokers=2, router=True,
        runner=ReferenceRunner if reference else JobRunner,
        patch=catch_up if reference else None,
        name="eq", task_factory=Upsert,
        # "a" flushes every three keys; "b" keeps the default memtable.
        stores=[StoreConfig("a", store_options={"memtable_max_entries": 3}),
                StoreConfig("b")],
        checkpoint_interval=1000,  # checkpoints are schedule steps
        processing_guarantee=guarantee, num_standby_replicas=standbys,
        changelog_replication=replication,
        changelog_segment_messages=4,  # compaction has sealed segments
    )


def observe(env, _step, outcome):
    return (
        outcome,
        states(env),
        [
            {name: (follower.position, list(follower.store.items()))
             for name, follower in server._snapshot_followers.items()}
            for server in env.router.servers
        ],
        env.cluster.metrics.counter(WIRE_BYTES).value,
        env.cluster.clock.now(),
    )


CHAOS = raising(partial(MessagingError, "chaos"))
ARMED = st.one_of(st.none(), st.tuples(
    st.sampled_from(["serving.promote", "serving.catch_up"]), st.just(CHAOS),
    st.sampled_from([1, None]),
))
#: One round of work, then at most one event: the steps a round expands to
#: always produce and poll, so every event has changelog behind it.
ROUND = st.tuples(
    st.lists(st.builds(keyed, st.integers(0, 7), st.integers(-2, 9)),
             min_size=1, max_size=12),
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


class TestRecoveryMatchesReference:
    @given(
        st.sampled_from([AT_LEAST_ONCE, EXACTLY_ONCE]),
        st.integers(0, 2),
        st.sampled_from([2, 1]),  # tasks: two make the restore order visible
        st.integers(1, 2),
        st.lists(ROUND, min_size=1, max_size=8).map(expand),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_every_step_equals_the_reference(
        self, guarantee, standbys, partitions, replication, steps
    ):
        setup = (guarantee, standbys, partitions, replication)
        lockstep(side(False, *setup), side(True, *setup), steps, observe)
