"""Property-based tests: a pass's state writes are one dict, and nothing a
job shows depends on it.

``KeyValueState`` holds a pass's writes per key and lands them in the store
as one ``put_many`` and in the changelog as one run at the pass's
hand-over.  The rule it replaced — every ``put`` / ``delete`` written
through to the store and staged as its own changelog entry at once — lives
on as :class:`~tests.reference.job.PerMutationState`, run by
:class:`~tests.reference.job.PerMutationRunner`.

Two same-seed clusters, one per rule, run the same random task programs —
puts, deletes, point gets, ``in``, ranges and ``len`` inside passes, some
raising part-way through a pass — through the same schedule of passes,
checkpoints, changelog compactions and crash + recover, under both
processing guarantees, with 0 or 1 standbys and stores that flush and
compact.  After every step they agree on the outcome, the derived feed (so
every in-pass read saw the pass's own writes, which the write-through side
reads from its store), every task's store, every standby's store and what
compaction keeps of every changelog partition; after a recover, each store
is exactly its changelog's live content and holds no pending write.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.common.records import TopicPartition
from repro.processing.job import AT_LEAST_ONCE, EXACTLY_ONCE, JobRunner, StoreConfig
from repro.processing.state import changelog_topic_name
from tests.reference import examples
from tests.reference.job import PerMutationRunner, job, lockstep, read, states

PARTITIONS = 2
STORES = ("s", "t")
KEYS = ("k0", "k1", "k2", "k3", "k4")


class ProgramTask:
    """Runs the program each record carries against the task's stores and
    emits what its reads returned; ``fail`` raises, the first time a
    given record reaches it."""

    def __init__(self, failed):
        self.failed = failed

    def init(self, context):
        self.stores = {name: context.store(name) for name in STORES}

    def process(self, record, collector):
        seen = []
        for op, name, a, b in record.value:
            state = self.stores[name]
            if op == "put":
                state.put(a, b)
            elif op == "delete":
                state.delete(a)
            elif op == "get":
                seen.append(state.get(a))
            elif op == "in":
                seen.append(a in state)
            elif op == "range":
                seen.append(list(state.range(a, b)))
            elif op == "len":
                seen.append(len(state))
            elif (record.partition, record.offset) not in self.failed:
                self.failed.add((record.partition, record.offset))
                raise RuntimeError("program failed")
        collector.send("derived", seen, key=record.key)


def side(per_mutation, guarantee, standbys):
    failed: set = set()
    # Small enough that the programs' writes flush and compact.
    options = {"memtable_max_entries": 3, "max_runs": 2}
    return job(
        {"in": (PARTITIONS, 1), "derived": (PARTITIONS, 1)},
        runner=PerMutationRunner if per_mutation else JobRunner,
        name="programs", task_factory=lambda: ProgramTask(failed),
        stores=[StoreConfig(name, store_options=options) for name in STORES],
        checkpoint_interval=4, processing_guarantee=guarantee,
        num_standby_replicas=standbys, changelog_segment_messages=4,
    )


def compacted_changelogs(env):
    """Per changelog partition, what compaction keeps: the live value of
    every key (a tombstone and its absence read the same)."""
    kept = {}
    for name in STORES:
        topic = changelog_topic_name("programs", name)
        for tp, records in zip(env.cluster.partitions_of(topic), read(env, topic)):
            last = {r.key: r.value for r in records}
            kept[tp] = {k: v for k, v in last.items() if v is not None}
    return kept


def observe(env, step, outcome):
    kind = step and step[0]
    if kind == "recover" and not isinstance(outcome, str):
        restored_is_the_changelog(env)
        # Replayed and skipped counts depend on how much was shipped.
        outcome = [(e.store, e.task_id, e.source) for e in outcome]
    elif kind == "poll" and not isinstance(outcome, str):
        outcome = outcome[:2]  # fewer changelog records, a different latency
    elif kind == "compact":
        outcome = None  # how much it removes depends on how much was shipped
    return {
        "outcome": outcome,
        # Offsets and values; not timestamps: fewer changelog records make
        # a different simulated clock.
        "derived": [
            [(r.offset, r.key, r.value) for r in records]
            for records in read(env, "derived")
        ],
        # Standby positions: fewer changelog records, different offsets.
        "stores and standbys": states(env, positions=False),
        "changelogs": compacted_changelogs(env),
        "counts": (env.runner.records_processed, env.runner.records_emitted),
    }


def restored_is_the_changelog(env):
    """After a recover: every store holds exactly its changelog's live
    content, and no write is pending."""
    changelogs = compacted_changelogs(env)
    for instance in env.runner.tasks():
        for name, state in instance.stores.items():
            tp = TopicPartition(changelog_topic_name("programs", name), instance.task_id)
            assert state.hand_over() == {}
            assert dict(state.store.items()) == changelogs[tp]


stores = st.sampled_from(STORES)
keys = st.sampled_from(KEYS)
OP = st.one_of(
    st.tuples(st.just("put"), stores, keys, st.integers(0, 9)),
    st.tuples(st.just("delete"), stores, keys, st.none()),
    st.tuples(st.just("get"), stores, keys, st.none()),
    st.tuples(st.just("in"), stores, keys, st.none()),
    st.tuples(st.just("range"), stores, st.one_of(st.none(), keys),
              st.one_of(st.none(), keys)),
    st.tuples(st.just("len"), stores, st.none(), st.none()),
)
PROGRAM = st.one_of(
    st.lists(OP, min_size=1, max_size=6),
    # A program that raises part-way through its pass.
    st.lists(OP, max_size=3).map(lambda ops: ops + [("fail", "s", None, None)]),
)
#: One round of work: programs in, passes over them, then at most one
#: event.
ROUND = st.tuples(
    st.lists(PROGRAM, min_size=1, max_size=6),
    st.lists(st.integers(1, 5), min_size=1, max_size=3),  # pass budgets
    st.sampled_from([None, "checkpoint", "compact", "recover"]),
)


def expand(rounds):
    steps = []
    for programs, budgets, event in rounds:
        records = [(f"r{i}", program, i % PARTITIONS) for i, program in enumerate(programs)]
        steps.append(("produce", records, None))
        steps += [("poll", budget, None) for budget in budgets]
        if event is not None:
            steps.append((event, None, None))
    return steps


#: A record's program reads back its own put: the read must see the pass's
#: pending write, which the write-through side reads from its store.
READS_ITS_OWN_WRITE = expand([
    ([[("put", "s", "k0", 1), ("get", "s", "k0", None)]], [1], None),
])


class TestWriteBehindMatchesPerMutation:
    @given(
        st.sampled_from((AT_LEAST_ONCE, EXACTLY_ONCE)),
        st.integers(0, 1),  # standbys
        st.lists(ROUND, min_size=1, max_size=5).map(expand),
    )
    @example(AT_LEAST_ONCE, 0, READS_ITS_OWN_WRITE)
    @settings(max_examples=examples(40), deadline=None)
    def test_every_step_equals_the_per_mutation_reference(
        self, guarantee, standbys, steps
    ):
        setup = (guarantee, standbys)
        lockstep(side(False, *setup), side(True, *setup), steps, observe)
