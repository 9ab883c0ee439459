"""Property-based tests: a pass's state writes are one dict, and nothing a
job shows depends on it.

``KeyValueState`` holds a pass's writes per key and lands them in the store
as one ``put_many`` and in the changelog as one run at the pass's
hand-over.  The rule it replaced — every ``put`` / ``delete`` written
through to the store and staged as its own changelog entry at once — lives
on here as :class:`PerMutationState`, run by :class:`PerMutationRunner`.

Two same-seed clusters, one per rule, run the same random task programs —
puts, deletes, point gets, ``in``, ranges and ``len`` inside passes, some
raising part-way through a pass — through the same schedule of passes,
checkpoints, changelog compactions and crash + recover, under both
processing guarantees, with 0 or 1 standbys and either store type.  After
every step they agree on the outcome, the derived feed (so every in-pass
read saw the pass's own writes, which the write-through side reads from its
store), every task's store, every standby's store and what compaction keeps
of every changelog partition; after a recover, each store is exactly its
changelog's live content and holds no pending write.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import LiquidError, StateStoreError
from repro.common.records import EMPTY_HEADERS, TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.state import KeyValueState, changelog_topic_name

PARTITIONS = 2
STORES = ("s", "t")
KEYS = ("k0", "k1", "k2", "k3", "k4")


class PerMutationState(KeyValueState):
    """``KeyValueState`` as it was: every mutation goes straight to the
    store and stages its own changelog entry."""

    def put(self, key, value):
        if value is None:
            raise StateStoreError(
                f"state {self.name!r}: None values are reserved for deletes"
            )
        self.store.put_many({key: value})
        self.puts += 1
        if self.changelog is not None:
            self._stage(key, value)

    def delete(self, key):
        self.store.put_many({key: None})
        self.deletes += 1
        if self.changelog is not None:
            self._stage(key, None)

    def _stage(self, key, value):
        tp = self.changelog
        entry = (
            key, value, None, EMPTY_HEADERS if self.trace is None else self.trace(tp)
        )
        self.staged.setdefault(tp, []).append(entry)

    def get(self, key):
        self.gets += 1
        return self.store.get(key)

    def __contains__(self, key):
        return key in self.store

    def items(self):
        return self.store.items()

    def range(self, start=None, end=None):
        return self.store.range_items(start, end)

    def __len__(self):
        return len(self.store)

    def approximate_size_bytes(self):
        return self.store.approximate_size_bytes()

    def hand_over(self):
        return {}  # nothing is ever behind

    def clear(self):
        self.store.clear()


class PerMutationRunner(JobRunner):
    def _build_stores(self, task_id, staged):
        return {
            name: PerMutationState(
                name, state.store, state.changelog, staged
            )
            for name, state in super()._build_stores(task_id, staged).items()
        }


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


def build(per_mutation, guarantee, standbys, store_type):
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("in", num_partitions=PARTITIONS, replication_factor=1)
    cluster.create_topic("derived", num_partitions=PARTITIONS, replication_factor=1)
    failed: set = set()
    options = {"memtable_max_entries": 3, "max_runs": 2} if store_type == "lsm" else {}
    config = JobConfig(
        name="programs",
        inputs=["in"],
        task_factory=lambda: ProgramTask(failed),
        stores=[StoreConfig(name, store_type=store_type, store_options=options)
                for name in STORES],
        checkpoint_interval=4,
        processing_guarantee=guarantee,
        num_standby_replicas=standbys,
        changelog_segment_messages=4,
    )
    runner = (PerMutationRunner if per_mutation else JobRunner)(config, cluster)
    return SimpleNamespace(cluster=cluster, runner=runner, producer=Producer(cluster))


def apply(env, step):
    kind, arg = step
    try:
        if kind == "produce":
            for i, program in enumerate(arg):
                env.producer.send("in", program, key=f"r{i}", partition=i % PARTITIONS)
            env.producer.flush()
            return None
        if kind == "poll":
            result = env.runner.poll_once(max_messages=arg)
            return result.records_processed, result.records_emitted
        if kind == "checkpoint":
            env.runner.checkpoint()
            return None
        if kind == "compact":
            # How much it removes depends on how many records were shipped.
            for broker in env.cluster.brokers():
                broker.run_compaction()
            return None
        if kind == "recover":
            env.runner.crash()
            return [
                (e.store, e.task_id, e.source) for e in env.runner.recover().entries
            ]
        raise AssertionError(kind)
    except LiquidError as exc:
        return type(exc).__name__


def compacted_changelogs(env):
    """Per changelog partition, what compaction keeps: the live value of
    every key (a tombstone and its absence read the same)."""
    kept = {}
    for name in STORES:
        for tp in env.cluster.partitions_of(changelog_topic_name("programs", name)):
            fetched = env.cluster.fetch(
                tp.topic, tp.partition, 0, max_messages=100_000,
                isolation=env.runner.isolation,
            )
            last = {r.key: r.value for r in fetched.records}
            kept[tp] = {k: v for k, v in last.items() if v is not None}
    return kept


def observe(env):
    runner = env.runner
    return {
        # Offsets and values; not timestamps: fewer changelog records make
        # a different simulated clock.
        "derived": [
            [
                (r.offset, r.key, r.value)
                for r in env.cluster.fetch(
                    "derived", p, 0, max_messages=100_000, isolation=runner.isolation
                ).records
            ]
            for p in range(PARTITIONS)
        ],
        "stores": [
            {name: list(state.items()) for name, state in instance.stores.items()}
            for instance in runner.tasks()
        ],
        "standbys": {
            task_id: [
                {name: (replica.position is None, list(replica.store.items()))
                 for name, replica in replicas.items()}
                for replicas in sets
            ]
            for task_id, sets in runner.standbys._sets.items()
        },
        "changelogs": compacted_changelogs(env),
        "counts": (runner.records_processed, runner.records_emitted),
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
        steps.append(("produce", programs))
        steps += [("poll", budget) for budget in budgets]
        if event is not None:
            steps.append((event, None))
    return steps


#: Sized from the profile: 40 in tier-1, the ``deep`` profile's under
#: ``--hypothesis-profile=deep``.
EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 40


class TestWriteBehindMatchesPerMutation:
    @given(
        st.sampled_from((AT_LEAST_ONCE, EXACTLY_ONCE)),
        st.integers(0, 1),  # standbys
        st.sampled_from(("memory", "lsm")),
        st.lists(ROUND, min_size=1, max_size=5).map(expand),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_every_step_equals_the_per_mutation_reference(
        self, guarantee, standbys, store_type, steps
    ):
        new = build(False, guarantee, standbys, store_type)
        ref = build(True, guarantee, standbys, store_type)
        assert observe(new) == observe(ref)
        for step in steps:
            outcome = apply(new, step)
            assert outcome == apply(ref, step), step
            assert observe(new) == observe(ref), step
            if step[0] == "recover" and not isinstance(outcome, str):
                restored_is_the_changelog(new)
