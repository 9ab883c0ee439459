"""Property-based tests: LsmStore behaves exactly like a dict, and reads
exactly like a store that merges everything.

The read path probes each sorted run with one dict lookup and a range scan
merges only each run's slice of the range, cut by bisecting its key column.
:class:`~tests.reference.store.ReferenceLsm` merges every run into a dict,
orders all of it by the contract — the store order spelled type group by
type group — and filters: the model the store must equal after every step of a
random schedule over mixed int / float / str / bytes / tuple keys
(``TestReadsMatchReference``).
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.processing.store import LsmStore
from tests.reference import examples
from tests.reference.store import ReferenceLsm, model_range

keys = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
values = st.one_of(st.integers(), st.text(max_size=5))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys, st.none()),
    ),
    max_size=120,
)


class TestAgainstDictModel:
    @given(operations, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_random_ops_match_model(self, ops, memtable_size):
        store = LsmStore(
            DEFAULT_COST_MODEL, memtable_max_entries=memtable_size, max_runs=2
        )
        model: dict = {}
        for op, key, value in ops:
            if op == "put":
                store.put_many({key: value})
                model[key] = value
            else:
                store.put_many({key: None})
                model.pop(key, None)
            assert store.get(key) == model.get(key)
        for key in model:
            assert store.get(key) == model[key]
        assert dict(store.items()) == model
        assert len(store) == len(model)

    @given(operations, st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_compaction_preserves_contents(self, ops, memtable_size):
        store = LsmStore(
            DEFAULT_COST_MODEL, memtable_max_entries=memtable_size, max_runs=3
        )
        model: dict = {}
        for op, key, value in ops:
            if op == "put":
                store.put_many({key: value})
                model[key] = value
            else:
                store.put_many({key: None})
                model.pop(key, None)
        store.flush_memtable()
        store.compact()
        assert dict(store.items()) == model

    @given(operations)
    @settings(max_examples=30, deadline=None)
    def test_contains_matches_model(self, ops):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=3, max_runs=2)
        model: dict = {}
        for op, key, value in ops:
            if op == "put":
                store.put_many({key: value})
                model[key] = value
            else:
                store.put_many({key: None})
                model.pop(key, None)
        for key in "abcdefgh":
            assert (key in store) == (key in model)


class LsmStateMachine(RuleBasedStateMachine):
    """Stateful fuzz of the LSM store against a dict."""

    def __init__(self):
        super().__init__()
        self.store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=4, max_runs=2)
        self.model: dict = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.store.put_many({key: value})
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.store.put_many({key: None})
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.store.flush_memtable()

    @rule()
    def compact(self):
        self.store.flush_memtable()
        self.store.compact()

    @invariant()
    def contents_match(self):
        assert dict(self.store.items()) == self.model


TestLsmStateMachine = LsmStateMachine.TestCase
TestLsmStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


# The order is the contract, so the keys mix types whose order the old
# ``repr`` rule got wrong: -12 before -3 and 2 before 10 numerically, floats
# among the ints (2.0 is the key 2), str before bytes before tuples.  A
# small pool, so puts, deletes and bounds collide.
mixed_keys = st.one_of(
    st.text(alphabet="abé水", max_size=2),
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([-2.5, 0.5, 2.0, 9.75]),
    st.sampled_from([b"", b"a", b"ab", b"\xff"]),
    st.tuples(st.integers(min_value=-1, max_value=1), st.sampled_from(["a", "é"])),
)
bounds = st.one_of(st.none(), mixed_keys)
schedule = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("put"), mixed_keys, values),
            st.tuples(st.just("delete"), mixed_keys, st.none()),
            st.tuples(
                st.just("put_many"),
                st.none(),
                st.dictionaries(mixed_keys, st.one_of(st.none(), values), max_size=6),
            ),
            st.tuples(st.just("flush"), st.none(), st.none()),
            st.tuples(st.just("compact"), st.none(), st.none()),
        ),
        bounds,
        bounds,
    ),
    max_size=40,
)


class TestReadsMatchReference:
    @given(
        schedule,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_every_read_equals_the_merge_everything_reference(
        self, steps, memtable_size, max_runs
    ):
        lsm = LsmStore(
            DEFAULT_COST_MODEL,
            memtable_max_entries=memtable_size,
            max_runs=max_runs,
        )
        ref = ReferenceLsm(memtable_size, max_runs)
        model: dict = {}
        seen: list = []
        for (op, key, value), start, end in steps:
            # Generators made before the mutation, consumed after it: the
            # LSM snapshots at the first ``next``, so it sees the mutation.
            early = lsm.range_items(start, end), ref.range_items(start, end)
            written = []
            if op == "put":
                for store in (lsm, ref):
                    store.put_many({key: value})
                model[key] = value
                written = [key]
            elif op == "delete":
                for store in (lsm, ref):
                    store.put_many({key: None})
                model.pop(key, None)
                written = [key]
            elif op == "put_many":
                for store in (lsm, ref):
                    store.put_many(value)
                for k, v in value.items():
                    if v is None:
                        model.pop(k, None)
                    else:
                        model[k] = v
                written = list(value)
            elif op == "flush":
                lsm.flush_memtable()
                ref.flush_memtable()
            else:
                lsm.compact()
                ref.compact()
            assert lsm.last_op_cost == ref.last_op_cost
            assert (lsm.flushes, lsm.compactions) == (ref.flushes, ref.compactions)
            assert list(early[0]) == list(early[1])

            for k in written:
                if k not in seen:
                    seen.append(k)
            for probe in seen + [start, end]:
                assert lsm.get(probe) == ref.get(probe) == model.get(probe)
                assert lsm.last_op_cost == ref.last_op_cost
                assert (probe in lsm) == (probe in ref) == (probe in model)
            assert len(lsm) == len(ref) == len(model)
            assert lsm.scan_cost() == ref.scan_cost()
            everything = list(ref.items())
            assert list(lsm.items()) == everything == model_range(model, None, None)
            # The drawn bounds (either may be None, absent from the store,
            # equal or inverted), then the same pair inverted, the empty
            # range at a key just written or tombstoned, and that key as
            # each bound.
            key = written[0] if written else None
            for lo, hi in (
                (start, end), (end, start), (key, key), (key, end), (start, key)
            ):
                expected = list(ref.range_items(lo, hi))
                assert list(lsm.range_items(lo, hi)) == expected
                assert expected == model_range(model, lo, hi)
