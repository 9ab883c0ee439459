"""Property-based tests: LsmStore behaves exactly like a dict, and reads
exactly like a store that merges everything.

The read path probes each sorted run with one dict lookup and a range scan
merges only each run's slice of the range, cut by bisecting its key column.
:class:`ReferenceLsm` merges every run into a dict, orders all of it by the
contract — :func:`model_order`, the store order spelled type group by type
group — and filters: the model the store must equal after every step of a
random schedule over mixed int / float / str / bytes / tuple keys
(``TestReadsMatchReference``).
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.processing.store import InMemoryStore, LsmStore

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
                store.put(key, value)
                model[key] = value
            else:
                store.delete(key)
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
                store.put(key, value)
                model[key] = value
            else:
                store.delete(key)
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
                store.put(key, value)
                model[key] = value
            else:
                store.delete(key)
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
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.store.delete(key)
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


# -- the merge-everything reference ---------------------------------------------------


def model_order(keys):
    """The contract, type group by type group: numbers numerically, then
    ``str`` by code point, then ``bytes`` bytewise, then everything else by
    ``repr``."""
    numbers, strs, raw, rest = [], [], [], []
    for key in keys:
        if isinstance(key, str):
            strs.append(key)
        elif isinstance(key, (int, float)):
            numbers.append(key)
        elif isinstance(key, bytes):
            raw.append(key)
        else:
            rest.append(key)
    return sorted(numbers) + sorted(strs) + sorted(raw) + sorted(rest, key=repr)


def model_range(model, start, end):
    """``model``'s pairs with ``start <= key < end`` in the contract order;
    a bound's place is where the contract sorts it among the keys."""
    ordered = model_order(model)

    def below(bound):
        return model_order(set(model) | {bound}).index(bound)

    first = 0 if start is None else below(start)
    stop = len(ordered) if end is None else below(end)
    return [(key, model[key]) for key in ordered[first:stop]]


class ReferenceLsm:
    """``LsmStore``'s write and flush rules, with reads that merge every run
    and the memtable into one dict, then order and filter it."""

    def __init__(self, memtable_max_entries, max_runs):
        self.memtable_max_entries = memtable_max_entries
        self.max_runs = max_runs
        self.cost_model = DEFAULT_COST_MODEL
        self._memtable = {}  # key -> value, None a tombstone
        self._runs = []  # dicts, newest first
        self.last_op_cost = 0.0
        self.flushes = 0
        self.compactions = 0

    def get(self, key):
        cost = self.cost_model.store_memtable_get
        if key in self._memtable:
            self.last_op_cost = cost
            return self._memtable[key]
        for run in self._runs:
            cost += self.cost_model.store_run_get
            if key in run:
                self.last_op_cost = cost
                return run[key]
        self.last_op_cost = cost
        return None

    def put(self, key, value):
        self.put_many({key: value})

    def delete(self, key):
        self.put_many({key: None})

    def put_many(self, writes):
        self._memtable.update(writes)
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def __contains__(self, key):
        return self.get(key) is not None

    def flush_memtable(self):
        if not self._memtable:
            return
        self._runs.insert(0, self._memtable)
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def _merged(self):
        merged = {}
        for run in reversed(self._runs):
            merged.update(run)
        return merged

    def compact(self):
        merged = {k: v for k, v in self._merged().items() if v is not None}
        self._runs = [merged] if merged else []
        self.compactions += 1

    def items(self):
        merged = self._merged()
        merged.update(self._memtable)
        live = {k: v for k, v in merged.items() if v is not None}
        yield from model_range(live, None, None)

    def range_items(self, start=None, end=None):
        merged = self._merged()
        merged.update(self._memtable)
        live = {k: v for k, v in merged.items() if v is not None}
        yield from model_range(live, start, end)

    def scan_cost(self):
        return (
            self.cost_model.store_memtable_get
            + self.cost_model.store_run_get * len(self._runs)
        )

    def __len__(self):
        return sum(1 for _ in self.items())


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
#: Sized from the profile: 60 in tier-1, the ``deep`` profile's in CI's
#: ``determinism`` job.
EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 60


class TestReadsMatchReference:
    @given(
        schedule,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_every_read_equals_the_merge_everything_reference(
        self, steps, memtable_size, max_runs
    ):
        lsm = LsmStore(
            DEFAULT_COST_MODEL,
            memtable_max_entries=memtable_size,
            max_runs=max_runs,
        )
        ref = ReferenceLsm(memtable_size, max_runs)
        mem = InMemoryStore()
        model: dict = {}
        seen: list = []
        for (op, key, value), start, end in steps:
            # Generators made before the mutation, consumed after it: the
            # LSM snapshots at the first ``next`` (so it sees the mutation),
            # the dict store when ``range_items`` is called (so it does not).
            early = lsm.range_items(start, end), ref.range_items(start, end)
            early_mem = mem.range_items(start, end), model_range(model, start, end)
            written = []
            if op == "put":
                for store in (lsm, ref, mem):
                    store.put(key, value)
                model[key] = value
                written = [key]
            elif op == "delete":
                for store in (lsm, ref, mem):
                    store.delete(key)
                model.pop(key, None)
                written = [key]
            elif op == "put_many":
                for store in (lsm, ref, mem):
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
            assert list(early_mem[0]) == early_mem[1]

            for k in written:
                if k not in seen:
                    seen.append(k)
            for probe in seen + [start, end]:
                assert lsm.get(probe) == ref.get(probe) == mem.get(probe)
                assert lsm.last_op_cost == ref.last_op_cost
                assert (probe in lsm) == (probe in ref) == (probe in mem)
            assert len(lsm) == len(ref) == len(mem) == len(model)
            assert lsm.scan_cost() == ref.scan_cost()
            everything = list(ref.items())
            assert list(lsm.items()) == everything
            assert list(mem.items()) == everything == model_range(model, None, None)
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
                assert list(mem.range_items(lo, hi)) == expected
                assert expected == model_range(model, lo, hi)
