"""Property-based tests: LsmStore behaves exactly like a dict, and reads
exactly like the store it replaced.

The read path probes each sorted run with one C bisect and a range scan
merges only each run's slice of the range.  The store it replaced merged
every run into a dict, sorted all of it and filtered by ``repr`` — that
code lives on here as :class:`ReferenceLsm`, the model the new one must
equal after every step of a random schedule (``TestReadsMatchReference``).
"""

from bisect import bisect_left

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
        store = LsmStore(memtable_max_entries=memtable_size, max_runs=2)
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
        store = LsmStore(memtable_max_entries=memtable_size, max_runs=3)
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
        store = LsmStore(memtable_max_entries=3, max_runs=2)
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
        self.store = LsmStore(memtable_max_entries=4, max_runs=2)
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


# -- the store the read path replaced, kept as the reference model -----------------

_MISSING = object()


def _range_filter(items, start, end):
    start_key = None if start is None else repr(start)
    end_key = None if end is None else repr(end)
    for key, value in items:
        sort_key = repr(key)
        if start_key is not None and sort_key < start_key:
            continue
        if end_key is not None and sort_key >= end_key:
            break
        yield key, value


class _ReferenceRun:
    def __init__(self, entries):
        self.entries = entries  # (sort_key, key, value), sorted by sort_key

    def get(self, sort_key):
        idx = bisect_left(self.entries, sort_key, key=lambda e: e[0])
        if idx < len(self.entries) and self.entries[idx][0] == sort_key:
            return self.entries[idx][2]
        return _MISSING


class ReferenceLsm:
    """``LsmStore`` as of the parent commit: every scan merges everything."""

    def __init__(self, memtable_max_entries, max_runs):
        self.memtable_max_entries = memtable_max_entries
        self.max_runs = max_runs
        self.cost_model = DEFAULT_COST_MODEL
        self._memtable = {}
        self._runs = []  # newest first
        self.last_op_cost = 0.0
        self.flushes = 0
        self.compactions = 0

    def get(self, key):
        sort_key = repr(key)
        cost = self.cost_model.store_memtable_get
        entry = self._memtable.get(sort_key)
        if entry is not None:
            self.last_op_cost = cost
            value = entry[1]
            return None if value is _MISSING else value
        for run in self._runs:
            cost += self.cost_model.store_run_get
            value = run.get(sort_key)
            if value is not _MISSING:
                self.last_op_cost = cost
                return value
        self.last_op_cost = cost
        return None

    def put(self, key, value):
        self._memtable[repr(key)] = (key, value)
        self.last_op_cost = self.cost_model.store_put
        self._maybe_flush()

    def delete(self, key):
        self._memtable[repr(key)] = (key, _MISSING)
        self.last_op_cost = self.cost_model.store_put
        self._maybe_flush()

    def __contains__(self, key):
        sort_key = repr(key)
        entry = self._memtable.get(sort_key)
        if entry is not None:
            return entry[1] is not _MISSING
        for run in self._runs:
            value = run.get(sort_key)
            if value is not _MISSING:
                return value is not None
        return False

    def _maybe_flush(self):
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def flush_memtable(self):
        if not self._memtable:
            return
        entries = sorted(
            (sort_key, key, None if value is _MISSING else value)
            for sort_key, (key, value) in self._memtable.items()
        )
        self._runs.insert(0, _ReferenceRun(entries))
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def compact(self):
        merged = {}
        for run in reversed(self._runs):
            for sort_key, key, value in run.entries:
                merged[sort_key] = (key, value)
        survivors = sorted(
            (sort_key, key, value)
            for sort_key, (key, value) in merged.items()
            if value is not None
        )
        self._runs = [_ReferenceRun(survivors)] if survivors else []
        self.compactions += 1

    def items(self):
        merged = {}
        for run in reversed(self._runs):
            for sort_key, key, value in run.entries:
                merged[sort_key] = (key, value)
        for sort_key, (key, value) in self._memtable.items():
            merged[sort_key] = (key, None if value is _MISSING else value)
        for sort_key in sorted(merged):
            key, value = merged[sort_key]
            if value is not None:
                yield key, value

    def range_items(self, start=None, end=None):
        return _range_filter(self.items(), start, end)

    def scan_cost(self):
        return (
            self.cost_model.store_memtable_get
            + self.cost_model.store_run_get * len(self._runs)
        )

    def __len__(self):
        return sum(1 for _ in self.items())


# ``repr`` order is the contract, so the keys mix types whose ``repr``s
# interleave: every str ("'…") sorts before every tuple ("(…") before the
# negative ints before the rest, -12 before -3 and 10 before 2, bytes
# ("b'…") last.  A small pool, so puts, deletes and bounds collide.
mixed_keys = st.one_of(
    st.text(alphabet="abé水", max_size=2),
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([b"", b"a", b"ab", b"\xff"]),
    st.tuples(st.integers(min_value=-1, max_value=1), st.sampled_from(["a", "é"])),
)
bounds = st.one_of(st.none(), mixed_keys)
schedule = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("put"), mixed_keys, values),
            st.tuples(st.just("delete"), mixed_keys, st.none()),
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


def model_range(model, start, end):
    """The contract, from a plain dict: sort by ``repr``, keep [start, end)."""
    return list(
        _range_filter(iter(sorted(model.items(), key=lambda kv: repr(kv[0]))), start, end)
    )


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
        lsm = LsmStore(memtable_max_entries=memtable_size, max_runs=max_runs)
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
            if op == "put":
                for store in (lsm, ref, mem):
                    store.put(key, value)
                model[key] = value
            elif op == "delete":
                for store in (lsm, ref, mem):
                    store.delete(key)
                model.pop(key, None)
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

            if key is not None and key not in seen:
                seen.append(key)
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
            # range at the key just written or tombstoned, and that key as
            # each bound.
            for lo, hi in (
                (start, end), (end, start), (key, key), (key, end), (start, key)
            ):
                expected = list(ref.range_items(lo, hi))
                assert list(lsm.range_items(lo, hi)) == expected
                assert list(mem.range_items(lo, hi)) == expected
                assert expected == model_range(model, lo, hi)
