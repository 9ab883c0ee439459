"""Unit tests for task-local KV stores (InMemory + LSM)."""

from dataclasses import replace

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.common.errors import ConfigError, StateStoreError
from repro.processing.store import InMemoryStore, LsmStore, make_store


@pytest.fixture(params=["memory", "lsm"])
def store(request):
    if request.param == "memory":
        return InMemoryStore()
    return LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=4, max_runs=2)


class TestCommonBehaviour:
    def test_get_missing_returns_none(self, store):
        assert store.get("nope") is None

    def test_put_get(self, store):
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}

    def test_overwrite(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2

    def test_delete(self, store):
        store.put("k", 1)
        store.delete("k")
        assert store.get("k") is None
        assert "k" not in store

    def test_delete_missing_ok(self, store):
        store.delete("ghost")

    def test_contains(self, store):
        store.put("k", 1)
        assert "k" in store
        assert "other" not in store

    def test_items_sorted_and_live_only(self, store):
        store.put("b", 2)
        store.put("a", 1)
        store.put("c", 3)
        store.delete("b")
        assert list(store.items()) == [("a", 1), ("c", 3)]

    def test_len(self, store):
        for i in range(5):
            store.put(f"k{i}", i)
        store.delete("k0")
        assert len(store) == 4

    def test_clear(self, store):
        store.put("k", 1)
        store.clear()
        assert len(store) == 0
        assert store.get("k") is None

    def test_size_grows_with_entries(self, store):
        empty = store.approximate_size_bytes()
        store.put("key", "value" * 10)
        assert store.approximate_size_bytes() > empty

    def test_non_string_keys(self, store):
        store.put(("composite", 1), "a")
        store.put(42, "b")
        assert store.get(("composite", 1)) == "a"
        assert store.get(42) == "b"

    def test_put_many_applies_puts_and_tombstones(self, store):
        store.put("gone", 1)
        store.put_many({"a": 1, "gone": None, "b": 2, "never": None})
        assert list(store.items()) == [("a", 1), ("b", 2)]
        assert "gone" not in store and "never" not in store


class TestKeyOrder:
    """Keys order by the key, not its ``repr`` (regressions: under ``repr``
    order each of these came out wrong on both stores)."""

    @pytest.fixture
    def ints(self, store):
        for i in range(30):
            store.put(i, f"v{i}")
        return store

    def test_an_int_range_is_numeric(self, ints):
        assert [k for k, _v in ints.range_items(5, 20)] == list(range(5, 20))

    def test_a_narrow_int_range_holds_only_its_keys(self, ints):
        assert list(ints.range_items(2, 3)) == [(2, "v2")]

    def test_negative_and_multi_digit_ints_scan_in_numeric_order(self, store):
        for k in (10, -1, 9, 1):
            store.put(k, k)
        assert [k for k, _v in store.items()] == [-1, 1, 9, 10]

    def test_types_order_by_rank_numbers_str_bytes_then_repr(self, store):
        keys = [("t", 1), b"b", "b", 2.5, "a", -3, b"a", 10, ("s", 2)]
        for k in keys:
            store.put(k, 1)
        assert [k for k, _v in store.items()] == [
            -3, 2.5, 10, "a", "b", b"a", b"b", ("s", 2), ("t", 1)
        ]
        assert [k for k, _v in store.range_items(0, "b")] == [2.5, 10, "a"]
        assert [k for k, _v in store.range_items("b", ("t", 0))] == [
            "b", b"a", b"b", ("s", 2)
        ]


class TestLsmSpecifics:
    def test_flush_on_memtable_full(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=3)
        for i in range(3):
            store.put(f"k{i}", i)
        assert store.flushes == 1
        assert store.get("k0") == 0  # served from the run

    def test_newer_run_shadows_older(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=2)
        store.put("k", "old")
        store.put("pad1", 1)  # flush 1
        store.put("k", "new")
        store.put("pad2", 2)  # flush 2
        assert store.get("k") == "new"

    def test_tombstone_survives_flush(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=2)
        store.put("k", "v")
        store.put("pad", 1)  # flush: k lives in a run
        store.delete("k")
        store.put("pad2", 2)  # flush: tombstone in newer run
        assert store.get("k") is None
        assert "k" not in store

    def test_compaction_merges_runs_and_drops_tombstones(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=2, max_runs=10)
        store.put("a", 1)
        store.put("b", 2)  # flush
        store.delete("a")
        store.put("c", 3)  # flush
        store.compact()
        assert list(store.items()) == [("b", 2), ("c", 3)]
        assert store.compactions == 1

    def test_auto_compaction_bounds_runs(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=1, max_runs=2)
        for i in range(10):
            store.put(f"k{i}", i)
        assert len(store._runs) <= 3

    def test_run_probe_costs_accumulate(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=1, max_runs=10)
        store.put("deep", 1)
        for i in range(5):
            store.put(f"pad{i}", i)
        store.get("deep")
        deep_cost = store.last_op_cost
        store.put("shallow", 2)
        store.get("shallow")
        shallow_cost = store.last_op_cost
        assert deep_cost > shallow_cost

    def test_a_tombstone_is_charged_the_same_in_the_memtable_and_in_a_run(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=3)
        store.put("a", 1)
        store.delete("a")
        store.put("b", 1)
        held = store.approximate_size_bytes()
        assert held == (1 + 0 + 16) + (1 + 8 + 16)  # "a": tombstone, "b": 1
        store.flush_memtable()
        assert store.approximate_size_bytes() == held

    def test_put_many_flushes_once_however_many_keys_it_brings(self):
        store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=2)
        store.put_many({f"k{i}": i for i in range(5)})
        assert store.flushes == 1 and len(store._runs) == 1
        assert len(store) == 5 and store.get("k4") == 4

    def test_none_value_rejected(self):
        with pytest.raises(StateStoreError):
            LsmStore(DEFAULT_COST_MODEL).put("k", None)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=0)
        with pytest.raises(ConfigError):
            LsmStore(DEFAULT_COST_MODEL, max_runs=0)


class TestFactory:
    def test_make_known_types(self):
        assert isinstance(make_store("memory", SimClock()), InMemoryStore)
        assert isinstance(make_store("lsm", SimClock()), LsmStore)

    def test_kwargs_forwarded(self):
        store = make_store("lsm", SimClock(), memtable_max_entries=7)
        assert store.memtable_max_entries == 7

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError):
            make_store("rocksdb", SimClock())


class TestStoresChargeTheWorldsCostModel:
    """A store holds no clock: :func:`make_store` hands an LSM store the
    model of the clock it is given (``test_one_cost_model.py`` follows the
    model through a whole world)."""

    def test_make_store_hands_the_model_to_the_lsm_store_only(self):
        model = replace(DEFAULT_COST_MODEL, store_put=7e-6)
        assert make_store("lsm", SimClock(cost_model=model)).cost_model is model
        assert make_store("lsm", SimClock()).cost_model is DEFAULT_COST_MODEL
        assert isinstance(make_store("memory", SimClock(cost_model=model)), InMemoryStore)
