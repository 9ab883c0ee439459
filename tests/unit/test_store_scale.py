"""A query costs what it reads (§3.2: "stateful jobs access state locally
for efficiency"; §5's front-ends read that state).

The LSM's sorted runs are probed with one dict lookup and a range scan
merges each run's slice of the range, cut by two C bisects, so the Python calls a read makes depend on
what it returns and on how many runs it probes — never on how many keys the
store holds.  Exact ``cProfile`` counts throughout: nothing here reads a
wall clock.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.processing.store import LsmStore
from repro.serving import StateQueryRouter
from tests.profiling import python_calls

#: A scan cuts each run with two bisects; a probe is a dict lookup, no call.
CALLS_PER_RUN_SCANNED = 2
CALLS_PER_RUN_PROBED = 0


def key(i: int) -> str:
    return f"k{i:05d}"  # zero-padded: code-point order is numeric order


def flushed_store(keys: int) -> LsmStore:
    store = LsmStore(DEFAULT_COST_MODEL, memtable_max_entries=1000, max_runs=4)
    for i in range(keys):
        store.put_many({key(i): i})
    store.flush_memtable()
    assert not store._memtable
    return store


@pytest.fixture(scope="module")
def small() -> LsmStore:
    return flushed_store(2_000)


@pytest.fixture(scope="module")
def big() -> LsmStore:
    return flushed_store(20_000)


def scan_calls(store: LsmStore, first: int, stop: int) -> int:
    start, end = key(first), key(stop)
    return python_calls(lambda: list(store.range_items(start, end)))


def test_a_50_key_range_costs_the_same_calls_at_2000_and_20000_keys(small, big):
    for store in (small, big):
        assert list(store.range_items(key(700), key(750))) == [
            (key(i), i) for i in range(700, 750)
        ]
    # The stores differ in size tenfold and in runs 2 vs 4; the scans differ
    # by the runs they bisect and by nothing else (the parent: 1 160 / 20 160).
    assert (len(small._runs), len(big._runs)) == (2, 4)
    at_20000 = scan_calls(big, 700, 750)
    assert at_20000 - scan_calls(small, 700, 750) == CALLS_PER_RUN_SCANNED * 2
    assert at_20000 < 100
    # ... and a scan pays for what it returns: one generator resumption a pair.
    assert scan_calls(big, 700, 760) - scan_calls(big, 700, 710) == 50


def test_a_point_get_costs_a_fixed_number_of_calls_per_run_probed(small, big):
    absent = "k99999x"  # misses every run, so every run is probed
    assert (len(small._runs), len(big._runs)) == (2, 4)
    four_runs = python_calls(lambda: big.get(absent))
    assert four_runs - python_calls(lambda: small.get(absent)) == CALLS_PER_RUN_PROBED * 2
    # The newest run answers after one probe, whatever lies under it.
    latest = key(19_999)
    assert big.get(latest) == 19_999
    assert four_runs - python_calls(lambda: big.get(latest)) == CALLS_PER_RUN_PROBED * 3
    # A probe is a lookup, not a search: one run of 2 000 keys and one of
    # 20 000 cost the same.
    one_small, one_big = flushed_store(2_000), flushed_store(20_000)
    one_small.compact()
    one_big.compact()
    assert (len(one_small._runs), len(one_big._runs)) == (1, 1)
    assert python_calls(lambda: one_small.get(absent)) == python_calls(
        lambda: one_big.get(absent)
    )


def test_len_makes_no_call_per_key(small, big):
    assert (len(small), len(big)) == (2_000, 20_000)
    assert python_calls(lambda: len(small)) == python_calls(lambda: len(big)) < 10


class CountingTask:
    def init(self, context):
        self.store = context.store("counts")

    def process(self, record, collector):
        self.store.put(record.key, (self.store.get(record.key) or 0) + 1)


#: Calls of one routed point get of a ``str`` key, the probe's own two
#: (the lambda and ``Profiler.disable``) included.  A primary read over an
#: LSM store: ``StateQueryRouter.get``, ``partition_for_key`` (``str.encode``,
#: ``zlib.crc32``), ``StateServer.get``, ``_select``, ``LsmStore.get``,
#: ``estimate_size``, ``network_oneway``, ``tuple.__new__`` (the
#: ``QueryResult``), the queries counter, the latency histogram (its
#: ``list.append``) and the tracer check.  A stale read adds the standby
#: set's ``len``, ``StandbyReplica.lag``, ``clock.now`` and the stale-served
#: counter.  The same whether the key sits in the memtable or in a run: a
#: run probe is a dict lookup.  (With the old per-query hop chain: 20 / 34.)
POINT_GET_CALLS = {False: 16, True: 20}


#: Where the store holds the queried key: ``memory``, its memtable (the
#: default size holds every key); ``lsm``, a run (a memtable of 8 flushes).
@pytest.mark.parametrize("memtable_max_entries", [
    pytest.param(1000, id="memory"), pytest.param(8, id="lsm"),
])
def test_a_routed_point_get_costs_a_fixed_handful_of_calls(memtable_max_entries):
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("in", num_partitions=4, replication_factor=1)
    producer = Producer(cluster)
    for i in range(400):
        producer.send("in", i, key=key(i % 100))
    runner = JobRunner(
        JobConfig(
            name="pinned",
            inputs=["in"],
            task_factory=CountingTask,
            stores=[
                StoreConfig(
                    "counts",
                    store_options={"memtable_max_entries": memtable_max_entries},
                )
            ],
            num_standby_replicas=1,
        ),
        cluster,
    )
    runner.run_until_idle()
    runner.checkpoint()
    router = StateQueryRouter(runner)
    k = key(42)
    task_id = router.task_for_key(k)
    ((standby,),) = [tuple(s.values()) for s in runner.standbys.of(task_id)]
    for store in (runner.task(task_id).stores["counts"].store, standby.store):
        assert (k in store._memtable) == (memtable_max_entries == 1000)
    for allow_stale in (False, True):
        result = router.get("counts", k, allow_stale=allow_stale)
        assert result.value == 4
        assert result.served_by == ("standby" if allow_stale else "primary")
        assert python_calls(
            lambda: router.get("counts", k, allow_stale=allow_stale)
        ) == POINT_GET_CALLS[allow_stale]


def store_ordered(keys) -> list:
    """The store order, spelled type group by type group: numbers
    numerically, then ``str`` by code point, then ``bytes``, then anything
    else by ``repr``."""
    numbers = sorted(k for k in keys if isinstance(k, (int, float)))
    strs = sorted(k for k in keys if isinstance(k, str))
    raw = sorted(k for k in keys if isinstance(k, bytes))
    rest = sorted(
        (k for k in keys if not isinstance(k, (int, float, str, bytes))), key=repr
    )
    return numbers + strs + raw + rest


def test_a_routed_range_over_four_shards_is_the_dict_models_in_store_order():
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("in", num_partitions=4, replication_factor=1)
    producer = Producer(cluster)
    model: dict = {}
    for i in range(600):
        # Mixed key types: str (one non-ASCII), int, negative int, float,
        # bytes, tuple.
        k = (
            f"k{i % 90}", f"é{i % 7}", i % 40 - 20, i % 9 + 0.5,
            f"b{i % 6}".encode(), (i % 5, "t"),
        )[i % 6]
        producer.send("in", {"i": i}, key=k)
        model[k] = model.get(k, 0) + 1
    runner = JobRunner(
        JobConfig(
            name="scaled",
            inputs=["in"],
            task_factory=CountingTask,
            stores=[
                StoreConfig(
                    "counts",
                    store_options={"memtable_max_entries": 16, "max_runs": 3},
                )
            ],
        ),
        cluster,
    )
    runner.run_until_idle()
    router = StateQueryRouter(runner)
    assert len(router.servers) == 4
    assert all(len(s.runner.task(s.task_id).stores["counts"].store) for s in router.servers)
    ordered = store_ordered(model)

    def below(bound):
        """How many of the model's keys order before ``bound``."""
        return store_ordered(set(model) | {bound}).index(bound)

    def in_store_order(start, end):
        first = 0 if start is None else below(start)
        stop = len(ordered) if end is None else below(end)
        return tuple((k, model[k]) for k in ordered[first:stop])

    for start, end in [
        (None, None), ("k2", "k5"), ("k85", None), (None, -3), (-5, 12),
        ((0, "t"), (3, "t")), ("é0", "k10"), ("k5", "k2"), (b"b1", None),
        (7, 7), (-20, 3.5), (8.5, "é3"),
    ]:
        result = router.range("counts", start, end)
        assert result.value == in_store_order(start, end), (start, end)
        assert result.found == bool(result.value)
        assert result.task_id == -1
    # Numbers merge numerically across shards, where ``repr`` put "10"
    # before "4" and "-2" before "-4".
    keys = [k for k, _v in router.range("counts", -5, 12).value]
    assert keys == sorted(keys)
    assert keys[:3] == [-4, -2, 0] and keys.index(4) < keys.index(10)
    assert router.approximate_count("counts").value == len(model)
