"""Property-based tests: routed queries agree with a model of the state.

The router's core promise is that a query for key *k* returns exactly what
the job's state holds for *k* — no matter how keys hash across shards, how
many partitions the job runs, or in what order puts and deletes arrived.
The model is a plain dict applying the same ops in order.
"""

from hypothesis import given, settings, strategies as st

from repro.common.partitioning import partition_for_key
from repro.processing.job import StoreConfig
from repro.serving import StateQueryRouter
from tests.reference.job import job

KEYS = [f"k{i}" for i in range(8)]

ops = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.one_of(st.none(), st.integers(-100, 100)),
    ),
    min_size=1,
    max_size=40,
)
partition_counts = st.integers(min_value=1, max_value=4)


class UpsertDeleteTask:
    def init(self, context):
        self.store = context.store("table")

    def process(self, record, collector):
        if record.value is None:
            self.store.delete(record.key)
        else:
            self.store.put(record.key, record.value)


def build(data, partitions):
    env = job(
        {"in": (partitions, 1)},
        name="prop", task_factory=UpsertDeleteTask, stores=[StoreConfig("table")],
    )
    for key, value in data:
        env.producer.send("in", value, key=key)
    runner = env.runner
    runner.run_until_idle()
    runner.checkpoint()
    model: dict = {}
    for key, value in data:
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value
    return runner, model


class TestRoutedQueriesMatchModel:
    @given(ops, partition_counts)
    @settings(max_examples=25, deadline=None)
    def test_get_agrees_with_model_and_direct_read(self, data, partitions):
        runner, model = build(data, partitions)
        router = StateQueryRouter(runner)
        for key in KEYS:
            result = router.get("table", key)
            assert result.value == model.get(key)
            assert result.found == (key in model)
            # ...and with the owning shard's raw store, byte-for-byte.
            task_id = partition_for_key(key, runner.num_tasks)
            assert result.value == runner.task(task_id).stores["table"].get(key)

    @given(ops, partition_counts)
    @settings(max_examples=25, deadline=None)
    def test_range_is_the_sorted_model(self, data, partitions):
        runner, model = build(data, partitions)
        result = StateQueryRouter(runner).range("table")
        expected = sorted(model.items(), key=lambda kv: repr(kv[0]))
        assert list(result.value) == expected

    @given(ops, partition_counts)
    @settings(max_examples=25, deadline=None)
    def test_count_is_the_model_cardinality(self, data, partitions):
        runner, model = build(data, partitions)
        result = StateQueryRouter(runner).approximate_count("table")
        assert result.value == len(model)
