"""A simulated world has one cost model, and every component charges it.

The model is set in one place, ``SimClock(cost_model=...)``; every component
reads it from the clock it is built on (or, holding no clock, is handed it
by a builder that reads it there).  A parameter that defaulted to
``DEFAULT_COST_MODEL`` anywhere else let a component that was not handed the
world's model charge the defaults silently, so the walk below keeps any such
default from growing back.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import repro
from repro.baselines.dfs import SimulatedDFS
from repro.baselines.kappa_arch import KappaArchitecture
from repro.baselines.lambda_arch import LambdaArchitecture
from repro.baselines.mapreduce import MapReduceEngine, MRJobSpec
from repro.common.clock import SimClock
from repro.common.costmodel import DEFAULT_COST_MODEL
from repro.core.liquid import Liquid
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.messaging.topic import TopicConfig
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered import ColdTier, DfsObjectStore, TieredConfig

#: The one place a world's model has a default.
THE_DEFAULT = "repro.common.clock.SimClock.__init__"


def _package_callables():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif isinstance(obj, type):
                for attr in vars(obj).values():
                    function = getattr(attr, "__func__", attr)
                    if inspect.isfunction(function):
                        yield f"{module.__name__}.{function.__qualname__}", function


def test_no_cost_model_parameter_has_a_default_but_the_clocks():
    defaults = sorted(
        name
        for name, function in _package_callables()
        if (parameter := inspect.signature(function).parameters.get("cost_model"))
        is not None
        and parameter.default is not inspect.Parameter.empty
    )
    assert defaults == [THE_DEFAULT]


class Table:
    def init(self, context):
        self.store = context.store("table")

    def process(self, record, collector):
        self.store.put(record.key, record.value)


def test_a_world_charges_its_model():
    model = dataclasses.replace(
        DEFAULT_COST_MODEL,
        mr_job_startup=1.0,
        cold_fetch_overhead=7e-3,
        store_put=7e-6,
        network_rtt=0.3e-3,
    )
    clock = SimClock(cost_model=model)

    # A cluster with a tiered topic, read below its retained head: its
    # brokers, logs, page caches, shared cold store and cold readers all
    # charge the world's model.
    cluster = MessagingCluster(num_brokers=1, clock=clock, maintenance_interval=1.0)
    cluster.create_topic(
        TopicConfig(
            name="t",
            num_partitions=1,
            replication_factor=1,
            retention=RetentionConfig(retention_seconds=5.0),
            log=LogConfig(segment_max_messages=4),
            tiered=TieredConfig(),
        )
    )
    for i in range(12):
        cluster.produce("t", 0, [(f"k{i}", i, None, {})], acks="all")
        cluster.tick(1.0)
    for _ in range(10):
        cluster.tick(1.0)
    cold = cluster.fetch("t", 0, 0, max_messages=100)
    assert [r.value for r in cold.records] == list(range(12))
    broker = cluster.broker(0)
    replica = broker.replica(("t", 0))
    assert replica.log.log_start_offset > 0 and replica.cold_tier.reader.misses > 0
    assert cluster.cost_model is model and broker.cost_model is model
    assert replica.log.cost_model is model
    assert replica.log.page_cache.cost_model is model
    assert replica.cold_tier.reader.cost_model is model
    assert cluster.object_store.cost_model is model
    assert cluster.object_store.dfs.cost_model is model

    # A cold store over a DFS on the world's clock: a put pays the model's
    # upload on top of the DFS's own write, a get its fetch on top of the
    # read, and the reader beside it charges the same model.
    store = DfsObjectStore(SimulatedDFS(clock))
    twin = SimulatedDFS(SimClock(cost_model=model))
    tier = ColdTier(replica.log, store, namespace="t/0")
    assert tier.reader.cost_model is model
    assert store.put("k", ["v"], 1000).latency == (
        model.cold_put(1000) + twin.write_file("/k", ["v"], 1000).latency
    )
    assert store.get("k").latency == (
        model.cold_fetch(1000) + twin.read_file("/k").latency
    )

    # An LSM job store and its standby: a put pays the model's store_put.
    cluster.create_topic("in", num_partitions=1, replication_factor=1)
    for i in range(4):
        Producer(cluster).send("in", i, key=f"k{i}", partition=0)
    runner = JobRunner(
        JobConfig(
            name="j",
            inputs=["in"],
            task_factory=Table,
            stores=[StoreConfig("table")],
            num_standby_replicas=1,
        ),
        cluster,
    )
    runner.run_until_idle()
    lsm = runner.task(0).stores["table"].store
    assert lsm.cost_model is model
    lsm.put_many({"k": 1})
    assert lsm.last_op_cost == model.store_put
    ((standby,),) = [tuple(s.values()) for s in runner.standbys.of(0)]
    assert standby.store.cost_model is model

    # A DFS on the world's clock, and a MapReduce engine over it, pay the
    # model's job startup.
    dfs = SimulatedDFS(clock)
    dfs.write_file("/in/part-0", [1, 2, 3])
    engine = MapReduceEngine(dfs, map_parallelism=1, reduce_parallelism=1)
    result = engine.run(
        MRJobSpec(
            name="count",
            input_paths=["/in"],
            output_path="/out",
            map_fn=lambda record: [(record, 1)],
            reduce_fn=lambda key, values: [(key, sum(values))],
        )
    )
    assert result.startup_seconds == model.mr_job_startup + 2 * model.mr_task_startup

    # The architectures built on the clock.
    lam = LambdaArchitecture(clock)
    assert lam.cost_model is model
    assert lam.dfs.cost_model is model and lam.mr.cost_model is model
    assert lam.stream.cost_model is model
    kappa = KappaArchitecture(clock)
    assert kappa.cost_model is model and kappa.stream.cost_model is model
    assert Liquid(num_brokers=1, clock=clock).cluster.cost_model is model
