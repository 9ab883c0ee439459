"""Instruments are bound where their component is built.

A component asks the registry for its counters and histograms once, in its
``__init__``, and the request path increments the bound objects: a fetch, a
produce or a page-cache touch looks nothing up.  The registry's
get-or-create lookup serves that set-up alone; a report reads through
``metrics.get`` and creates nothing.  The walk keeps lookups out of every
other function, and the identity check keeps the bound objects the
registry's own, across ``reset()``.
"""

import ast
from pathlib import Path

import repro
from repro.common.clock import SimClock
from repro.common.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.producer import Producer
from repro.messaging.topic import TopicConfig
from repro.messaging.transactions import (
    TransactionalProducer,
    find_transaction_coordinator,
    get_transaction_coordinator,
)
from repro.processing.job import JobConfig, JobRunner, StoreConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered import TieredConfig
from repro.tools.admin import AdminClient

ROOT = Path(repro.__file__).parent

LOOKUPS = {"counter", "histogram", "gauge"}


def _lookups(tree) -> list[tuple[str, int]]:
    """``(qualified function, line)`` of every ``x.counter(...)``,
    ``x.histogram(...)`` or ``x.gauge(...)`` call not directly inside an
    ``__init__`` (a def or lambda nested in one runs later, so it counts)."""
    found = []

    def walk(node, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Lambda):
                walk(child, scope + ["<lambda>"])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in LOOKUPS
                and (not scope or scope[-1] != "__init__")
            ):
                found.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, [])
    return found


def test_no_lookup_outside_a_constructor():
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        for function, line in _lookups(ast.parse(path.read_text())):
            offenders.append(f"{name}:{line} {function}")
    assert offenders == []


def test_admin_reports_create_no_instrument():
    """Regression: ``describe_cluster`` created the consumer's prefetch
    counter and the producer's compression histogram on a cluster that had
    neither, and ``transaction_report`` built the transaction coordinator
    with its seven counters."""
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("t", num_partitions=1, replication_factor=1)
    names = cluster.metrics.names()
    admin = AdminClient(cluster)
    stats = admin.describe_cluster()["compression"]
    assert stats["prefetch_hits"] == 0
    assert stats["mean_compression_ratio"] == stats["compressed_batches"] == 0.0
    report = admin.transaction_report()
    assert report.open_transactions == () and report.counters == {}
    assert cluster.metrics.names() == names
    assert find_transaction_coordinator(cluster) is None


def test_the_walk_sees_the_lookups_it_forbids():
    source = (
        "class C:\n"
        "    def __init__(self, m):\n"
        "        self.c = m.counter('a')\n"
        "        def later():\n"
        "            return m.histogram('b')\n"
        "        self.f = lambda: m.gauge('c')\n"
        "    def path(self, m):\n"
        "        m.counter('d').increment()\n"
        "x = m.counter('e')\n"
    )
    assert _lookups(ast.parse(source)) == [
        ("C.__init__.later", 5), ("C.__init__.<lambda>", 6), ("C.path", 8), ("", 9),
    ]


def _bound(obj) -> list[Counter | Gauge | Histogram]:
    """The instruments ``obj`` holds as attributes (or in a dict of them)."""
    held = []
    for value in vars(obj).values():
        values = value.values() if isinstance(value, dict) else (value,)
        held.extend(v for v in values if isinstance(v, (Counter, Gauge, Histogram)))
    return held


def _stack():
    """A cluster with a tiered topic, a compressing producer, a prefetching
    consumer, a transactional producer and a stateful job with a standby."""
    cluster = MessagingCluster(num_brokers=2, clock=SimClock(), maintenance_interval=1.0)
    cluster.create_topic(TopicConfig(
        name="events", num_partitions=1, replication_factor=2,
        retention=RetentionConfig(retention_seconds=2.0),
        log=LogConfig(segment_max_messages=4),
        tiered=TieredConfig(),
    ))
    cluster.create_topic("in", num_partitions=1, replication_factor=1)
    producer = Producer(cluster, ProducerConfig(compression="zlib:6", linger_messages=4))
    for i in range(16):
        producer.send("events", {"i": i}, partition=0)
        cluster.tick(1.0)
    producer.flush()
    for _ in range(5):
        cluster.tick(1.0)
    consumer = Consumer(cluster, ConsumerConfig(prefetch=True, max_poll_messages=3))
    events = cluster.partitions_of("events")[0]
    consumer.assign([events])
    consumer.seek_to_beginning(events)
    while consumer.poll():
        pass
    txn = TransactionalProducer(cluster, "tx")
    txn.begin()
    txn.send("in", "v", key="k")
    txn.commit()

    class Count:
        def init(self, context):
            self.store = context.store("counts")

        def process(self, record, collector):
            self.store.put(record.key, (self.store.get(record.key) or 0) + 1)

    runner = JobRunner(JobConfig(
        name="count", inputs=["in"], task_factory=Count,
        stores=[StoreConfig("counts")], num_standby_replicas=1,
    ), cluster)
    runner.run_until_idle()
    runner.checkpoint()
    runner.crash()
    runner.recover()
    tiers = [
        replica.cold_tier
        for broker in cluster.brokers()
        for replica in broker.replicas()
        if replica.cold_tier is not None
    ]
    holders = [
        cluster, cluster.replication, producer, consumer, txn,
        get_transaction_coordinator(cluster), runner, runner.standbys,
        *cluster.brokers(), *(broker.page_cache for broker in cluster.brokers()),
        *tiers, *(tier.reader for tier in tiers), *(tier.archiver for tier in tiers),
    ]
    return cluster, holders


def test_bound_instruments_are_the_registrys_across_reset():
    cluster, holders = _stack()
    registry: MetricsRegistry = cluster.metrics
    bound = [instrument for holder in holders for instrument in _bound(holder)]
    assert len({instrument.name for instrument in bound}) > 40
    lookup = {Counter: registry.counter, Gauge: registry.gauge, Histogram: registry.histogram}

    def same_objects():
        return all(lookup[type(i)](i.name) is i for i in bound)

    assert same_objects()
    assert any(isinstance(i, Counter) and i.value for i in bound)
    registry.reset()
    assert same_objects()
    assert all(
        (i.count if isinstance(i, Histogram) else i.value) == 0 for i in bound
    )
    wire = registry.counter("messaging.cluster.bytes_on_wire")
    cluster.produce("in", 0, [("k", "after reset", None, {})])
    assert wire.value > 0 and wire is cluster._c_wire_bytes
