"""One job driver: two job environments in lockstep; and the job-layer
references (:class:`ReferenceJobRunner` stages every write per record,
:class:`PerMutationRunner` writes every mutation through to the store).

A step is ``(kind, arg, armed)``, ``armed`` a failpoint ``(name, action,
times)`` armed for the step, or ``None``.  Kinds: ``produce`` (``arg``
lists ``(key, value, partition)`` input records, flushed), ``poll`` (one
``poll_once`` of ``arg`` records), ``checkpoint``, ``compact`` (every
broker's compaction), ``advance`` (the clock, by ``arg``), ``recover``
(crash, then recover), ``migrate`` (task ``arg``) and ``query`` (snapshot
and stale-tolerant range queries of every store, through the router).
"""

from __future__ import annotations

from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

from repro.chaos.failpoints import registry
from repro.common.clock import SimClock
from repro.common.errors import LiquidError, StateStoreError, TaskFailedError
from repro.common.records import EMPTY_HEADERS, TRACE_HEADER
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.observability.trace import Tracer, current_tracer, tracing
from repro.processing.job import AT_LEAST_ONCE, EXACTLY_ONCE, JobConfig, JobRunner
from repro.processing.output import OUTPUT_PATHS, AtLeastOnceOutput, ExactlyOnceOutput
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import LsmStore
from repro.processing.task import MessageCollector
from repro.serving.router import StateQueryRouter

QUERIES = ({"consistency": "snapshot"}, {"allow_stale": True})


def keyed(key, value):
    """An input record keyed ``k<key>``, partitioned by its key."""
    return f"k{key}", value, None


def job(topics, *, brokers=1, runner=JobRunner, router=False, traced=False,
        patch=None, **config):
    """A cluster of ``brokers`` holding ``topics`` (name -> (partitions,
    replication factor)), a ``runner`` of the job ``config`` describes (input
    ``in``), an input producer, optionally a router and a tracer; ``patch``
    is entered around every step."""
    cluster = MessagingCluster(num_brokers=brokers, clock=SimClock())
    for name, (partitions, replication) in topics.items():
        cluster.create_topic(
            name, num_partitions=partitions, replication_factor=replication
        )
    runner = runner(JobConfig(inputs=["in"], **config), cluster)
    return SimpleNamespace(
        cluster=cluster, runner=runner, producer=Producer(cluster), patch=patch,
        router=StateQueryRouter(runner) if router else None,
        tracer=Tracer(seed=3) if traced else None,
    )


def apply(env, step):
    """Run one step; returns what it observed, or the error it raised."""
    kind, arg, armed = step
    runner = env.runner
    with ExitStack() as stack:
        if env.patch is not None:
            stack.enter_context(env.patch)
        if env.tracer is not None:
            stack.enter_context(tracing(env.tracer))
        if armed is not None:
            name, action, times = armed
            stack.enter_context(registry().scoped(name, action, times=times))
        try:
            if kind == "produce":
                for key, value, partition in arg:
                    env.producer.send("in", value, key=key, partition=partition)
                env.producer.flush()
            elif kind == "poll":
                result = runner.poll_once(max_messages=arg)
                return result.records_processed, result.records_emitted, result.latency
            elif kind == "checkpoint":
                runner.checkpoint()
            elif kind == "compact":
                return [broker.run_compaction() for broker in env.cluster.brokers()]
            elif kind == "advance":
                env.cluster.clock.advance(arg)
            elif kind == "recover":
                runner.crash()
                return runner.recover().entries
            elif kind == "migrate":
                return runner.migrate_task(arg % runner.num_tasks).entries
            elif kind == "query":
                stores = runner.config.stores
                return [env.router.range(s.name, **how) for how in QUERIES for s in stores]
            else:
                raise AssertionError(kind)
        except LiquidError as exc:
            return type(exc).__name__
    return None


def lockstep(new, ref, steps, observe):
    """Run ``steps`` on both environments, each step on ``new`` first;
    ``observe(env, step, outcome)`` must be equal on both before the first
    step (``step`` and ``outcome`` are ``None``) and after every step."""
    assert observe(new, None, None) == observe(ref, None, None)
    for step in steps:
        got, want = apply(new, step), apply(ref, step)
        assert observe(new, step, got) == observe(ref, step, want), step


def read(env, topic, isolation=None):
    """Every record of ``topic`` a reader at ``isolation`` (by default the
    job's) sees, per partition."""
    return [
        env.cluster.fetch(topic, tp.partition, 0, max_messages=100_000,
                          isolation=isolation or env.runner.isolation).records
        for tp in env.cluster.partitions_of(topic)
    ]


def states(env, positions=True):
    """Every task's stores, and every standby's store and position (or only
    whether it has one)."""
    return [
        {name: list(state.items()) for name, state in task.stores.items()}
        for task in env.runner.tasks()
    ], {
        task_id: [
            {name: (replica.position if positions else replica.position is None,
                    list(replica.store.items())) for name, replica in replicas.items()}
            for replicas in sets
        ]
        for task_id, sets in env.runner.standbys._sets.items()
    }


class ReferenceState(KeyValueState):
    """``KeyValueState`` whose hand-over calls the injected
    ``changelog_append`` once per entry of the pass's net writes."""

    def __init__(self, name, store, changelog_append):
        super().__init__(name, store)
        self._changelog_append = changelog_append

    def hand_over(self):
        written = super().hand_over()
        if self._changelog_append is not None:
            for key, value in written.items():
                self._changelog_append(key, value)  # value None: tombstone
        return written


class ReferenceAtLeastOnce(AtLeastOnceOutput):
    """Emits go to ``output.emits.send``, the shared output producer."""

    def __init__(self, runner, task_id):
        super().__init__(runner, task_id)
        self.emits = runner.producer


class ReferenceExactlyOnce(ExactlyOnceOutput):
    """Emits and changelog entries go to the output's own ``send``, which
    begins the transaction at the first write after a commit and stages
    through ``TransactionalProducer.send`` (one fencing check per record)."""

    def __init__(self, runner, task_id):
        super().__init__(runner, task_id)
        self.emits = self.changelog = self

    def send(
        self, topic, value, key=None, partition=None, timestamp=None, headers=None
    ):
        producer = self.producer
        if not producer.in_transaction:
            producer.begin()
        return producer.send(topic, value, key, partition, timestamp, headers)


REFERENCE_OUTPUTS = {
    AT_LEAST_ONCE: ReferenceAtLeastOnce,
    EXACTLY_ONCE: ReferenceExactlyOnce,
}


class ReferenceJobRunner(JobRunner):
    """The runner with the per-record staging that run staging replaced,
    copied as it was: a fresh ``MessageCollector`` per pass drained after every record
    into ``Producer.send`` (``_send_emits``), each store's changelog closure
    through the task table, the exactly-once ``send`` wrapper.  Only the
    changelog's *content* follows the write-behind rule: each store sends
    its pass's net writes, one ``Producer.send`` per key, at pass end.

    What the two share is everything after the producers' buffers: the
    pass-end flush (so the fixed at-least-once flush, which ships the
    changelog even when the output partition fails, is on both sides),
    checkpoints, recovery and migration.  The pass latency follows the
    runner's accounting (its fetches one round, its flush requests another,
    one request per client and broker), since what this reference pins is
    the staging, not the cost model.
    """

    def __init__(self, config, cluster):
        with mock.patch.dict(OUTPUT_PATHS, REFERENCE_OUTPUTS):
            super().__init__(config, cluster)

    def _build_stores(self, task_id, staged):
        stores = {}
        for store_config in self.config.stores:
            append = None
            if store_config.changelog:
                topic = changelog_topic_name(self.config.name, store_config.name)

                def append(key, value, _topic=topic, _p=task_id):
                    self._tasks[_p].output.changelog.send(
                        _topic, value, key=key, partition=_p
                    )

            stores[store_config.name] = ReferenceState(
                store_config.name,
                LsmStore(
                    self.cluster.clock.cost_model, **store_config.store_options
                ),
                append,
            )
        return stores

    def _poll_task(self, instance, budget, result, fetches, flushes):
        collector = MessageCollector()
        tracer = current_tracer()
        for tp in instance.partitions:
            if budget <= 0:
                break
            fetched = self.cluster.fetch(
                tp.topic, tp.partition, instance.reader.positions[tp], budget,
                isolation=self.isolation,
            )
            fetches.append(
                (self, fetched.broker, self._request_fixed, fetched.latency)
            )
            for record in fetched.records:
                ctx = self._reference_process_record(
                    instance, record, collector, result, tracer
                )
                self._send_emits(instance, collector.drain(), ctx, result)
            if fetched.records:
                budget -= len(fetched.records)
            instance.reader.positions[tp] = max(
                instance.reader.positions[tp], fetched.next_offset
            )
        self._reference_maybe_window(instance, result)
        for state in instance.stores.values():
            state.hand_over()
        flushes += instance.output.flush()
        if instance.records_since_checkpoint >= self.config.checkpoint_interval:
            self._checkpoint_task(instance)

    def _send_emits(self, instance, emits, ctx, result):
        send = instance.output.emits.send
        for emit in emits:
            headers = emit.headers
            if ctx is not None:
                headers = {**(headers or {}), TRACE_HEADER: ctx}
            send(
                emit.topic,
                emit.value,
                key=emit.key,
                partition=emit.partition,
                timestamp=emit.timestamp,
                headers=headers,
            )
        result.records_emitted += len(emits)
        self.records_emitted += len(emits)

    def _reference_process_record(self, instance, record, collector, result, tracer):
        span = None
        if tracer is not None and record.headers:
            parent = record.headers.get(TRACE_HEADER)
            if parent is not None:
                span = tracer.open_span(
                    "job.process",
                    parent,
                    start=self.clock.now(),
                    job=self.config.name,
                    task=instance.task_id,
                    topic=record.topic,
                    partition=record.partition,
                    offset=record.offset,
                )
        try:
            instance.task.process(record, collector)
        except Exception as exc:
            if span is not None:
                span.attrs["error"] = type(exc).__name__
                tracer.close(span)
            raise TaskFailedError(
                f"job {self.config.name!r} task {instance.task_id} failed on "
                f"{record.topic}-{record.partition}@{record.offset}: {exc}"
            ) from exc
        result.records_processed += 1
        result.latency += self.cpu_cost
        instance.records_since_checkpoint += 1
        self.records_processed += 1
        age = self.clock.now() - record.timestamp
        if age >= 0:
            self._h_record_age.observe(age)
            self._g_freshness.set(age)
        if span is not None:
            tracer.close(span, end=span.start + self.cpu_cost)
            return span.context()
        return None

    def _reference_maybe_window(self, instance, result):
        if self.config.window_interval is None:
            return
        window = getattr(instance.task, "window", None)
        if not callable(window):
            return
        now = self.clock.now()
        if now - instance.last_window_at >= self.config.window_interval:
            instance.last_window_at = now
            collector = MessageCollector()
            window(collector)
            self._send_emits(instance, collector.drain(), None, result)


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
