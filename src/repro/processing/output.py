"""Where a task's writes go: staged per pass, handed over at its end, and
committed under the job's processing guarantee (§3.2, §4.3).

In the paper a Samza task emits through its container's producer, and the
container is the unit of batching.  Here the unit is the poll pass: while
it runs, a task's emits only *stage*, as runs of producer entries per
partition in the task's :class:`RunCollector`, and its state writes collect
per key in its stores.  At pass end each store stages its writes as one
changelog run in the dict the stores share (see
:class:`~repro.processing.state.KeyValueState`), and the runner hands each
run to a producer once (``Producer._stage_run``) and flushes: one request
per touched partition, before any checkpoint that covers it.

The guarantee decides the rest — which producers, how a checkpoint commits,
what a pass that raised leaves behind: :class:`AtLeastOnceOutput` and
:class:`ExactlyOnceOutput`, one per task incarnation.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.common.costmodel import CostModel
from repro.common.errors import ProducerFlushError
from repro.common.partitioning import partition_for_key
from repro.common.records import EMPTY_HEADERS, TRACE_HEADER, Headers, TopicPartition
from repro.messaging.cluster import ACKS_NONE, ProduceAck
from repro.messaging.producer import Producer, check_headers
from repro.messaging.transactions import TransactionalProducer
from repro.observability.trace import TraceContext, Tracer
from repro.processing.task import MessageCollector

#: Processing guarantees a job may declare (§4.3's "ongoing effort").
AT_LEAST_ONCE = "at_least_once"
EXACTLY_ONCE = "exactly_once"
PROCESSING_GUARANTEES = (AT_LEAST_ONCE, EXACTLY_ONCE)

#: Linger of every producer a job owns: the pass-end flush, not a batch
#: size, decides what is sent (one request per touched partition per pass).
STAGE_ONLY = sys.maxsize

#: ``{TopicPartition: [(key, value, timestamp, headers), ...]}`` — a pass's
#: staged runs, in the order the task first wrote each partition.
Runs = dict[TopicPartition, list]


def transactional_id(job_name: str, task_id: int) -> str:
    """Stable transactional id of one task: restarts of the same task slot
    re-initialize the same id, which is what fences its zombies."""
    return f"{job_name}-{task_id}"


class AtLeastOnceOutput:
    """Where one task's writes go and how its checkpoint commits.

    At-least-once: emits go through the job's output producer, state updates
    through the ``acks=all`` changelog producer, and a checkpoint is a plain
    offset commit.  Nothing ties the three together, so a crash between a
    flush and the next checkpoint replays (duplicates).  The two producers
    are shared by the runner's tasks: a batch parked on one output partition
    fails every task's pass-end flush — and so every checkpoint — until it
    drains.  Conservative, never lossy.
    """

    #: Isolation of every read in the job — inputs and changelog restores.
    isolation = "read_uncommitted"
    #: Whether a drained run must end with a checkpoint for its writes to
    #: become visible downstream.
    commit_on_idle = False

    def __init__(self, runner, task_id: int) -> None:
        self.producer = runner.producer
        self.changelog = runner._changelog_producer
        self.checkpoints = runner.checkpoints
        self._clients = _clients(
            runner.cluster.cost_model, self.producer, self.changelog
        )

    def hand_over(self, emits: Runs, changelog: Runs) -> None:
        """Give a pass's staged runs to the producers that ship them; both
        dicts are empty afterwards."""
        for producer, runs in ((self.producer, emits), (self.changelog, changelog)):
            for tp, run in runs.items():
                producer._stage_run(tp, run)
            runs.clear()

    def discard(self, emits: Runs, changelog: Runs) -> bool:
        """Drop the staged runs of a pass that raised, if the guarantee needs
        it; returns whether it did, so the task must be rebuilt from its last
        checkpoint.  Here it does not: the runs are handed over like any
        pass's (the changelog keeps matching the store), and the replay
        duplicates the emits."""
        return False

    def flush(self) -> list[tuple[Producer, int, float, float]]:
        """Ship every staged (and any parked) write; returns one
        ``(producer, broker, fixed, latency)`` per request, for the runner
        to charge as one round with the other tasks'
        (:func:`~repro.common.costmodel.round_latency`): each producer is
        one client.  Every producer flushes even when one fails; then one
        :class:`ProducerFlushError` carries all acks and failures, the
        undelivered batches parked for the next flush."""
        requests: list[tuple[Producer, int, float, float]] = []
        acks: list[ProduceAck] = []
        failures: list = []
        for producer, fixed in self._clients:
            try:
                sent = producer.flush()
            except ProducerFlushError as exc:
                acks += exc.acks
                failures += exc.failures
                continue
            acks += sent
            for ack in sent:
                requests += ((producer, ack.broker, fixed, ack.latency),)
        if failures:
            raise ProducerFlushError(acks, failures)
        return requests

    def commit_open(
        self, positions: dict[TopicPartition, int], metadata: dict[str, Any]
    ) -> bool:
        """Commit writes still held back, with ``positions``; returns
        whether there were any (never, here: a flushed write is out)."""
        self.flush()
        return False

    def commit(
        self, positions: dict[TopicPartition, int], metadata: dict[str, Any]
    ) -> None:
        """Checkpoint ``positions``: together with the held-back writes
        when there are any, else as a plain offset commit."""
        if not self.commit_open(positions, metadata):
            self.checkpoints.commit(dict(positions), metadata)


class ExactlyOnceOutput(AtLeastOnceOutput):
    """Exactly-once: every write joins the task's transaction.

    Emits and changelog entries go to one fenced
    :class:`TransactionalProducer`, invisible to ``read_committed`` readers
    until the checkpoint — which *is* the transaction commit — makes
    outputs, state and input offsets visible atomically (or not at all).
    """

    # Neither open nor aborted transactions (our own or an upstream
    # job's) are ever observed.
    isolation = "read_committed"
    commit_on_idle = True

    def __init__(self, runner, task_id: int) -> None:
        self.checkpoints = runner.checkpoints
        # Re-initializing the stable id bumps the epoch: zombies of the
        # previous incarnation are fenced, an undecided crashed transaction
        # aborts, a decided one rolls forward — all *before* the changelog
        # restore reads read_committed.
        self.producer = self.changelog = TransactionalProducer(
            runner.cluster,
            transactional_id(runner.config.name, task_id),
            linger_messages=STAGE_ONLY,
        )
        self._clients = _clients(runner.cluster.cost_model, self.producer)

    def hand_over(self, emits: Runs, changelog: Runs) -> None:
        """Begin a transaction at the first hand-over after a commit; it
        stays open until the next checkpoint boundary.  Handing over a run
        is the fencing check, so a zombie fails here, staging nothing."""
        if not emits and not changelog:
            return
        if not self.producer.in_transaction:
            self.producer.begin()
        super().hand_over(emits, changelog)

    def discard(self, emits: Runs, changelog: Runs) -> bool:
        """Drop the failed pass's runs and abort the open transaction (the
        earlier passes' writes with it): the task must be rebuilt from its
        last checkpoint, or the next pass would commit that work twice."""
        emits.clear()
        changelog.clear()
        if self.producer.in_transaction:
            self.producer.abort()
        return True

    def commit_open(
        self, positions: dict[TopicPartition, int], metadata: dict[str, Any]
    ) -> bool:
        producer = self.producer
        if not producer.in_transaction:
            return False
        # Offsets are staged with the coordinator and apply only at the
        # commit, which flushes first: a failed flush leaves the
        # transaction open, the batch parked and the offsets uncommitted.
        self.checkpoints.commit_transactional(producer, positions, metadata)
        producer.commit()
        return True


def _clients(model: CostModel, *producers: Producer) -> list[tuple[Producer, float]]:
    """Each producer with the fixed part its requests to one broker share
    in a flush round (:meth:`~repro.common.costmodel.CostModel.request_fixed`)."""
    return [
        (producer, model.request_fixed(producer.acks == ACKS_NONE))
        for producer in producers
    ]


OUTPUT_PATHS = {
    AT_LEAST_ONCE: AtLeastOnceOutput,
    EXACTLY_ONCE: ExactlyOnceOutput,
}


class RunCollector(MessageCollector):
    """A task's emits for one pass, staged as runs of producer entries.

    :meth:`send` checks what ``Producer.send`` checks — no reserved header,
    a partition in range — and appends ``(key, value, timestamp, headers)``
    to its partition's run in :attr:`runs`.  Under a tracer (read once per
    pass by :meth:`start_pass`) an emit is held instead, and
    :meth:`stage_held` stages it once its record's ``job.process`` span has
    closed, under the ``produce.send`` span ``Producer.send`` records.
    """

    def __init__(self, instance, cluster) -> None:
        super().__init__()
        self.runs: Runs = {}
        self.tracer: Tracer | None = None
        self._held: list[tuple[TopicPartition, tuple]] = []
        # The task instance: its stores, and its output's producer, whose
        # partitioning rules and round-robin counters emits follow.
        self._instance = instance
        self._cluster = cluster
        self._partitions: dict[str, list[TopicPartition]] = {}

    def start_pass(self, tracer: Tracer | None) -> None:
        """Take the pass's tracer for the emits and the task's changelog
        writes alike."""
        self.tracer = tracer
        self._held.clear()
        trace = None if tracer is None else self.traced_headers
        for state in self._instance.stores.values():
            state.trace = trace

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: int | None = None,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> None:
        if headers:
            check_headers(headers)
            headers = Headers(headers)  # the task's dict stays the task's
        else:
            headers = EMPTY_HEADERS
        if partition is None and key is not None:
            # Every producer a job owns hashes keys (the default partitioner).
            partitions = self._partitions.get(topic)
            if partitions is None:
                partitions = self._partitions[topic] = self._cluster.partitions_of(topic)
            tp = partitions[partition_for_key(key, len(partitions))]
        else:
            # Range check and round-robin: the producer's own.
            tp = self._instance.output.producer._choose_partition(
                topic, key, partition
            )
        entry = (key, value, timestamp, headers)
        if self.tracer is not None:
            self._held.append((tp, entry))
            return
        runs = self.runs
        if tp in runs:
            runs[tp].append(entry)
        else:
            runs[tp] = [entry]

    def stage_held(self, parent: TraceContext | None) -> None:
        """Stage the held emits in order, each under its own
        ``produce.send`` span: a child of ``parent`` (the record's
        ``job.process`` span) when given, else of a ``__trace`` header the
        task passed on, else the root of a new, sampled trace."""
        runs = self.runs
        for tp, (key, value, timestamp, headers) in self._held:
            if parent is not None:
                headers = Headers({**headers, TRACE_HEADER: parent})
            entry = (key, value, timestamp, self.traced_headers(tp, headers))
            if tp in runs:
                runs[tp].append(entry)
            else:
                runs[tp] = [entry]
        self._held.clear()

    def traced_headers(
        self, tp: TopicPartition, headers: Headers | None = None
    ) -> Headers:
        """Record the ``produce.send`` span of one buffered write to ``tp``
        as ``Producer.send`` does; returns the read-only headers that carry
        it (the given ones when sampling drops a new trace)."""
        tracer = self.tracer
        parent = headers.get(TRACE_HEADER) if headers else None
        span = tracer.open_span(
            "produce.send", parent, start=self._cluster.clock.now(), topic=tp.topic
        )
        if span is None:
            return EMPTY_HEADERS if headers is None else headers
        headers = Headers({**(headers or {}), TRACE_HEADER: span.context()})
        span.attrs["partition"] = tp.partition
        span.attrs["buffered"] = True
        tracer.close(span)
        return headers
