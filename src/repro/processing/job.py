"""Jobs: parallel, stateful, checkpointed stream processing (§3.2).

A job consumes one or more input topics, runs one task instance per input
partition, and emits to output topics through the messaging layer.  This
module is the reproduction of Samza's container/task runtime:

* **parallelism** — task *i* owns partition *i* of every input topic;
* **state** — per-task stores are logged to compacted changelog topics;
* **output** — a pass's emits and changelog entries stage in the task and
  reach the producers once per partition at pass end
  (:mod:`repro.processing.output`);
* **checkpoints** — input positions are committed to the offset manager with
  the job's software version as an annotation;
* **recovery** — :meth:`JobRunner.crash` / :meth:`JobRunner.recover` lose and
  rebuild state from changelogs, restarting from the last checkpoint;
* **decoupling** — all I/O goes through the log; a slow job simply falls
  behind (its backlog grows) without back-pressuring producers.

Simulated processing cost (CPU per message) is charged to the clock so that
end-to-end latencies across multi-job dataflows are meaningful (E2).  A
pass runs every task at one simulated instant, so its input fetches are one
client round and its pass-end flushes another
(:func:`~repro.common.costmodel.round_latency`): requests to different
brokers overlap, requests to one broker queue, and what one client sends
one broker is one request — the container's fetches, each producer's
batches.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.chaos.failpoints import SKIP, failpoint
from repro.common.costmodel import round_latency
from repro.common.errors import JobConfigError, MessagingError, TaskFailedError
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TRACE_HEADER, ConsumerRecord, TopicPartition
from repro.messaging.cluster import ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.producer import Producer
from repro.messaging.reader import PartitionReader
from repro.observability.trace import Tracer, current_tracer
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.processing.checkpoint import CHANGELOG_OFFSETS_KEY, CheckpointManager
from repro.processing.output import (  # the guarantees and task ids re-exported
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    OUTPUT_PATHS,
    PROCESSING_GUARANTEES,
    STAGE_ONLY,
    AtLeastOnceOutput,
    RunCollector,
    transactional_id,
)
from repro.processing.recovery import RecoveryReport, Standbys, restore_job_state
from repro.processing.state import KeyValueState, changelog_topic_name
from repro.processing.store import LsmStore
from repro.processing.task import StreamTask, TaskContext


@dataclass(frozen=True)
class StoreConfig:
    """Declaration of one state store used by a job's tasks.

    Every store is an :class:`~repro.processing.store.LsmStore` built with
    ``store_options``; ``store_type`` names it and accepts ``"lsm"`` alone.
    """

    name: str
    store_type: str = "lsm"
    changelog: bool = True
    store_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfigError("store name must be non-empty")
        if self.store_type != "lsm":
            raise JobConfigError(
                f"store {self.name!r}: unknown store_type "
                f"{self.store_type!r}; the one store is 'lsm'"
            )


@dataclass(frozen=True)
class JobConfig:
    """Static definition of one processing job."""

    name: str
    inputs: tuple[str, ...] | list[str]
    task_factory: Callable[[], StreamTask]
    stores: tuple[StoreConfig, ...] | list[StoreConfig] = ()
    checkpoint_interval: int = 100          # records per task between checkpoints
    window_interval: float | None = None    # simulated seconds between window()
    version: str = "v1"
    acks: str = ACKS_LEADER
    cpu_cost_per_message: float | None = None  # defaults to the cost model's
    changelog_replication: int = 1
    changelog_segment_messages: int = 1000  # smaller = compaction kicks in sooner
    processing_guarantee: str = AT_LEAST_ONCE
    #: Warm store copies per task, kept on other containers by tailing the
    #: changelog.  Failover and elastic migration promote one and pay only
    #: the catch-up tail instead of a full changelog restore, and the
    #: serving router can read them for stale-tolerant load spreading.
    num_standby_replicas: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfigError("job name must be non-empty")
        if self.processing_guarantee not in PROCESSING_GUARANTEES:
            raise JobConfigError(
                f"processing_guarantee must be one of {PROCESSING_GUARANTEES}, "
                f"got {self.processing_guarantee!r}"
            )
        if not self.inputs:
            raise JobConfigError(f"job {self.name!r} declares no inputs")
        if self.checkpoint_interval <= 0:
            raise JobConfigError("checkpoint_interval must be > 0")
        if self.window_interval is not None and self.window_interval <= 0:
            raise JobConfigError("window_interval must be > 0")
        if self.num_standby_replicas < 0:
            raise JobConfigError("num_standby_replicas must be >= 0")
        names = [s.name for s in self.stores]
        if len(set(names)) != len(names):
            raise JobConfigError(f"duplicate store names in job {self.name!r}")


@dataclass
class PollResult:
    """Outcome of one scheduling pass over all tasks.

    ``latency`` is the pass's: one round over every task's input fetches,
    the summed per-record CPU, and one round over every task's pass-end
    flush requests.
    """

    records_processed: int = 0
    records_emitted: int = 0
    latency: float = 0.0
    #: Input offsets retention deleted below a task's position, jumped over
    #: by its reader (which reseats at the earliest offset).
    records_skipped: int = 0


class _TaskInstance:
    """Runtime state of one task: user logic + input reader + stores, and
    the pass's staged writes — emits in :attr:`collector`, changelog entries
    in :attr:`staged` (shared by the stores)."""

    def __init__(
        self,
        task_id: int,
        task: StreamTask,
        partitions: list[TopicPartition],
        stores: dict[str, KeyValueState],
        staged: dict[TopicPartition, list],
        context: TaskContext,
        cluster: MessagingCluster,
        reader: PartitionReader,
    ) -> None:
        self.task_id = task_id
        self.task = task
        self.partitions = partitions
        self.stores = stores
        self.staged = staged
        self.context = context
        self.collector = RunCollector(self, cluster)
        #: Set once per incarnation, after any predecessor's restore reads.
        self.output: AtLeastOnceOutput | None = None
        #: The input positions, placed after the restore (see _build_tasks).
        self.reader = reader
        self.records_since_checkpoint = 0
        self.last_window_at = 0.0


class JobRunner:
    """Executes one job against a messaging cluster."""

    def __init__(
        self,
        config: JobConfig,
        cluster: MessagingCluster,
        auto_advance_clock: bool = True,
        max_fetch_per_partition: int = 200,
    ) -> None:
        self.config = config
        self.cluster = cluster
        self.auto_advance_clock = auto_advance_clock
        self.max_fetch_per_partition = max_fetch_per_partition
        self.clock = cluster.clock
        self.metrics = cluster.metrics
        # Per-job instruments, bound once (convention: layer.component.metric,
        # with the job name as a sub-component).
        self._c_processed = self.metrics.counter(metric_name(
            "processing", "job", metric_segment(config.name), "processed"
        ))
        # Freshness stamp: a gauge holding the age of the last record
        # processed, set once per task pass — the end-to-end signal the SLO
        # monitor samples on its cadence.  The age histogram beside it is fed
        # the same way: one bulk observe per task pass.
        self._g_freshness = self.metrics.gauge(metric_name(
            "processing", "job", metric_segment(config.name), "freshness"
        ))
        self._h_record_age = self.metrics.histogram(metric_name(
            "processing", "job", metric_segment(config.name), "record_age"
        ))
        # Retry jitter seeded from the job name, not the process-global
        # producer id: a job's send latencies must replay identically no
        # matter how many producers other code created first.
        jitter = zlib.crc32(config.name.encode())
        self._output_path = OUTPUT_PATHS[config.processing_guarantee]
        self.isolation = self._output_path.isolation
        # A plain attribute on purpose: callers read its counters
        # (``runner.producer.retries``, ``.pending()``).
        self.producer = Producer(
            cluster,
            ProducerConfig(
                acks=config.acks,
                linger_messages=STAGE_ONLY,
                retry_jitter_seed=jitter,
            ),
        )
        # Changelog writes are the job's state durability: they always use
        # acks=all, independent of the output acks, so a checkpointed input
        # offset can never outlive the state updates it implies.  (This is
        # the paper's "fall back to the highly-available messaging layer".)
        self._changelog_producer = Producer(
            cluster,
            ProducerConfig(
                acks="all",
                linger_messages=STAGE_ONLY,
                retry_jitter_seed=jitter + 1,
            ),
        )
        self.checkpoints = CheckpointManager(cluster.offset_manager, config.name)
        # What the pass's input fetches to one broker share (round_latency).
        self._request_fixed = cluster.cost_model.request_fixed()
        self.cpu_cost = (
            config.cpu_cost_per_message
            if config.cpu_cost_per_message is not None
            else cluster.cost_model.cpu_per_message
        )
        self.num_tasks = self._discover_parallelism()
        self._ensure_changelog_topics()
        self.records_processed = 0
        self.records_emitted = 0
        self._tasks: list[_TaskInstance] = []
        self._build_tasks()
        for instance in self._tasks:
            self._start_task(instance)
        #: Warm store copies on other containers (``num_standby_replicas``):
        #: caught up at checkpoints, promoted by recovery and migration.
        self.standbys = Standbys(self)
        #: task_id -> {store: changelog end offset at the last checkpoint} —
        #: the snapshot bound state servers serve at (see repro.serving).
        self._snapshot_offsets: dict[int, dict[str, int]] = {}
        self._snapshot_times: dict[int, float] = {}
        self._seed_snapshots()
        self.running = True

    # -- setup ---------------------------------------------------------------------

    def _discover_parallelism(self) -> int:
        counts = []
        for topic in self.config.inputs:
            counts.append(self.cluster.topic_config(topic).num_partitions)
        return max(counts)

    def _ensure_changelog_topics(self) -> None:
        for store_config in self.config.stores:
            if not store_config.changelog:
                continue
            topic = changelog_topic_name(self.config.name, store_config.name)
            if topic not in self.cluster.topics():
                self.cluster.create_system_topic(
                    TopicConfig(
                        name=topic,
                        num_partitions=self.num_tasks,
                        replication_factor=self.config.changelog_replication,
                        cleanup_policy="compact",
                        log=LogConfig(
                            segment_max_messages=self.config.changelog_segment_messages
                        ),
                    )
                )

    def _build_tasks(self) -> None:
        """A fresh incarnation of every task, positioned at the last
        checkpoint and not yet started: ``init()`` runs once the stores
        hold whatever a restore puts back."""
        self._tasks = []
        for task_id in range(self.num_tasks):
            partitions = [
                TopicPartition(topic, task_id)
                for topic in self.config.inputs
                if task_id < self.cluster.topic_config(topic).num_partitions
            ]
            instance = self._new_task(task_id, partitions)
            self._tasks.append(instance)
            instance.output = self._output_path(self, task_id)
            instance.reader.assign(partitions)

    def _new_task(
        self, task_id: int, partitions: list[TopicPartition]
    ) -> _TaskInstance:
        """A fresh incarnation of one task: empty stores, new user object."""
        staged: dict[TopicPartition, list] = {}
        stores = self._build_stores(task_id, staged)
        context = TaskContext(
            self.config.name,
            task_id,
            self.clock,
            stores,
            processing_guarantee=self.config.processing_guarantee,
        )
        task = self.config.task_factory()
        reader = PartitionReader(
            self.cluster, self.checkpoints.group, isolation=self.isolation
        )
        return _TaskInstance(
            task_id, task, partitions, stores, staged, context, self.cluster, reader
        )

    def _start_task(self, instance: _TaskInstance) -> None:
        instance.last_window_at = self.clock.now()
        init = getattr(instance.task, "init", None)
        if callable(init):
            # What init() writes is staged and handed over like a pass's, so
            # between passes a task holds no staged run.
            instance.collector.start_pass(current_tracer())
            init(instance.context)
            self._hand_over(instance)

    def _build_stores(
        self, task_id: int, staged: dict[TopicPartition, list]
    ) -> dict[str, KeyValueState]:
        """The task's stores; each changelogged one stages its pass's writes
        in ``staged`` for its own changelog partition, ``task_id``."""
        stores: dict[str, KeyValueState] = {}
        for store_config in self.config.stores:
            changelog = None
            if store_config.changelog:
                changelog = TopicPartition(
                    changelog_topic_name(self.config.name, store_config.name),
                    task_id,
                )
            stores[store_config.name] = KeyValueState(
                store_config.name,
                LsmStore(
                    self.cluster.clock.cost_model, **store_config.store_options
                ),
                changelog,
                staged,
            )
        return stores

    # -- snapshots (serving) ------------------------------------------------------------

    def _changelog_end_offsets(self, task_id: int) -> dict[str, int] | None:
        """Current end offset of each of the task's changelog partitions, by
        store name (``None`` while a changelog leader is offline)."""
        try:
            return {
                sc.name: self.cluster.end_offset(
                    TopicPartition(
                        changelog_topic_name(self.config.name, sc.name), task_id
                    )
                )
                for sc in self.config.stores
                if sc.changelog
            }
        except MessagingError:
            return None

    def _record_snapshot(self, task_id: int) -> None:
        """Pin the changelog end offsets that define 'state as of the last
        checkpoint' — the bound snapshot-consistency reads serve at."""
        offsets = self._changelog_end_offsets(task_id)
        if offsets is None:
            return  # keep the previous snapshot
        self._snapshot_offsets[task_id] = offsets
        self._snapshot_times[task_id] = self.clock.now()

    def _seed_snapshots(self) -> None:
        """Initial snapshot bounds: the last checkpoint's durable stamp when
        one exists, else the changelogs' current end offsets."""
        for instance in self._tasks:
            stamped = None
            for tp in instance.partitions:
                commit = self.checkpoints.fetch(tp)
                if commit is not None and commit.metadata:
                    stamped = commit.metadata.get(CHANGELOG_OFFSETS_KEY)
                    if stamped is not None:
                        break
            if stamped is not None:
                self._snapshot_offsets[instance.task_id] = dict(stamped)
                self._snapshot_times[instance.task_id] = self.clock.now()
            else:
                self._record_snapshot(instance.task_id)

    def snapshot_offset(self, task_id: int, store_name: str) -> int | None:
        """Changelog end offset of ``store_name`` at the task's last
        checkpoint (``None`` if never recorded, e.g. leader offline)."""
        return self._snapshot_offsets.get(task_id, {}).get(store_name)

    def snapshot_time(self, task_id: int) -> float | None:
        """Simulated time the task's snapshot bound was last advanced."""
        return self._snapshot_times.get(task_id)

    # -- processing loop --------------------------------------------------------------

    def poll_once(self, max_messages: int | None = None) -> PollResult:
        """One pass: every task drains up to its budget from its partitions.

        Runs one background replication pass first (without advancing time)
        so freshly produced records on replicated topics become visible —
        the always-running follower fetch loop of a real cluster.
        """
        return self._poll_pass(
            range(len(self._tasks)), max_messages, shared_budget=False
        )

    def poll_tasks(
        self, task_ids: list[int], max_messages: int | None = None
    ) -> PollResult:
        """One pass over a subset of tasks sharing one message budget.

        This is one *container's* scheduling quantum in the elastic runtime:
        the container hosts ``task_ids`` and can process at most
        ``max_messages`` records this pass, however they are spread over its
        tasks (served in task order, each draining what the previous left).
        Unlike :meth:`poll_once`, the budget is shared, not per task.
        """
        return self._poll_pass(task_ids, max_messages, shared_budget=True)

    def _poll_pass(
        self,
        task_ids: Iterable[int],
        max_messages: int | None,
        shared_budget: bool,
    ) -> PollResult:
        if not self.running:
            raise JobConfigError(f"job {self.config.name!r} is not running")
        # Armed with `skipping`, the whole pass is lost — a stalled container
        # whose backlog simply grows (the paper's slow-job decoupling).
        if failpoint("job.poll", job=self.config.name) is SKIP:
            return PollResult()
        self.cluster.tick(0.0)
        result = PollResult()
        budget = (
            max_messages
            if max_messages is not None
            else self.max_fetch_per_partition
        )
        # (client, broker, fixed, latency) of every request the pass sends:
        # the tasks' input fetches, then their pass-end flushes, each set one
        # round.
        fetches: list[tuple[Any, int, float, float]] = []
        flushes: list[tuple[Any, int, float, float]] = []
        for task_id in task_ids:
            remaining = budget
            if shared_budget:
                remaining -= result.records_processed
                if remaining <= 0:
                    break
            self._poll_task(
                self._tasks[task_id], remaining, result, fetches, flushes
            )
        result.latency = (
            round_latency(fetches) + result.latency + round_latency(flushes)
        )
        if result.latency and self.auto_advance_clock:
            self.clock.advance(result.latency)
        if result.records_processed:
            self._c_processed.increment(result.records_processed)
        return result

    def _poll_task(
        self,
        instance: _TaskInstance,
        budget: int,
        result: PollResult,
        fetches: list[tuple[Any, int, float, float]],
        flushes: list[tuple[Any, int, float, float]],
    ) -> None:
        """Run one task's share of a pass: its per-record CPU goes to
        ``result.latency``, its requests to ``fetches`` and ``flushes``."""
        tracer = current_tracer()
        instance.collector.start_pass(tracer)
        ages: list[float] = []
        reader = instance.reader
        positions = reader.positions
        skipped = reader.skipped
        try:
            for tp in instance.partitions:
                if budget <= 0:
                    break
                fetched = reader.fetch(tp, budget)
                # The container is the client: every task's fetches to one
                # broker are one request.
                fetches.append(
                    (self, fetched.broker, self._request_fixed, fetched.latency)
                )
                for record in fetched.records:
                    age = self._process_record(instance, record, result, tracer)
                    if age >= 0:
                        ages.append(age)
                if fetched.records:
                    budget -= len(fetched.records)
                positions[tp] = max(positions[tp], fetched.next_offset)
            result.records_skipped += reader.skipped - skipped
            self._maybe_window(instance, tracer)
        except Exception:
            self._h_record_age.observe_many(ages)
            self._abandon_pass(instance)
            raise
        if ages:
            self._h_record_age.observe_many(ages)
            self._g_freshness.set(ages[-1])
        # The pass is the batch: everything it staged — emits and changelog —
        # leaves the task here, before any checkpoint that would cover it.
        result.records_emitted += self._hand_over(instance)
        flushes += instance.output.flush()
        if instance.records_since_checkpoint >= self.config.checkpoint_interval:
            self._checkpoint_task(instance)

    def _process_record(
        self,
        instance: _TaskInstance,
        record: ConsumerRecord,
        result: PollResult,
        tracer: Tracer | None,
    ) -> float:
        """Run the task on one record; returns the record's age.  Under a
        tracer the record's ``job.process`` span parents the
        ``produce.send`` spans of its emits."""
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
            instance.task.process(record, instance.collector)
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
        if tracer is not None:
            ctx = None
            if span is not None:
                # CPU cost is charged to the pass latency, not the clock yet;
                # the span still records it so stage breakdowns see task time.
                tracer.close(span, end=span.start + self.cpu_cost)
                ctx = span.context()
            instance.collector.stage_held(ctx)
        return age

    def _maybe_window(self, instance: _TaskInstance, tracer: Tracer | None) -> None:
        if self.config.window_interval is None:
            return
        window = getattr(instance.task, "window", None)
        if not callable(window):
            return
        now = self.clock.now()
        if now - instance.last_window_at >= self.config.window_interval:
            instance.last_window_at = now
            window(instance.collector)
            if tracer is not None:
                # Window emits aggregate many inputs; they start fresh traces.
                instance.collector.stage_held(None)

    def _hand_over(self, instance: _TaskInstance) -> int:
        """Land the pass's state writes in the stores and stage them for the
        changelog, then give the task's staged runs to its producers;
        returns how many emits they held."""
        for state in instance.stores.values():
            state.hand_over()
        runs = instance.collector.runs
        emitted = sum(len(run) for run in runs.values())
        instance.output.hand_over(runs, instance.staged)
        self.records_emitted += emitted
        return emitted

    def _abandon_pass(self, instance: _TaskInstance) -> None:
        """A pass raised before its hand-over.  At-least-once hands over what
        the task staged; exactly-once drops it, aborts the task's open
        transaction and rebuilds the task from its last checkpoint, so the
        next pass redoes that work in a fresh transaction."""
        output = instance.output
        try:
            if output.discard(instance.collector.runs, instance.staged):
                self._rebuild_task(instance, output)
                return
        except Exception:
            # The abort or the restore failed too: the task cannot resume
            # where its transaction began, so the job is down until recover().
            self.crash()
            raise
        self._hand_over(instance)

    def _checkpoint_task(self, instance: _TaskInstance) -> None:
        # Armed raising, this is a crash *before* the checkpoint decided
        # anything: at-least-once replays (duplicates), exactly-once aborts.
        failpoint(
            "job.checkpoint", job=self.config.name, task=instance.task_id
        )
        # A forced checkpoint may find a batch an earlier pass parked: it
        # ships first, or the flush raises and nothing is committed.
        instance.output.flush()
        metadata = {
            "software_version": self.config.version,
            "task_id": instance.task_id,
        }
        stamp = self._changelog_end_offsets(instance.task_id)
        if stamp:
            # Durable record of the changelog positions this checkpoint
            # covers, so a brand-new runner can seed its snapshot bound from
            # the offset manager.  Under exactly-once this is a lower bound
            # (the commit marker lands after it); the in-memory post-commit
            # _record_snapshot value is the authoritative bound.
            metadata[CHANGELOG_OFFSETS_KEY] = stamp
        instance.output.commit(instance.reader.positions, metadata)
        instance.records_since_checkpoint = 0
        self._record_snapshot(instance.task_id)
        self.standbys.catch_up(instance.task_id)

    def checkpoint(self) -> None:
        """Force a checkpoint of every task's positions."""
        for instance in self._tasks:
            self._checkpoint_task(instance)

    def run_until_idle(self, max_polls: int = 1000) -> int:
        """Poll until no task makes progress; returns records processed."""
        total = 0
        for _ in range(max_polls):
            result = self.poll_once()
            total += result.records_processed
            if result.records_processed == 0:
                break
        if self._output_path.commit_on_idle:
            # Commit the trailing open transactions so everything the run
            # produced is visible to read_committed readers downstream.
            self.checkpoint()
        return total

    # -- backlog / introspection ---------------------------------------------------------

    def backlog(self) -> int:
        """Input records available but not yet processed."""
        pending = 0
        for instance in self._tasks:
            for tp, position in instance.reader.positions.items():
                pending += max(0, self.cluster.end_offset(tp) - position)
        return pending

    def freshness(self) -> float:
        """Age (simulated seconds) of the last record this job processed.

        0.0 until the first record; sampled by the SLO monitor as the
        end-to-end freshness signal.
        """
        return self._g_freshness.value

    def task(self, task_id: int) -> _TaskInstance:
        return self._tasks[task_id]

    def tasks(self) -> list[_TaskInstance]:
        return list(self._tasks)

    def state_size_bytes(self) -> int:
        return sum(
            state.approximate_size_bytes()
            for instance in self._tasks
            for state in instance.stores.values()
        )

    # -- failure / recovery (§3.2) ----------------------------------------------------------

    def crash(self) -> None:
        """Simulate a container crash: all in-memory task state is lost.

        Standby replicas survive — they live on other containers, which is
        the whole reason :meth:`recover` can promote one instead of
        replaying the full changelog.  Writes still staged in a task or
        parked in a producer are client memory and die too (each task's
        transactional producer goes with its task); the replay re-creates
        them.
        """
        self.running = False
        self._tasks = []
        self.producer.drop_pending()
        self._changelog_producer.drop_pending()

    def recover(self) -> RecoveryReport:
        """Restart after a crash: rebuild stores from changelogs, then resume
        from the last checkpoint.  Returns timing/volume of the restore.

        Each new incarnation's output is set up before the restore (under
        exactly-once its fenced producer aborts the crashed transaction the
        ``read_committed`` restore must not see); its ``init()`` runs after.
        """
        self._build_tasks()
        report = restore_job_state(self, self._tasks)
        self.running = True
        for instance in self._tasks:
            self._record_snapshot(instance.task_id)
            self._start_task(instance)
        if self.auto_advance_clock:
            self.clock.advance(report.simulated_seconds)
        return report

    def migrate_task(self, task_id: int) -> RecoveryReport:
        """Restart one task as if it landed on a fresh container.

        The elastic controller calls this at a checkpoint boundary when a
        scale event moves a task between containers: the in-memory task
        object and its stores are discarded, state is rebuilt from the
        changelogs (promoting a standby replica when the job keeps them, so
        the move pays only a catch-up tail), and positions resume from the
        last checkpoint (which the
        controller takes immediately before, so processing continues exactly
        where it left off — no replay, no skipped records).  The caller is
        responsible for charging ``report.simulated_seconds`` to the clock.
        """
        old = self._tasks[task_id]
        # Commit-or-abort before the task moves: the new container must not
        # inherit an open transaction.  Everything staged so far is fully
        # processed work, so it commits — together with the positions that
        # account for it.
        if old.output.commit_open(
            old.reader.positions,
            {"software_version": self.config.version, "task_id": task_id},
        ):
            old.records_since_checkpoint = 0
        # Fresh incarnation on the new container: under exactly-once the
        # epoch bump fences any zombie writes from the task's previous home.
        return self._rebuild_task(old, None)

    def _rebuild_task(
        self, old: _TaskInstance, output: AtLeastOnceOutput | None
    ) -> RecoveryReport:
        """Replace ``old`` with a fresh incarnation at the task's last
        checkpoint: stores restored (promoting a standby when the job keeps
        them), positions reseeded, then ``output`` — a new one when ``None``
        — and ``init()``.  A restore that raises (e.g. changelog leader
        offline) leaves ``old`` in place and propagates."""
        task_id = old.task_id
        instance = self._new_task(task_id, old.partitions)
        self._tasks[task_id] = instance
        try:
            report = restore_job_state(self, [instance])
            instance.reader.assign(instance.partitions)
        except Exception:
            self._tasks[task_id] = old
            raise
        instance.output = (
            output if output is not None else self._output_path(self, task_id)
        )
        self._record_snapshot(task_id)
        self._start_task(instance)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JobRunner({self.config.name!r}, tasks={len(self._tasks)}, "
            f"processed={self.records_processed})"
        )
