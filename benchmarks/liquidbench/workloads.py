"""The five workloads, their set-up, timed sections and reference oracles.

One :class:`Workload` instance is one repetition: ``setup()`` builds a fresh
stack and the seeded inputs, ``run(meter)`` executes the timed section and
cuts it into laps, ``verify()`` checks everything that was delivered against
a reference computed here with plain dicts and lists, and ``outcome()``
returns the exact (simulated / counted) numbers of the repetition.

The stack is driven only through ``repro.api`` plus the topic-level config
dataclasses and ``JsonSerde`` from their defining modules; always through
config objects, never loose keyword options.

Load shape: closed loop, one client, one thread.  In *simulated* time the
arrivals are open loop: event ``i`` is stamped ``t0 + i * gap`` and sent no
earlier than that; the clock then advances by every ack and poll latency
the stack returns, so simulated latency includes linger, high-watermark and
fetch waits.  ``gap`` is fixed per workload at roughly 1.5x the simulated
busy time per record at the commit that introduced the benchmark, so the
backlog does not grow; a change that makes the cost model charge more than
``gap`` per record shows up as runaway ``sim_latency_p99_ms``.
"""

from __future__ import annotations

import bisect
import random
from time import perf_counter
from dataclasses import dataclass, field
from typing import Any

from repro.api import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    Consumer,
    ConsumerConfig,
    JobConfig,
    JobRunner,
    MessagingCluster,
    Producer,
    ProducerConfig,
    SimClock,
    StateQueryRouter,
    StoreConfig,
    TopicPartition,
)
from repro.common.serde import JsonSerde
from repro.messaging.topic import TopicConfig
from repro.storage.log import LogConfig
from repro.storage.retention import RetentionConfig
from repro.storage.tiered.config import TieredConfig

from .inputs import MEMBERS, make_events, member_key, running_counts

#: Events the simulated client hands over per wake-up; the clock is moved to
#: the creation stamp of the last one before any of them is sent.
ARRIVAL_GROUP = 100
#: Arrival groups per lap while producing (laps inside a chunk).
GROUPS_PER_LAP = 5
#: Consecutive empty polls after which a drain gives up (the missing records
#: then fail the oracle instead of hanging the run).
MAX_IDLE_POLLS = 64

_WIRE_BYTES = "messaging.cluster.bytes_on_wire"


def read_instruments(registry) -> dict[str, float]:
    """Flat copy of every counter value and histogram count/total."""
    out: dict[str, float] = {}
    for instrument in registry:
        if hasattr(instrument, "observe"):
            out[instrument.name + "#count"] = instrument.count
            out[instrument.name + "#total"] = instrument.total
        else:
            out[instrument.name] = instrument.value
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class Verdict:
    """Operations attempted / failed in one repetition, with reasons."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(f"{note} (x{int(count)})")

    def absorb(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes[: 20 - len(self.notes)]


class Workload:
    """One repetition of one workload (see the module docstring)."""

    name = ""
    why = ""
    #: Input records per repetition and records per chunk (lap).
    records = 0
    chunk = 0
    #: Simulated seconds between two arrivals.
    gap = 0.0
    reports_latency = True
    #: Wall seconds of a warm-up pass done during set-up (rewind only).
    first_pass_s = 0.0

    def __init__(self, seed: int, scale: int = 1) -> None:
        self.seed = seed
        self.chunk_size = max(50, self.chunk // scale)
        self.n = max(4 * self.chunk_size, self.records // scale)
        self.cluster: MessagingCluster | None = None
        self.events: list[dict] = []
        self.created: list[float] = []
        #: ``(simulated delivery time, records)`` per non-empty final poll.
        self.deliveries: list[tuple[float, list]] = []
        #: Simulated seconds the stack charged for record work (acks, polls,
        #: job passes); excludes idle waits for arrivals and query bursts.
        self.sim_charged = 0.0
        self.counters_before: dict[str, float] = {}
        self.counters_after: dict[str, float] = {}
        self.producers: list[Producer] = []

    # -- protocol -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, meter) -> None:
        raise NotImplementedError

    def verify(self) -> Verdict:
        raise NotImplementedError

    def run(self, meter) -> None:
        """The timed section, bracketed by the instrument snapshots."""
        assert self.cluster is not None
        self.counters_before = read_instruments(self.cluster.metrics)
        meter.start()
        try:
            self.timed(meter)
        finally:
            meter.stop()
            self.counters_after = read_instruments(self.cluster.metrics)

    # -- shared pieces ----------------------------------------------------------

    def _new_cluster(self) -> MessagingCluster:
        self.cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        return self.cluster

    def _make_inputs(self) -> None:
        """Seeded events plus their creation stamps on the cluster's clock."""
        assert self.cluster is not None
        self.events = make_events(self.seed, self.n)
        t0 = self.cluster.clock.now()
        gap = self.gap
        self.created = [t0 + i * gap for i in range(self.n)]

    def _charge(self, latency: float) -> None:
        self.sim_charged += latency
        self.cluster.tick(latency)

    def _produce(
        self, meter, producer: Producer, topic: str, lo: int, hi: int
    ) -> None:
        """Send ``events[lo:hi]`` as they arrive, then flush the tail."""
        events, created = self.events, self.created
        cluster, send = self.cluster, producer.send
        now = cluster.clock.now
        for group, start in enumerate(range(lo, hi, ARRIVAL_GROUP), start=1):
            stop = min(start + ARRIVAL_GROUP, hi)
            wait = created[stop - 1] - now()
            if wait > 0:
                cluster.tick(wait)
            for i in range(start, stop):
                event = events[i]
                ack = send(
                    topic, event, key=event["member_id"], timestamp=created[i]
                )
                if ack is not None:
                    self._charge(ack.latency)
            if group % GROUPS_PER_LAP == 0:
                meter.lap("main", boundary=False)
        self._charge(sum(ack.latency for ack in producer.flush()))
        meter.lap("main", boundary=False)

    def _drain(self, consumer: Consumer, want: int) -> int:
        """Poll until ``want`` more records arrived; returns how many did."""
        got = idle = 0
        now = self.cluster.clock.now
        while got < want and idle < MAX_IDLE_POLLS:
            records = consumer.poll()
            self._charge(consumer.last_poll_latency)
            if records:
                self.deliveries.append((now(), records))
                got += len(records)
                idle = 0
            else:
                idle += 1
        return got

    def delta(self, name: str) -> float:
        return self.counters_after.get(name, 0.0) - self.counters_before.get(
            name, 0.0
        )

    def delta_suffix(self, prefix: str, suffix: str) -> float:
        """Summed delta of every instrument named ``prefix...suffix`` (the
        per-job instruments carry the job name in the middle)."""
        return sum(
            self.delta(name)
            for name in self.counters_after
            if name.startswith(prefix) and name.endswith(suffix)
        )

    @property
    def delivered(self) -> int:
        return sum(len(records) for _at, records in self.deliveries)

    def latencies_ms(self) -> list[float]:
        """Per delivered record: delivery time minus creation stamp."""
        if not self.reports_latency:
            return []
        out = []
        for at, records in self.deliveries:
            out.extend((at - record.timestamp) * 1e3 for record in records)
        out.sort()
        return out

    def outcome(self) -> dict[str, Any]:
        """Exact numbers of this repetition (identical for a fixed seed)."""
        records = max(1, self.delivered)
        out: dict[str, Any] = {
            "records": self.delivered,
            "sim_s_per_krec": self.sim_charged / records * 1e3,
            "sim_wire_bytes_per_record": self.delta(_WIRE_BYTES) / records,
            "work": self.work(),
        }
        samples = self.latencies_ms()
        if samples:
            out["sim_latency_p50_ms"] = percentile(samples, 50)
            out["sim_latency_p99_ms"] = percentile(samples, 99)
            out["sim_latency_samples"] = len(samples)
        return out

    def work(self) -> dict[str, float]:
        """Work / waste counts read from instrument deltas and clients."""
        d = self.delta
        produce_calls = sum(
            d(f"messaging.cluster.produce_latency.{mode}#count")
            for mode in ("none", "leader", "all")
        )
        ratio_n = d("messaging.producer.compression_ratio#count")
        hits, misses = d("storage.pagecache.hits"), d("storage.pagecache.misses")
        cold_hits = d("storage.tiered.cold_hits")
        cold_fetches = d("storage.tiered.cold_fetches")
        work = {
            "common.compression.ratio": (
                d("messaging.producer.compression_ratio#total") / ratio_n
                if ratio_n
                else 0.0
            ),
            "messaging.producer.records_per_batch": (
                d("messaging.cluster.messages_in") / produce_calls
                if produce_calls
                else 0.0
            ),
            "messaging.producer.retries": float(
                sum(p.retries for p in self.producers)
            ),
            "messaging.cluster.bytes_on_wire": d(_WIRE_BYTES),
            "messaging.consumer.prefetch_hits": d(
                "messaging.consumer.prefetch_hits"
            ),
            "messaging.transactions.commits": d("messaging.transactions.commits"),
            "messaging.transactions.aborts": d("messaging.transactions.aborts"),
            "messaging.transactions.markers_written": d(
                "messaging.transactions.markers_written"
            ),
            "storage.pagecache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "storage.pagecache.evictions": d("storage.pagecache.evictions"),
            "storage.tiered.cold_hit_ratio": (
                cold_hits / (cold_hits + cold_fetches)
                if cold_hits + cold_fetches
                else 0.0
            ),
            "storage.tiered.bytes_hydrated": d("storage.tiered.bytes_hydrated"),
            # Archived by set-up: an absolute count, not a timed-section delta.
            "storage.tiered.segments_archived": self.counters_after.get(
                "storage.tiered.segments_archived", 0.0
            ),
            "serving.replica.records_applied": self.delta_suffix(
                "serving.standby.", ".records_applied"
            ),
        }
        return work

    # -- oracles ------------------------------------------------------------------

    def _check_stream(
        self,
        verdict: Verdict,
        expected: list[Any],
        exactly_once: bool = True,
    ) -> None:
        """Delivered stream vs. reference: nothing missing, nothing changed,
        produce order kept inside each partition, every key on one
        partition, and (unless the guarantee allows them) no duplicates.

        ``expected[seq]`` is the value the record carrying ``seq`` must have.
        """
        seen = [0] * len(expected)
        last_seq: dict[int, int] = {}
        partition_of: dict[Any, int] = {}
        wrong = disorder = misrouted = unknown = 0
        for _at, records in self.deliveries:
            for record in records:
                value = record.value
                seq = value.get("seq") if isinstance(value, dict) else None
                if not isinstance(seq, int) or not 0 <= seq < len(expected):
                    unknown += 1
                    continue
                if value != expected[seq] or record.key != value["member_id"]:
                    wrong += 1
                duplicate = seen[seq] > 0
                seen[seq] += 1
                if partition_of.setdefault(record.key, record.partition) != (
                    record.partition
                ):
                    misrouted += 1
                if not duplicate:
                    if seq < last_seq.get(record.partition, -1):
                        disorder += 1
                    last_seq[record.partition] = seq
        verdict.attempted += len(expected)
        verdict.fail(sum(1 for count in seen if count == 0), "records missing")
        verdict.fail(wrong, "records differ from the reference")
        verdict.fail(disorder, "records out of per-partition order")
        verdict.fail(misrouted, "keys seen on two partitions")
        verdict.fail(unknown, "records the reference does not know")
        if exactly_once:
            verdict.fail(
                sum(count - 1 for count in seen if count > 1),
                "records duplicated",
            )


# ---------------------------------------------------------------------------
# Ingest: produce -> replicate -> tail
# ---------------------------------------------------------------------------


class NearlineIngest(Workload):
    name = "nearline_ingest"
    why = (
        "batched appends and hot tail reads on the frameless path; per-record "
        "costs (estimate_size, partitioning, record construction) dominate"
    )
    records = 60_000
    chunk = 2_000
    gap = 250e-6
    compression = "none"
    serde: Any = None
    prefetch = False

    def setup(self) -> None:
        cluster = self._new_cluster()
        cluster.create_topic(
            TopicConfig(name="events", num_partitions=4, replication_factor=3)
        )
        self.producer = Producer(
            cluster,
            ProducerConfig(
                acks="leader",
                linger_messages=200,
                compression=self.compression,
                value_serde=self.serde,
            ),
        )
        self.producers = [self.producer]
        self.consumer = Consumer(
            cluster,
            ConsumerConfig(
                max_poll_messages=500,
                value_serde=self.serde,
                prefetch=self.prefetch,
            ),
        )
        self.consumer.assign([TopicPartition("events", p) for p in range(4)])
        self._make_inputs()

    def timed(self, meter) -> None:
        for lo in range(0, self.n, self.chunk_size):
            hi = min(lo + self.chunk_size, self.n)
            self._produce(meter, self.producer, "events", lo, hi)
            self.cluster.run_until_replicated()
            self._drain(self.consumer, hi - lo)
            meter.lap("main")

    def verify(self) -> Verdict:
        verdict = Verdict()
        self._check_stream(verdict, self.events)
        return verdict


class CompressedIngest(NearlineIngest):
    name = "compressed_ingest"
    why = (
        "the BatchFrame path end to end: serde, deflate once per batch, "
        "opaque frame replication, lazy inflate; values are bytes, so "
        "estimate_size is cheap here and compression/serde/fetchbuffer are not"
    )
    records = 40_000
    chunk = 2_000
    compression = "zlib:6"
    serde = JsonSerde()
    prefetch = True


# ---------------------------------------------------------------------------
# Stateful jobs: input feed -> task with local state -> derived feed
# ---------------------------------------------------------------------------


class CountTask:
    """Counts events per member in local state; emits the running count
    carrying the input's creation stamp."""

    def init(self, context) -> None:
        self.counts = context.store("counts")

    def process(self, record, collector) -> None:
        key = record.key
        count = (self.counts.get(key) or 0) + 1
        self.counts.put(key, count)
        collector.send(
            "counts-out",
            {"seq": record.value["seq"], "member_id": key, "count": count},
            key=key,
            timestamp=record.timestamp,
        )


class StatefulJob(Workload):
    name = "stateful_job"
    why = (
        "explicit local state with changelog durability, at-least-once: two "
        "unbatched produces per record, so the whole append spine is paid "
        "per record; the store is write-mostly; ends with a cold restore"
    )
    records = 12_000
    chunk = 600
    gap = 1e-3
    guarantee = AT_LEAST_ONCE
    standbys = 0
    isolation = "read_uncommitted"

    def setup(self) -> None:
        cluster = self._new_cluster()
        for topic in ("events", "counts-out"):
            cluster.create_topic(
                TopicConfig(name=topic, num_partitions=4, replication_factor=3)
            )
        self.producer = Producer(
            cluster, ProducerConfig(acks="leader", linger_messages=200)
        )
        self.runner = JobRunner(
            JobConfig(
                name="counter",
                inputs=("events",),
                task_factory=CountTask,
                stores=(StoreConfig("counts", store_type="lsm"),),
                checkpoint_interval=500,
                changelog_replication=3,
                processing_guarantee=self.guarantee,
                num_standby_replicas=self.standbys,
            ),
            cluster,
        )
        self.producers = [self.producer, self.runner.producer]
        self.router = StateQueryRouter(self.runner)
        self.downstream = Consumer(
            cluster,
            ConsumerConfig(
                max_poll_messages=500, isolation_level=self.isolation
            ),
        )
        self.downstream.assign(
            [TopicPartition("counts-out", p) for p in range(4)]
        )
        self._make_inputs()
        self.counts = running_counts(self.events)
        self.recovery = None
        self.emitted_before_crash = 0

    def _job_chunk(self, meter, lo: int, hi: int) -> None:
        runner = self.runner
        self._produce(meter, self.producer, "events", lo, hi)
        idle = 0
        while runner.records_processed < hi and idle < MAX_IDLE_POLLS:
            result = runner.poll_once()
            # The runner advances the clock by its own pass latency.
            self.sim_charged += result.latency
            idle = 0 if result.records_processed else idle + 1
            meter.lap("main", boundary=False)
        if self.guarantee == EXACTLY_ONCE:
            # The checkpoint is the commit: make the chunk's output visible
            # to read_committed readers and let the standbys catch up.
            runner.checkpoint()
        self._drain(self.downstream, runner.records_emitted - self.delivered)

    def _crash_and_recover(self, meter) -> None:
        self.emitted_before_crash = self.runner.records_emitted
        self.runner.crash()
        self.recovery = self.runner.recover()
        meter.lap("recovery")

    def timed(self, meter) -> None:
        for lo in range(0, self.n, self.chunk_size):
            self._job_chunk(meter, lo, min(lo + self.chunk_size, self.n))
            meter.lap("main")
        self._crash_and_recover(meter)

    def _expected_outputs(self) -> list[dict]:
        return [
            {"seq": i, "member_id": event["member_id"], "count": count}
            for i, (event, count) in enumerate(zip(self.events, self.counts))
        ]

    def _final_model(self) -> dict[str, int]:
        model: dict[str, int] = {}
        for event, count in zip(self.events, self.counts):
            model[event["member_id"]] = count
        return model

    def _check_restored_state(self, verdict: Verdict) -> None:
        """State rebuilt by ``recover()`` equals the state before the crash,
        which the stream oracle already pinned to the plain-dict fold."""
        model = self._final_model()
        restored = dict(self.router.range("counts").value)
        verdict.attempted += len(model)
        verdict.fail(
            sum(1 for key, count in model.items() if restored.get(key) != count)
            + sum(1 for key in restored if key not in model),
            "restored state differs from the pre-crash state",
        )

    def verify(self) -> Verdict:
        verdict = Verdict()
        self._check_stream(
            verdict,
            self._expected_outputs(),
            exactly_once=self.guarantee == EXACTLY_ONCE,
        )
        self._check_restored_state(verdict)
        return verdict

    def work(self) -> dict[str, float]:
        work = super().work()
        report = self.recovery
        work.update(
            {
                "processing.job.records_processed": float(
                    self.runner.records_processed
                ),
                "processing.job.records_emitted": float(
                    self.emitted_before_crash
                ),
                "processing.recovery.records_replayed": float(
                    report.records_replayed if report else 0
                ),
                "processing.recovery.standby_promotions": float(
                    report.standby_promotions() if report else 0
                ),
            }
        )
        return work


class ExactlyOnceServing(StatefulJob):
    name = "exactly_once_serving"
    why = (
        "transactions, atomic checkpoints, read_committed fetch and standby "
        "replicas, with point and range queries beside the writes; ends with "
        "a standby promotion"
    )
    records = 16_000
    chunk = 800
    gap = 0.75e-3
    guarantee = EXACTLY_ONCE
    standbys = 1
    isolation = "read_committed"
    #: Queries per repetition, spread evenly over the chunks.
    gets = 30_000
    gets_per_range = 500
    range_width = 50

    def setup(self) -> None:
        super().setup()
        self._plan_queries()
        self.answers: list[list] = []
        self.query_sim_s = 0.0

    def _plan_queries(self) -> None:
        """Seeded query plan per burst and, from the plain-dict model at that
        chunk boundary, the answer each query must get."""
        rng = random.Random(self.seed ^ 0x5EED)
        chunks = -(-self.n // self.chunk_size)
        per_burst = max(self.gets_per_range, self.gets * self.n // self.records // chunks)
        self.plan: list[list[tuple]] = []
        self.expected_answers: list[list] = []
        model: dict[str, int] = {}
        for c in range(chunks):
            lo, hi = c * self.chunk_size, min((c + 1) * self.chunk_size, self.n)
            for event, count in zip(self.events[lo:hi], self.counts[lo:hi]):
                model[event["member_id"]] = count
            burst: list[tuple] = []
            expected: list = []
            for q in range(per_burst):
                key = member_key(rng.randrange(MEMBERS))
                burst.append(("get", key, bool(q % 2)))
                expected.append(model.get(key))
                if (q + 1) % self.gets_per_range == 0:
                    first = rng.randrange(MEMBERS - self.range_width)
                    start = member_key(first)
                    end = member_key(first + self.range_width)
                    burst.append(("range", start, end))
                    expected.append(
                        tuple(
                            sorted(
                                (k, v) for k, v in model.items() if start <= k < end
                            )
                        )
                    )
            self.plan.append(burst)
            self.expected_answers.append(expected)

    def _query_burst(self, meter, burst: list[tuple]) -> None:
        router = self.router
        get, range_ = router.get, router.range
        results = []
        for kind, a, b in burst:
            if kind == "get":
                results.append(get("counts", a, allow_stale=b))
            else:
                results.append(range_("counts", a, b))
                meter.lap("query", boundary=False)
        self.answers.append(results)
        latency = sum(result.latency for result in results)
        self.query_sim_s += latency
        self.cluster.tick(latency)

    def timed(self, meter) -> None:
        for c, lo in enumerate(range(0, self.n, self.chunk_size)):
            self._job_chunk(meter, lo, min(lo + self.chunk_size, self.n))
            meter.lap("main")
            self._query_burst(meter, self.plan[c])
            meter.lap("query")
        self._crash_and_recover(meter)

    @property
    def queries(self) -> int:
        return sum(len(results) for results in self.answers)

    def verify(self) -> Verdict:
        verdict = super().verify()
        wrong = unserved = 0
        for results, expected in zip(self.answers, self.expected_answers):
            for result, want in zip(results, expected):
                if result.value != want:
                    wrong += 1
            unserved += len(expected) - len(results)
        verdict.attempted += sum(len(e) for e in self.expected_answers)
        verdict.fail(wrong, "query answers differ from the dict model")
        verdict.fail(unserved, "queries not answered")
        return verdict

    def outcome(self) -> dict[str, Any]:
        out = super().outcome()
        out["queries"] = self.queries
        return out

    def work(self) -> dict[str, float]:
        work = super().work()
        stale = sum(
            1
            for results in self.answers
            for result in results
            if result.served_by != "primary"
        )
        work["serving.server.stale_served_ratio"] = (
            stale / self.queries if self.queries else 0.0
        )
        return work


# ---------------------------------------------------------------------------
# Offline rewind over tiered history
# ---------------------------------------------------------------------------


class OfflineRewind(Workload):
    name = "offline_rewind"
    why = (
        "metadata-based rewind over history larger than the hot tier: reads "
        "only (log read, sparse index, page cache, cold read-through, "
        "consumer materialisation); no append, replication or job code runs"
    )
    records = 60_000
    chunk = 10_000
    #: Simulated seconds between two loaded records (history spans 60 s, of
    #: which retention keeps the last 20 s hot).
    gap = 1e-3
    reports_latency = False
    scans = 6
    lookups = 200
    lookup_poll = 10

    def setup(self) -> None:
        cluster = self._new_cluster()
        cluster.create_topic(
            TopicConfig(
                name="history",
                num_partitions=2,
                replication_factor=1,
                retention=RetentionConfig(retention_seconds=20.0),
                log=LogConfig(segment_max_messages=2_000),
                tiered=TieredConfig(),
            )
        )
        self._make_inputs()
        producer = Producer(
            cluster, ProducerConfig(acks="leader", linger_messages=200)
        )
        step = 1_000
        for lo in range(0, self.n, step):
            for i in range(lo, min(lo + step, self.n)):
                event = self.events[i]
                producer.send(
                    "history",
                    event,
                    key=event["member_id"],
                    timestamp=self.created[i],
                )
            producer.flush()
            # Simulated time passes while history accumulates, so retention
            # sweeps move expired segments to the cold tier as they age out.
            cluster.tick(step * self.gap)
        self.partitions = [TopicPartition("history", p) for p in range(2)]
        self.consumer = Consumer(cluster, ConsumerConfig(max_poll_messages=500))
        self.consumer.assign(self.partitions)
        self.lookup_consumers = []
        for tp in self.partitions:
            consumer = Consumer(
                cluster, ConsumerConfig(max_poll_messages=self.lookup_poll)
            )
            consumer.assign([tp])
            self.lookup_consumers.append(consumer)
        rng = random.Random(self.seed ^ 0x10C)
        span = self.created[-1] - self.created[0]
        self.lookup_plan = [
            (rng.randrange(2), self.created[0] + rng.random() * span)
            for _ in range(self.lookups)
        ]
        self.lookup_results: list[tuple[int, list]] = []
        #: The warm-up scan hydrates the cold cache; it is part of set-up and
        #: its wall time is reported on its own (driver.first_pass_s).
        self.scan_records: list[list] = []
        started = perf_counter()
        self._scan(None)
        self.first_pass_s = perf_counter() - started
        self.warmup = self.scan_records.pop()
        self.deliveries.clear()
        self.sim_charged = 0.0

    def _scan(self, meter) -> None:
        """Rewind to offset 0 and read every partition to its end."""
        consumer, advance = self.consumer, self.cluster.clock.advance
        for tp in self.partitions:
            consumer.seek(tp, 0)
        scan: list = []
        got = idle = 0
        step = self.chunk_size // 4
        next_lap = step
        while got < self.n and idle < MAX_IDLE_POLLS:
            records = consumer.poll()
            latency = consumer.last_poll_latency
            self.sim_charged += latency
            # Reads only: time passes on the clock, but no cluster tick (and
            # so no replication or retention pass) runs in the timed section.
            advance(latency)
            if records:
                scan.append(records)
                got += len(records)
                idle = 0
                if meter is not None and got >= next_lap:
                    meter.lap("main", boundary=next_lap % self.chunk_size == 0)
                    next_lap += step
            else:
                idle += 1
        self.scan_records.append(scan)
        self.deliveries.extend((0.0, records) for records in scan)

    def timed(self, meter) -> None:
        for _ in range(self.scans):
            self._scan(meter)
        advance = self.cluster.clock.advance
        for p, timestamp in self.lookup_plan:
            consumer = self.lookup_consumers[p]
            offset = consumer.seek_to_timestamp(self.partitions[p], timestamp)
            records = consumer.poll()
            latency = consumer.last_poll_latency
            self.sim_charged += latency
            advance(latency)
            self.lookup_results.append((offset, records))
            self.deliveries.append((0.0, records))
        meter.lap("main")

    def _check_scan(self, scan: list) -> tuple[int, dict[int, list[int]]]:
        """One full rewind against what was produced: every partition dense
        from offset 0 in produce order, over the cold and the hot tier, with
        the produced key, value and timestamp.  Returns the number of wrong
        records and the ``seq`` sequence per partition."""
        events, created = self.events, self.created
        by_partition: dict[int, list[int]] = {}
        wrong = 0
        for records in scan:
            for r in records:
                seqs = by_partition.setdefault(r.partition, [])
                seq = r.value.get("seq") if isinstance(r.value, dict) else None
                if not isinstance(seq, int) or not 0 <= seq < len(events):
                    wrong += 1
                    seq = -1
                elif (
                    r.offset != len(seqs)
                    or r.value != events[seq]
                    or r.key != events[seq]["member_id"]
                    or r.timestamp != created[seq]
                    or (seqs and seq <= seqs[-1])
                ):
                    wrong += 1
                seqs.append(seq)
        return wrong, by_partition

    def verify(self) -> Verdict:
        verdict = Verdict()
        by_partition: dict[int, list[int]] = {}
        for i, scan in enumerate([self.warmup] + self.scan_records):
            wrong, seqs = self._check_scan(scan)
            verdict.attempted += self.n
            verdict.fail(wrong, "rewound records differ from what was produced")
            verdict.fail(
                abs(self.n - sum(len(s) for s in seqs.values())),
                "rewind did not return the whole history",
            )
            if i == 0:
                by_partition = seqs
            else:
                verdict.fail(seqs != by_partition, "a rewind differs from the first")
        # Timestamp lookups: the offset must be the first record at/after
        # the timestamp, and the poll must start exactly there.
        stamps = {
            p: [self.created[seq] for seq in seqs]
            for p, seqs in by_partition.items()
        }
        bad = 0
        for (p, timestamp), (offset, records) in zip(
            self.lookup_plan, self.lookup_results
        ):
            want = bisect.bisect_left(stamps.get(p, []), timestamp)
            if offset != want or not records or records[0].offset != want:
                bad += 1
            elif any(r.partition != p for r in records):
                bad += 1
        verdict.attempted += len(self.lookup_plan)
        verdict.fail(bad, "timestamp lookups landed on the wrong offset")
        verdict.fail(
            len(self.lookup_plan) - len(self.lookup_results),
            "timestamp lookups not answered",
        )
        return verdict

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        NearlineIngest,
        CompressedIngest,
        StatefulJob,
        ExactlyOnceServing,
        OfflineRewind,
    )
}
