"""The messaging layer facade: a simulated Kafka cluster (§3.1, §4).

Owns the brokers, the coordinator/controller pair, the replication loop, and
the offset manager, and exposes the produce/fetch/metadata surface that
producers, consumers and the processing layer use.  One instance corresponds
to one of the paper's messaging clusters.

Durability semantics follow §4.3: ``acks`` selects the durability/latency
trade-off —

* ``"none"``  — fire-and-forget (minimum durability, minimum latency);
* ``"leader"`` — acknowledged after the leader's append (Kafka acks=1);
* ``"all"``   — acknowledged after every in-sync replica has the data
  (maximum durability; rejected if the ISR is below ``min_insync_replicas``).

Delivery is at-least-once: producers retry on transient errors, and a retry
after an ambiguous failure may duplicate (unless the idempotent producer is
used — the paper's "ongoing effort" towards exactly-once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.clock import SimClock
from repro.common.compression import (
    BATCH_FRAME_HEADER_BYTES,
    BatchFrame,
    payload_sizes,
)
from repro.common.costmodel import round_latency
from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    NotEnoughReplicasError,
    RecordTooLargeError,
    ReservedTopicError,
    TopicAlreadyExistsError,
    TopicNotFoundError,
)
from repro.common.metrics import MetricsRegistry, metric_name
from repro.common.records import (
    EMPTY_HEADERS,
    RECORD_FRAMING_BYTES,
    ConsumerRecord,
    TopicPartition,
)
from repro.chaos.failpoints import failpoint
from repro.cluster.controller import ClusterController
from repro.cluster.coordinator import Coordinator
from repro.storage.log import LogConfig
from repro.storage.tiered import DfsObjectStore
from repro.messaging.broker import Broker
from repro.messaging.fetchbuffer import (
    FetchBatch,
    build_fetch_batches,
)
from repro.messaging.offset_manager import OFFSETS_TOPIC, OffsetManager
from repro.messaging.quotas import QuotaManager
from repro.messaging.replication import ReplicationManager, ReplicationStats
from repro.messaging.topic import (
    CLEANUP_COMPACT,
    SYSTEM_TOPIC_PREFIX,
    TopicConfig,
    is_system_topic,
)

#: Valid ack modes.
ACKS_NONE = "none"
ACKS_LEADER = "leader"
ACKS_ALL = "all"
_ACK_MODES = (ACKS_NONE, ACKS_LEADER, ACKS_ALL)

# Metric names precomputed once (layer.component.metric convention); the
# per-acks latency histograms are a closed set, bound one per mode.
_M_MESSAGES_IN = metric_name("messaging", "cluster", "messages_in")
_M_MESSAGES_OUT = metric_name("messaging", "cluster", "messages_out")
_M_FETCH_LATENCY = metric_name("messaging", "cluster", "fetch_latency")
_M_PRODUCE_LATENCY = {
    mode: metric_name("messaging", "cluster", "produce_latency", mode)
    for mode in _ACK_MODES
}
#: Physical bytes moved over the simulated network: produce ingress,
#: synchronous + background replication hops, and fetch egress.  Compressed
#: batches move their wire bytes.
_M_WIRE_BYTES = metric_name("messaging", "cluster", "bytes_on_wire")


@dataclass
class ProduceAck:
    """Acknowledgment for a produced batch; ``broker`` is the leader that
    served the request."""

    partition: TopicPartition
    base_offset: int
    last_offset: int
    latency: float
    broker: int
    duplicate: bool = False


@dataclass
class FetchResult:
    """Result of a consumer fetch.

    ``next_offset`` is where a sequential reader should continue: it can
    exceed the last delivered record when markers or aborted transactional
    records were skipped.

    ``batches`` is populated by lazy fetches (``fetch(..., lazy=True)``):
    the response grouped into :class:`~repro.messaging.fetchbuffer.FetchBatch`
    units, compressed ones still framed; ``records`` is then empty and the
    decompress CPU is charged by whoever inflates.

    ``broker`` is the leader that served the request.
    """

    records: list[ConsumerRecord]
    latency: float
    next_offset: int
    broker: int
    batches: list[FetchBatch] | None = None


class MessagingCluster:
    """A cluster of brokers with replication and metadata-based access."""

    def __init__(
        self,
        num_brokers: int = 3,
        clock: SimClock | None = None,
        page_cache_bytes: int = 256 * 1024 * 1024,
        allow_unclean_election: bool = False,
        replication_max_lag: int = 4,
        maintenance_interval: float = 5.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_brokers <= 0:
            raise ConfigError("num_brokers must be > 0")
        self.clock = clock if clock is not None else SimClock()
        self.cost_model = self.clock.cost_model
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_wire_bytes = self.metrics.counter(_M_WIRE_BYTES)
        self._c_messages_in = self.metrics.counter(_M_MESSAGES_IN)
        self._c_messages_out = self.metrics.counter(_M_MESSAGES_OUT)
        self._h_fetch_latency = self.metrics.histogram(_M_FETCH_LATENCY)
        self._h_produce_latency = {
            mode: self.metrics.histogram(name)
            for mode, name in _M_PRODUCE_LATENCY.items()
        }
        # One cold store shared by every broker (the offline tier is a
        # separate shared system, not broker-local disk).  Created lazily on
        # the first tiered topic.
        self._object_store: DfsObjectStore | None = None
        self.coordinator = Coordinator(self.clock)
        self.controller = ClusterController(
            self.coordinator, allow_unclean_election=allow_unclean_election
        )
        self._brokers: dict[int, Broker] = {}
        for broker_id in range(num_brokers):
            broker = Broker(
                broker_id,
                self.clock,
                page_cache_bytes=page_cache_bytes,
                metrics=self.metrics,
            )
            self._brokers[broker_id] = broker
            self.controller.register_broker(broker_id)
        self.controller.on_leadership_change(self._apply_leadership)
        self.controller.on_isr_change(self._apply_isr)
        self._topics: dict[str, TopicConfig] = {}
        self.replication = ReplicationManager(self, replication_max_lag)
        self.offset_manager = OffsetManager(
            self.clock, durable_append=self._append_offsets_record
        )
        self.quotas = QuotaManager(self.clock)
        self.maintenance_interval = maintenance_interval
        self._last_maintenance = self.clock.now()
        self._create_offsets_topic(num_brokers)

    # -- internal topic ----------------------------------------------------------

    def _create_offsets_topic(self, num_brokers: int) -> None:
        self.create_system_topic(
            TopicConfig(
                name=OFFSETS_TOPIC,
                num_partitions=1,
                replication_factor=min(3, num_brokers),
                cleanup_policy=CLEANUP_COMPACT,
                log=LogConfig(segment_max_messages=1000),
            )
        )

    def _append_offsets_record(self, key: Any, value: Any) -> None:
        partition = TopicPartition(OFFSETS_TOPIC, 0)
        self._produce_to(
            partition, [(key, value, self.clock.now(), EMPTY_HEADERS)], ACKS_LEADER
        )

    def recover_offset_manager(self) -> int:
        """Rebuild the offset manager from the internal compacted topic."""
        partition = TopicPartition(OFFSETS_TOPIC, 0)
        leader_id = self.controller.leader_for(partition)
        if leader_id is None:
            raise BrokerUnavailableError(f"{partition} is offline")
        replica = self._brokers[leader_id].replica(partition)
        records = [m.value for m in replica.log.all_messages()]
        return self.offset_manager.recover_from_records(records)

    # -- topic admin ------------------------------------------------------------------

    @property
    def object_store(self) -> DfsObjectStore:
        """The shared cold store backing tiered topics (created on demand).

        A :class:`DfsObjectStore` over a fresh
        :class:`~repro.baselines.dfs.SimulatedDFS` on the cluster clock —
        the paper's batch-storage system doubling as the offline tier.
        """
        if self._object_store is None:
            # Runtime import: repro.baselines imports the messaging layer.
            from repro.baselines.dfs import SimulatedDFS

            self._object_store = DfsObjectStore(SimulatedDFS(self.clock))
            for broker in self._brokers.values():
                broker.object_store = self._object_store
        return self._object_store

    def create_topic(self, config: TopicConfig | str, **kwargs: Any) -> TopicConfig:
        """Create a client topic from a :class:`TopicConfig` or name + kwargs.

        A name in the system's ``__`` namespace
        (:func:`~repro.messaging.topic.is_system_topic`) is refused with
        :class:`~repro.common.errors.ReservedTopicError`: those topics are
        created by :meth:`create_system_topic` alone.
        """
        if isinstance(config, str):
            config = TopicConfig(name=config, **kwargs)
        elif kwargs:
            raise ConfigError("pass either a TopicConfig or name + kwargs")
        if is_system_topic(config.name):
            raise ReservedTopicError(
                f"topic name {config.name!r} is reserved: the "
                f"{SYSTEM_TOPIC_PREFIX!r} namespace belongs to system topics"
            )
        return self._create(config)

    def create_system_topic(self, config: TopicConfig) -> TopicConfig:
        """Create a topic in the system's ``__`` namespace: the path of the
        offsets topic, the telemetry feeds and job changelogs, and of
        nothing else (a client name is a :class:`ConfigError` here)."""
        if not is_system_topic(config.name):
            raise ConfigError(
                f"system topic {config.name!r} must start with "
                f"{SYSTEM_TOPIC_PREFIX!r}"
            )
        return self._create(config)

    def _create(self, config: TopicConfig) -> TopicConfig:
        if config.name in self._topics:
            raise TopicAlreadyExistsError(config.name)
        if config.tiered is not None:
            self.object_store  # materialize the cold store before hosting
        live = sorted(self.controller.live_brokers())
        if config.replication_factor > len(live):
            raise ConfigError(
                f"replication_factor {config.replication_factor} exceeds "
                f"live brokers {len(live)}"
            )
        self._topics[config.name] = config
        for p in range(config.num_partitions):
            partition = TopicPartition(config.name, p)
            replicas = [
                live[(p + i) % len(live)] for i in range(config.replication_factor)
            ]
            for broker_id in replicas:
                self._brokers[broker_id].host_partition(partition, config)
            self.controller.create_partition(partition, replicas)
        return config

    def topic_config(self, topic: str) -> TopicConfig:
        config = self._topics.get(topic)
        if config is None:
            raise TopicNotFoundError(topic)
        return config

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partitions_of(self, topic: str) -> list[TopicPartition]:
        config = self.topic_config(topic)
        return [TopicPartition(topic, p) for p in range(config.num_partitions)]

    # -- leadership plumbing ----------------------------------------------------------

    def _apply_leadership(
        self,
        partition: TopicPartition,
        leader: int | None,
        epoch: int,
        isr: list[int],
    ) -> None:
        self.replication.mark(partition)
        replicas = [b.replica(partition) for b in self._brokers.values()
                    if b.online and b.hosts(partition)]
        leading = next((r for r in replicas if r.broker_id == leader), None)
        if leading is not None:
            came_from = leading.leader_epoch
            leading.become_leader(epoch, isr)
        for replica in replicas:
            if leading is None:
                replica.become_follower(epoch)
            elif replica is not leading:
                self.replication.reconcile(replica, leading, replica.leader_epoch == came_from)

    def _apply_isr(self, partition: TopicPartition, isr: list[int]) -> None:
        self.replication.mark(partition)
        leader = self.controller.leader_for(partition)
        if leader is None:
            return
        broker = self._brokers.get(leader)
        if broker is not None and broker.online and broker.hosts(partition):
            broker.replica(partition).set_isr(isr)

    # -- client paths ---------------------------------------------------------------------

    def produce(
        self,
        topic: str,
        partition: int,
        entries: list[tuple[Any, Any, float | None, dict[str, Any]]],
        acks: str = ACKS_LEADER,
        producer_id: int | None = None,
        producer_seq: int | None = None,
        client_id: str | None = None,
        frame: BatchFrame | None = None,
        transactional: bool = False,
    ) -> ProduceAck:
        """Produce a batch to one partition (low-level; see Producer).

        ``client_id`` enables per-application byte-rate quotas (§4.5): a
        client over its produce quota has the throttle delay added to its
        ack latency.  With ``frame`` set the batch travels (and is charged)
        as the producer's compressed blob.  ``producer_id`` /
        ``producer_seq`` / ``transactional`` are the request's producer
        state — fields of the batch, never of its records.
        """
        tp = TopicPartition(topic, partition)
        self.topic_config(topic)
        # Armed by chaos schedules to drop the request before it reaches the
        # leader — the client sees a transient error, nothing is appended.
        failpoint("cluster.produce", partition=tp, acks=acks)
        # A missing timestamp is stamped by the leader's log, from this clock
        # at this instant (a framed batch was stamped by its producer).
        return self._produce_to(
            tp, entries, acks, producer_id, producer_seq, frame, client_id,
            transactional,
        )

    def _produce_to(
        self,
        tp: TopicPartition,
        entries: list[tuple[Any, Any, float | None, dict[str, Any] | None]],
        acks: str,
        producer_id: int | None = None,
        producer_seq: int | None = None,
        frame: BatchFrame | None = None,
        client_id: str | None = None,
        transactional: bool = False,
    ) -> ProduceAck:
        if acks not in _ACK_MODES:
            raise ConfigError(f"unknown acks mode {acks!r}; expected {_ACK_MODES}")
        config = self.topic_config(tp.topic)
        state = self.controller.partition_state(tp)
        if state.leader is None:
            raise BrokerUnavailableError(f"{tp} is offline (no leader)")
        leader_broker = self._brokers[state.leader]
        # The one walk over the batch: this payload-size column feeds the
        # wire charge, the produce quota and every StoredMessage.size.
        if frame is not None:
            # Compressed batch: the producer sized the records when it built
            # the frame, the wire carries the frame, and the producer paid
            # one deflate pass over the logical payload.
            sizes = frame.sizes
            batch_bytes = frame.wire_bytes
            latency = self.cost_model.compress(frame.payload_bytes)
        else:
            sizes = payload_sizes(entries)
            batch_bytes = sum(sizes)
            if producer_id is not None:
                # Producer state travels once per batch, in the batch header
                # a framed batch already pays for inside its wire bytes.
                batch_bytes += BATCH_FRAME_HEADER_BYTES
            latency = 0.0
        # A record over the topic's limit refuses the whole batch before
        # anything lands: one max over the size column, framing charged as
        # the log charges it.
        limit = config.log.max_message_bytes - RECORD_FRAMING_BYTES
        if max(sizes, default=0) > limit:
            too_large = tuple(i for i, size in enumerate(sizes) if size > limit)
            raise RecordTooLargeError(
                f"{tp}: record(s) {list(too_large)} exceed max_message_bytes="
                f"{config.log.max_message_bytes}",
                too_large,
            )
        if acks == ACKS_NONE:
            latency += self.cost_model.network_oneway(batch_bytes)
        else:
            latency += self.cost_model.network_transfer(batch_bytes)
        self._c_wire_bytes.increment(batch_bytes)
        if acks == ACKS_ALL and len(state.isr) < config.min_insync_replicas:
            raise NotEnoughReplicasError(
                f"{tp}: ISR {state.isr} below min_insync_replicas="
                f"{config.min_insync_replicas}"
            )
        # The leader's log is about to run ahead of its followers: replication
        # looks at this partition again.  Once per batch, never per record.
        self.replication.mark(tp)
        result, broker_latency = leader_broker.produce(
            tp, entries, state.epoch, producer_id, producer_seq, frame, sizes,
            transactional,
        )
        latency += broker_latency
        if acks == ACKS_ALL and not result.duplicate:
            latency += self._replicate_synchronously(tp, state, batch_bytes)
        self._h_produce_latency[acks].observe(latency)
        self._c_messages_in.increment(len(entries))
        if client_id is not None:
            latency += self.quotas.record_produce(client_id, batch_bytes)
        return ProduceAck(
            tp, result.base_offset, result.last_offset, latency,
            leader_broker.broker_id, result.duplicate,
        )

    def _replicate_synchronously(
        self, tp: TopicPartition, state: Any, batch_bytes: int
    ) -> float:
        """acks=all: push the new records to every ISR follower and wait.

        Each push is the replication loop's copy step
        (:meth:`ReplicationManager.copy`), charged as the producer's batch;
        followers copy in parallel, so the wait is the slowest one's
        (:func:`~repro.common.costmodel.round_latency`).

        An unreachable ISR member (crashed, session not yet expired) cannot
        simply be skipped: a failover onto it would lose acknowledged data.
        The leader shrinks it out of the ISR on the spot; if that leaves the
        ISR below ``min_insync_replicas`` the produce fails with
        :class:`NotEnoughReplicasError` (the leader append stands — the
        producer retries and the idempotent path dedupes).
        """
        leader_broker = self._brokers[state.leader]
        leader_replica = leader_broker.replica(tp)
        followers = []
        # (client, broker, fixed, latency): each push is a request of its own.
        pushes: list[tuple[None, int, float, float]] = []
        for follower_id in list(state.isr):
            if follower_id == state.leader:
                continue
            follower_broker = self._brokers.get(follower_id)
            if follower_broker is None or not follower_broker.online:
                # shrink_isr notifies the leader replica via _apply_isr, so
                # the high watermark now only waits on reachable members.
                self.controller.shrink_isr(tp, follower_id)
                continue
            follower_replica = follower_broker.replica(tp)
            followers.append(follower_replica)
            _read, latency = self.replication.copy(
                leader_broker, leader_replica, follower_replica, 1 << 30
            )
            self._c_wire_bytes.increment(batch_bytes)
            latency += self.cost_model.network_transfer(batch_bytes)
            pushes.append((None, follower_id, 0.0, latency))
        # The final HW too, so a failover right after the ack serves the batch.
        for follower_replica in followers:
            follower_replica.update_high_watermark(leader_replica.high_watermark)
        config = self.topic_config(tp.topic)
        if len(state.isr) < config.min_insync_replicas:
            raise NotEnoughReplicasError(
                f"{tp}: ISR shrank to {state.isr} during acks=all produce, "
                f"below min_insync_replicas={config.min_insync_replicas}"
            )
        return round_latency(pushes)

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_messages: int = 100,
        max_bytes: int | None = None,
        isolation: str = "read_uncommitted",
        client_id: str | None = None,
        lazy: bool = False,
    ) -> FetchResult:
        """Fetch committed records from the partition leader.

        ``isolation="read_committed"`` hides open/aborted transactions
        (see :mod:`repro.messaging.transactions`).  ``client_id`` enables
        per-application fetch quotas (§4.5).  ``lazy=True`` skips record
        materialization and returns the response as :attr:`FetchResult.batches`
        — compressed batches stay compressed until the consumer drains them.
        """
        tp = TopicPartition(topic, partition)
        failpoint("cluster.fetch", partition=tp, offset=offset)
        leader_id = self.controller.leader_for(tp)
        if leader_id is None:
            raise BrokerUnavailableError(f"{tp} is offline (no leader)")
        broker = self._brokers[leader_id]
        result, latency, entries = broker.fetch(
            tp, offset, max_messages, max_bytes, isolation=isolation
        )
        batches = build_fetch_batches(
            topic, partition, result.messages, result.offsets, entries
        )
        # The wire carries what the log stores: compressed runs ship as their
        # frames, so egress shrinks by the same ratio as the disk did.
        out_bytes = result.stored_bytes
        latency += self.cost_model.network_transfer(out_bytes)
        self._c_wire_bytes.increment(out_bytes)
        if client_id is not None:
            latency += self.quotas.record_fetch(client_id, out_bytes)
        self._h_fetch_latency.observe(latency)
        self._c_messages_out.increment(len(result.offsets))
        if lazy:
            return FetchResult(
                [], latency, result.next_offset, leader_id, batches=batches
            )
        # The first batch's list is the response's (the caller's own, see
        # FetchBatch.inflate); a later batch extends it.
        records: list[ConsumerRecord] = []
        for batch in batches:
            inflated, inflate_latency = batch.inflate(self.cost_model)
            if records:
                records += inflated
            else:
                records = inflated
            latency += inflate_latency
        return FetchResult(records, latency, result.next_offset, leader_id)

    # -- offset / metadata queries -----------------------------------------------------------

    def leader_of(self, topic: str, partition: int) -> int | None:
        return self.controller.leader_for(TopicPartition(topic, partition))

    def beginning_offset(self, tp: TopicPartition) -> int:
        """Oldest readable offset — reaches into the cold tier when the
        partition is tiered, so ``seek_to_beginning`` rewinds over archived
        history (§2.2)."""
        return self._leader_replica(tp).earliest_offset

    def end_offset(self, tp: TopicPartition) -> int:
        """First offset a consumer cannot yet read (the high watermark)."""
        return self._leader_replica(tp).high_watermark

    def log_end_offset(self, tp: TopicPartition) -> int:
        return self._leader_replica(tp).log_end_offset

    def offset_for_timestamp(self, tp: TopicPartition, timestamp: float) -> int | None:
        """Earliest offset with record timestamp >= ``timestamp`` (§3.1
        metadata-based access).  Spans both tiers on tiered partitions."""
        replica = self._leader_replica(tp)
        if replica.cold_tier is not None:
            return replica.cold_tier.offset_for_timestamp(timestamp)
        return replica.log.offset_for_timestamp(timestamp)

    def _leader_replica(self, tp: TopicPartition):
        leader_id = self.controller.leader_for(tp)
        if leader_id is None:
            raise BrokerUnavailableError(f"{tp} is offline (no leader)")
        return self._brokers[leader_id].replica(tp)

    # -- cluster lifecycle / simulation driving -------------------------------------------------

    def broker(self, broker_id: int) -> Broker:
        broker = self._brokers.get(broker_id)
        if broker is None:
            raise ConfigError(f"unknown broker {broker_id}")
        return broker

    def brokers(self) -> list[Broker]:
        return list(self._brokers.values())

    def kill_broker(self, broker_id: int) -> None:
        """Crash a broker: its session expires and leadership moves (§4.3)."""
        broker = self.broker(broker_id)
        if not broker.online:
            return
        broker.shutdown()
        self._mark_hosted(broker)
        self.controller.broker_failed(broker_id)

    def restart_broker(self, broker_id: int) -> None:
        """Bring a broker back; it re-syncs before rejoining ISRs.

        A broker is up (``broker.online``) and live (it holds a controller
        session) as two separate facts, and this reconciles them: a broker
        that is up but no longer live (its session expired) re-registers,
        and one that is down but still live (an unclean crash whose session
        never expired) has its session expired before it starts.
        """
        broker = self.broker(broker_id)
        live = broker_id in self.controller.live_brokers()
        if broker.online and live:
            return
        if not broker.online:
            if live:
                self.controller.broker_failed(broker_id)
            broker.startup()
        self._mark_hosted(broker)
        self.controller.broker_recovered(broker_id)

    def _mark_hosted(self, broker: Broker) -> None:
        """A broker went down or came back: every partition it hosts gained
        or lost an online follower (or its leader), so replication looks at
        each of them again."""
        for replica in broker.replicas():
            self.replication.mark(replica.partition)

    def tick(self, dt: float = 0.1) -> ReplicationStats:
        """Advance simulated time and run background work.

        Fires flush timers, runs one pass of the follower replication loop,
        and runs retention/compaction sweeps every ``maintenance_interval``
        seconds.  Returns the replication pass's statistics.
        """
        self.clock.advance(dt)
        stats = self.replication.poll()
        if self.clock.now() - self._last_maintenance >= self.maintenance_interval:
            self._last_maintenance = self.clock.now()
            for broker in self._brokers.values():
                if broker.online:
                    broker.run_retention()
                    broker.run_compaction()
        return stats

    def run_until_replicated(self, max_passes: int = 100) -> int:
        """Tick until every follower is caught up (tests); returns passes."""
        for i in range(max_passes):
            stats = self.tick()
            if stats.messages_copied == 0:
                return i + 1
        return max_passes

    # -- deployment statistics (E10) --------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Deployment-shape statistics comparable to the paper's §5 numbers."""
        live = self.controller.live_brokers()
        partition_count = len(self.controller.partitions())
        replica_count = sum(len(b.replicas()) for b in self._brokers.values())
        stored_bytes = sum(
            r.log.size_bytes for b in self._brokers.values() for r in b.replicas()
        )
        return {
            "brokers": len(self._brokers),
            "live_brokers": len(live),
            "topics": len(self._topics),
            "partitions": partition_count,
            "replicas": replica_count,
            "stored_bytes": stored_bytes,
            "replication_pending": self.replication.pending(),
            "messages_in": self._c_messages_in.value,
            "messages_out": self._c_messages_out.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MessagingCluster(brokers={len(self._brokers)}, "
            f"topics={len(self._topics)})"
        )
