"""Operational inspection: the "Engineer Terminal" of Figure 1.

Figure 1 shows engineers interacting with the Liquid stack directly, and
§5.1's operational-analysis use case describes "an internal service
[presenting] a range of business, operational and user metrics ... that help
different teams understand the current infrastructure status."

:class:`AdminClient` is that surface for this reproduction: structured
descriptions of brokers, topics, partitions (leader/ISR/offsets), consumer
groups (positions + lag), open transactions and traced stage latencies.
The health verdict built from these views is the observability layer's
``evaluate_cluster_health``, which imports this module (never the other
way round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.metrics import metric_name
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster

# Compression / prefetch observability surfaced by describe_cluster.
_M_COMPRESSION_RATIO = metric_name("messaging", "producer", "compression_ratio")
_M_BYTES_SAVED = metric_name("messaging", "broker", "bytes_saved")
_M_WIRE_BYTES = metric_name("messaging", "cluster", "bytes_on_wire")
_M_PREFETCH_HITS = metric_name("messaging", "consumer", "prefetch_hits")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.trace import Tracer


@dataclass
class PartitionInfo:
    """Operational view of one partition."""

    partition: TopicPartition
    leader: int | None
    replicas: list[int]
    isr: list[int]
    epoch: int
    log_start_offset: int
    high_watermark: int
    log_end_offset: int
    #: Tiered-storage stats on the leader (None for untiered partitions):
    #: archived bytes/segments, earliest archived offset, cold-hit ratio.
    tiered: dict[str, Any] | None = None

    @property
    def online(self) -> bool:
        return self.leader is not None

    @property
    def under_replicated(self) -> bool:
        return len(self.isr) < len(self.replicas)

    @property
    def archived_bytes(self) -> int:
        return self.tiered["archived_bytes"] if self.tiered else 0

    @property
    def cold_hit_ratio(self) -> float | None:
        return self.tiered["cold_hit_ratio"] if self.tiered else None


# ---------------------------------------------------------------------------
# Typed admin reports
#
# Every report method returns one of these frozen dataclasses
# (``dataclasses.asdict`` serves callers that want plain dicts).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionLag:
    """One consumer group's standing on one partition."""

    topic: str
    partition: int
    committed_offset: int
    end_offset: int
    lag: int


@dataclass(frozen=True)
class GroupLagReport:
    """Lag standings and smoothed consumption rate of one consumer group."""

    group: str
    partitions: tuple[PartitionLag, ...]
    consumption_rate: float

    @property
    def total_lag(self) -> int:
        return sum(p.lag for p in self.partitions)


@dataclass(frozen=True)
class ConsumerLagReport:
    """Lag standings of every known consumer group."""

    groups: tuple[GroupLagReport, ...]

    def group(self, name: str) -> GroupLagReport:
        for entry in self.groups:
            if entry.group == name:
                return entry
        raise KeyError(
            f"unknown group {name!r}; known: {[g.group for g in self.groups]}"
        )


@dataclass(frozen=True)
class OpenTransaction:
    """The coordinator's view of one still-open transaction."""

    transactional_id: str
    producer_id: int
    epoch: int
    partitions: tuple[str, ...]
    pending_offsets: int
    decided: str | None


@dataclass(frozen=True)
class TransactionReport:
    """Open transactions, the LSO lag they impose, lifecycle counters."""

    open_transactions: tuple[OpenTransaction, ...]
    #: ``str(TopicPartition) -> high_watermark - last_stable_offset`` for
    #: every partition where an open transaction holds records back.
    lso_lag: dict[str, int]
    #: ``messaging.transactions.*`` counter values, keyed by short name.
    counters: dict[str, float]


@dataclass(frozen=True)
class StageLatency:
    """Latency percentiles of one traced stage."""

    stage: str
    count: int
    p50: float
    p99: float


@dataclass(frozen=True)
class StageLatencyReport:
    """Per-stage latency percentiles from the tracing layer's spans."""

    stages: tuple[StageLatency, ...]

    def stage(self, name: str) -> StageLatency:
        for entry in self.stages:
            if entry.stage == name:
                return entry
        raise KeyError(
            f"unknown stage {name!r}; known: {[s.stage for s in self.stages]}"
        )

    def __bool__(self) -> bool:
        return bool(self.stages)


class AdminClient:
    """Read-only operational views over a messaging cluster."""

    def __init__(self, cluster: MessagingCluster) -> None:
        self.cluster = cluster

    # -- cluster / topics -----------------------------------------------------------

    def describe_cluster(self) -> dict[str, Any]:
        stats = self.cluster.stats()
        stats["controller"] = self.cluster.controller.controller_id
        stats["offline_partitions"] = len(
            self.cluster.controller.offline_partitions()
        )
        stats["compression"] = self.compression_stats()
        return stats

    def compression_stats(self) -> dict[str, float]:
        """Batch-compression and prefetch effectiveness, cluster-wide.

        ``mean_compression_ratio`` is logical/wire averaged over produced
        frames (0.0 until a compressing producer has flushed);
        ``bytes_saved`` the cumulative wire/storage bytes compression
        avoided; ``bytes_on_wire`` every physical byte the simulated network
        moved; ``prefetch_hits`` polls served from a fetch issued ahead of
        demand.
        """
        metrics = self.cluster.metrics

        def value(name: str) -> float:
            # A reader creates nothing: an instrument no component has
            # made yet reads 0.
            instrument = metrics.get(name)
            return 0.0 if instrument is None else instrument.value

        ratio = metrics.get(_M_COMPRESSION_RATIO)
        count = 0 if ratio is None else ratio.count
        return {
            "mean_compression_ratio": ratio.mean if count else 0.0,
            "compressed_batches": float(count),
            "bytes_saved": value(_M_BYTES_SAVED),
            "bytes_on_wire": value(_M_WIRE_BYTES),
            "prefetch_hits": value(_M_PREFETCH_HITS),
        }

    def describe_topic(self, topic: str) -> list[PartitionInfo]:
        config = self.cluster.topic_config(topic)  # raises if unknown
        infos = []
        for tp in self.cluster.partitions_of(topic):
            state = self.cluster.controller.partition_state(tp)
            tiered = None
            if state.leader is not None:
                replica = self.cluster.broker(state.leader).replica(tp)
                log_start = replica.log.log_start_offset
                hw = replica.high_watermark
                leo = replica.log_end_offset
                if replica.cold_tier is not None:
                    tiered = replica.cold_tier.stats()
            else:
                log_start = hw = leo = 0
            infos.append(
                PartitionInfo(
                    partition=tp,
                    leader=state.leader,
                    replicas=list(state.replicas),
                    isr=list(state.isr),
                    epoch=state.epoch,
                    log_start_offset=log_start,
                    high_watermark=hw,
                    log_end_offset=leo,
                    tiered=tiered,
                )
            )
        assert config is not None
        return infos

    def under_replicated_partitions(self) -> list[TopicPartition]:
        return self.cluster.controller.under_replicated_partitions()

    # -- consumer groups -----------------------------------------------------------------

    def consumer_lag_report(self, alpha: float = 0.3) -> ConsumerLagReport:
        """Per-group lag standings with smoothed consumption rates.

        For every known group: per-partition committed offset, end offset
        (the high watermark) and lag, plus an EWMA consumption rate
        (records per simulated second, smoothing factor ``alpha``) derived
        from the offset manager's commit history — the operator view of the
        signal the elasticity layer's autoscaler acts on.  A partition with
        no leader has no high watermark to measure against and is left out;
        the health rollup reports it as offline.  Returns a typed
        :class:`ConsumerLagReport`.
        """
        from repro.elasticity.lagmonitor import Ewma

        cluster = self.cluster
        manager = cluster.offset_manager
        groups: list[GroupLagReport] = []
        for group in sorted(manager.groups()):
            partitions: list[PartitionLag] = []
            rate_ewma = Ewma(alpha)
            commits = manager.fetch_group(group)
            for tp in sorted(commits, key=str):
                if cluster.controller.leader_for(tp) is None:
                    continue
                committed = commits[tp].offset
                end = cluster.end_offset(tp)
                for elapsed, advanced in manager.consumption_deltas(group, tp):
                    rate_ewma.update(advanced / elapsed)
                partitions.append(
                    PartitionLag(
                        topic=tp.topic,
                        partition=tp.partition,
                        committed_offset=committed,
                        end_offset=end,
                        lag=max(0, end - committed),
                    )
                )
            groups.append(
                GroupLagReport(
                    group=group,
                    partitions=tuple(partitions),
                    consumption_rate=rate_ewma.value,
                )
            )
        return ConsumerLagReport(groups=tuple(groups))

    # -- transactions -------------------------------------------------------------------------------

    def transaction_report(self) -> TransactionReport:
        """Open transactions and the LSO lag they impose, per partition.

        ``open_transactions`` is the coordinator's view (id, producer id,
        epoch, touched partitions, staged offset count); ``lso_lag`` maps
        every partition whose last stable offset trails its high watermark —
        records a ``read_committed`` consumer cannot see yet because an
        open transaction holds them back.  Lifecycle counters come from the
        ``messaging.transactions.*`` instruments.  Returns a typed
        :class:`TransactionReport`.  Reading creates nothing: before any
        transactional client there is no coordinator, no open transaction
        and no counter.
        """
        from repro.messaging.transactions import find_transaction_coordinator

        coordinator = find_transaction_coordinator(self.cluster)
        lso_lag: dict[str, int] = {}
        for topic in self.cluster.topics():
            for tp in self.cluster.partitions_of(topic):
                state = self.cluster.controller.partition_state(tp)
                if state.leader is None:
                    continue
                replica = self.cluster.broker(state.leader).replica(tp)
                lag = replica.high_watermark - replica.last_stable_offset
                if lag > 0:
                    lso_lag[str(tp)] = lag
        open_transactions = (
            [] if coordinator is None else coordinator.open_transactions()
        )
        metrics = self.cluster.metrics
        counters = {
            name.rsplit(".", 1)[-1]: metrics.get(name).value
            for name in metrics.names()
            if name.startswith("messaging.transactions.")
        }
        return TransactionReport(
            open_transactions=tuple(
                OpenTransaction(
                    transactional_id=txn["transactional_id"],
                    producer_id=txn["producer_id"],
                    epoch=txn["epoch"],
                    partitions=tuple(txn["partitions"]),
                    pending_offsets=txn["pending_offsets"],
                    decided=txn["decided"],
                )
                for txn in open_transactions
            ),
            lso_lag=dict(sorted(lso_lag.items())),
            counters=counters,
        )

    # -- tracing ------------------------------------------------------------------------------------

    def stage_latency_report(
        self, tracer: "Tracer | None" = None
    ) -> StageLatencyReport:
        """Per-stage latency percentiles from the tracing layer's spans.

        Groups the tracer's retained spans by stage name and reports
        count/p50/p99 simulated seconds for each — the per-record complement
        to the aggregate ``*_latency`` histograms in the metrics registry.
        Uses the installed tracer when none is passed; the report is empty
        (falsy) when tracing is off or nothing was retained.  Returns a
        typed :class:`StageLatencyReport`.
        """
        from repro.common.metrics import Histogram
        from repro.observability.trace import current_tracer

        tracer = tracer if tracer is not None else current_tracer()
        if tracer is None:
            return StageLatencyReport(stages=())
        by_stage: dict[str, Histogram] = {}
        for span in tracer.spans():
            histogram = by_stage.get(span.name)
            if histogram is None:
                histogram = by_stage[span.name] = Histogram(span.name)
            histogram.observe(span.duration)
        return StageLatencyReport(
            stages=tuple(
                StageLatency(
                    stage=name,
                    count=histogram.count,
                    p50=histogram.percentile(50),
                    p99=histogram.percentile(99),
                )
                for name, histogram in sorted(by_stage.items())
            )
        )

    # -- rendering ---------------------------------------------------------------------------------

    def format_topic(self, topic: str) -> str:
        """Human-readable one-screen description of a topic."""
        lines = [f"Topic: {topic}"]
        for info in self.describe_topic(topic):
            state = "ONLINE" if info.online else "OFFLINE"
            flag = " UNDER-REPLICATED" if info.under_replicated else ""
            lines.append(
                f"  partition {info.partition.partition}: leader={info.leader} "
                f"isr={info.isr} epoch={info.epoch} "
                f"offsets=[{info.log_start_offset}..{info.high_watermark}"
                f"/{info.log_end_offset}] {state}{flag}"
            )
            if info.tiered is not None:
                ratio = info.cold_hit_ratio
                ratio_str = f"{ratio:.2f}" if ratio is not None else "n/a"
                lines.append(
                    f"    tiered: archived={info.tiered['archived_segments']} "
                    f"segments/{info.archived_bytes}B "
                    f"range=[{info.tiered['archived_start_offset']}.."
                    f"{info.tiered['archived_end_offset']}) "
                    f"cold_hit_ratio={ratio_str}"
                )
        return "\n".join(lines)
