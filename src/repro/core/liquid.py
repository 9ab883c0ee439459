"""The Liquid stack: messaging + processing behind one facade (§3).

This is the paper's contribution assembled: a nearline data integration
stack where

* producers publish *source-of-truth feeds* into the messaging layer;
* ETL-like jobs, submitted centrally ("ETL-as-a-service"), derive new feeds
  with recorded lineage;
* back-end systems consume any feed with low latency, rewind by time or by
  annotation, and process incrementally via the offset manager.

A :class:`Liquid` instance owns one messaging cluster, one group
coordinator, a feed registry, a dataflow of submitted jobs, and (optionally)
isolated container hosts for those jobs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable

from repro.common.clock import SimClock
from repro.common.errors import FeedNotFoundError, ReservedTopicError
from repro.common.records import TopicPartition
from repro.messaging.cluster import MessagingCluster
from repro.messaging.config import ConsumerConfig, ProducerConfig
from repro.messaging.consumer import Consumer
from repro.messaging.consumer_group import GroupCoordinator
from repro.messaging.producer import Producer
from repro.messaging.topic import SYSTEM_TOPIC_PREFIX, TopicConfig, is_system_topic
from repro.processing.containers import IsolatedHost, ResourceQuota
from repro.processing.dataflow import Dataflow
from repro.processing.job import JobConfig, JobRunner
from repro.core.access import (
    OP_CREATE,
    OP_READ,
    OP_WRITE,
    AccessController,
    SecureConsumer,
    SecureProducer,
)
from repro.core.annotations import (
    offsets_at_time,
    offsets_committed_before,
    offsets_for_version,
)
from repro.core.feeds import Feed, FeedRegistry
from repro.core.incremental import IncrementalFold


class Liquid:
    """A complete Liquid deployment (one messaging + one processing layer)."""

    def __init__(
        self,
        num_brokers: int = 3,
        clock: SimClock | None = None,
        isolation: bool = True,
        host_cores: int = 8,
        access_control: bool = False,
        **cluster_kwargs: Any,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.cluster = MessagingCluster(
            num_brokers=num_brokers, clock=self.clock, **cluster_kwargs
        )
        self.group_coordinator = GroupCoordinator(self.cluster)
        self.feeds = FeedRegistry()
        self.dataflow = Dataflow(self.cluster)
        self.host = IsolatedHost(cores=host_cores, isolation=isolation)
        self.acl = AccessController(enabled=access_control)
        self._job_quotas: dict[str, ResourceQuota] = {}
        #: Set by :meth:`enable_telemetry`.
        self.telemetry = None

    # -- feeds -------------------------------------------------------------------------

    def create_feed(
        self,
        name: str,
        partitions: int = 1,
        replication_factor: int | None = None,
        principal: str | None = None,
        **topic_kwargs: Any,
    ) -> Feed:
        """Create a source-of-truth feed (topic + registry entry)."""
        if is_system_topic(name):
            raise ReservedTopicError(
                f"feed name {name!r} is reserved: the "
                f"{SYSTEM_TOPIC_PREFIX!r} namespace belongs to system "
                f"feeds (offsets, telemetry)"
            )
        if self.acl.enabled:
            self.acl.authorize(principal, OP_CREATE, name)
        if replication_factor is None:
            replication_factor = min(3, len(self.cluster.brokers()))
        self.cluster.create_topic(
            TopicConfig(
                name=name,
                num_partitions=partitions,
                replication_factor=replication_factor,
                **topic_kwargs,
            )
        )
        return self.feeds.register_source(name)

    def _create_derived_feed(
        self,
        name: str,
        job: JobConfig,
        partitions: int,
        description: str,
        **topic_kwargs: Any,
    ) -> Feed:
        if name not in self.cluster.topics():
            self.cluster.create_topic(
                TopicConfig(
                    name=name,
                    num_partitions=partitions,
                    replication_factor=min(3, len(self.cluster.brokers())),
                    **topic_kwargs,
                )
            )
        return self.feeds.register_derived(
            name,
            produced_by=job.name,
            inputs=list(job.inputs),
            software_version=job.version,
            description=description,
            created_at=self.clock.now(),
        )

    def feed(self, name: str) -> Feed:
        return self.feeds.get(name)

    # -- clients ------------------------------------------------------------------------

    def producer(
        self,
        principal: str | None = None,
        config: ProducerConfig | None = None,
    ):
        """A producer publishing into the stack's feeds.

        Options go in a :class:`~repro.messaging.config.ProducerConfig`.
        With access control enabled, pass the team's ``principal``; writes
        are then checked against its grants.
        """
        producer = Producer(self.cluster, config)
        if self.acl.enabled:
            return SecureProducer(producer, self.acl, principal or "")
        return producer

    def consumer(
        self,
        group: str | None = None,
        principal: str | None = None,
        config: ConsumerConfig | None = None,
    ):
        """A consumer for back-end systems; pass ``group`` for queue semantics.

        Options go in a :class:`~repro.messaging.config.ConsumerConfig`.
        ``group`` may come from either the config or the argument (the
        argument wins if both are given).
        """
        if config is None:
            config = ConsumerConfig()
        if group is not None and config.group != group:
            config = replace(config, group=group)
        consumer = Consumer(
            self.cluster,
            config,
            group_coordinator=self.group_coordinator if config.group else None,
        )
        if self.acl.enabled:
            return SecureConsumer(consumer, self.acl, principal or "")
        return consumer

    # -- ETL-as-a-service (§3.2) ------------------------------------------------------------

    def submit_job(
        self,
        config: JobConfig,
        outputs: Iterable[str] = (),
        output_partitions: int | None = None,
        quota: ResourceQuota | None = None,
        description: str = "",
        principal: str | None = None,
    ) -> JobRunner:
        """Submit an ETL job centrally.

        Inputs must be registered feeds; each output is created as a derived
        feed with lineage.  When a ``quota`` is given the job runs under the
        container host's resource isolation.  With access control enabled
        the submitting ``principal`` needs read grants on every input and
        create grants on every output.
        """
        if self.acl.enabled:
            for topic in config.inputs:
                self.acl.authorize(principal, OP_READ, topic)
            for topic in outputs:
                self.acl.authorize(principal, OP_CREATE, topic)
        for topic in config.inputs:
            if topic not in self.feeds:
                raise FeedNotFoundError(
                    f"job {config.name!r} input {topic!r} is not a registered feed"
                )
        default_partitions = max(
            self.cluster.topic_config(t).num_partitions for t in config.inputs
        )
        for output in outputs:
            self._create_derived_feed(
                output,
                config,
                partitions=output_partitions or default_partitions,
                description=description,
            )
        runner = self.dataflow.add_job(config, outputs=outputs)
        if quota is not None:
            self.host.add_job(runner, quota)
            self._job_quotas[config.name] = quota
        return runner

    def process_available(self, max_rounds: int = 1000) -> int:
        """Run all submitted jobs until every feed is drained."""
        return self.dataflow.run_until_idle(max_rounds)

    def run_isolated_quantum(self, dt: float = 0.1):
        """Advance quota-managed jobs by one scheduling quantum (E8)."""
        return self.host.run_quantum(dt)

    # -- rewindability (§3.1/§4.2) -------------------------------------------------------------

    def rewind_to_time(self, feed: str, timestamp: float) -> dict[TopicPartition, int]:
        """Offsets to replay ``feed`` from wall-clock ``timestamp``."""
        self.feeds.get(feed)
        return offsets_at_time(self.cluster, feed, timestamp)

    def rewind_to_version(
        self, feed: str, group: str, version: str
    ) -> dict[TopicPartition, int | None]:
        """Offsets where ``version`` of ``group`` last checkpointed ``feed``."""
        self.feeds.get(feed)
        return offsets_for_version(self.cluster, group, feed, version)

    def rewind_to_commit_time(
        self, feed: str, group: str, timestamp: float
    ) -> dict[TopicPartition, int | None]:
        """Offsets ``group`` had committed on ``feed`` at ``timestamp``."""
        self.feeds.get(feed)
        return offsets_committed_before(self.cluster, group, feed, timestamp)

    # -- incremental processing (§4.2) -------------------------------------------------------------

    def incremental_fold(
        self, feed: str, group: str, init, fold, version: str = "v1"
    ) -> IncrementalFold:
        """An incrementally-maintained fold over a feed."""
        self.feeds.get(feed)
        return IncrementalFold(
            self.cluster, feed, group, init, fold, version=version
        )

    # -- self-hosted telemetry (§5.1) --------------------------------------------------------------

    def enable_telemetry(
        self,
        interval: float = 5.0,
        tracer=None,
        with_slos: bool = False,
        servers: Iterable = (),
    ):
        """Turn on the self-hosted telemetry pipeline.

        Creates the reserved ``__telemetry.*`` topics, registers them as
        source-of-truth feeds (so monitoring jobs can consume them like any
        other feed — the monitor is just another job), and starts a
        :class:`~repro.observability.telemetry.TelemetryExporter` on the
        sim-clock cadence.  With ``with_slos=True`` the exporter also
        samples the standard SLO signals (freshness, lag, ISR availability,
        standby staleness) from this deployment's jobs each cycle and
        publishes burn-rate alerts.  Jobs submitted *after* this call can
        be watched by appending their runners to
        ``exporter.sampler.runners``.
        """
        from repro.observability.slo import attach_standard_slos
        from repro.observability.telemetry import TELEMETRY_FEEDS, TelemetryExporter

        sampler = None
        monitor = None
        if with_slos:
            monitor, sampler = attach_standard_slos(
                self.cluster,
                runners=self.dataflow.runners(),
                servers=servers,
            )
        exporter = TelemetryExporter(
            self.cluster,
            interval=interval,
            tracer=tracer,
            slo_monitor=monitor,
            sampler=sampler,
        )
        # Register directly with the registry: create_feed refuses the
        # system namespace for users, but these feeds *are* the system's.
        for feed in TELEMETRY_FEEDS:
            if feed not in self.feeds:
                self.feeds.register_source(feed)
        exporter.start()
        self.telemetry = exporter
        return exporter

    # -- operations ------------------------------------------------------------------------------------

    def tick(self, dt: float = 0.1) -> None:
        """Advance time: replication, retention, compaction, flush timers."""
        self.cluster.tick(dt)

    def kill_broker(self, broker_id: int) -> None:
        self.cluster.kill_broker(broker_id)

    def restart_broker(self, broker_id: int) -> None:
        self.cluster.restart_broker(broker_id)

    def stats(self) -> dict[str, Any]:
        """Deployment statistics in the shape of the paper's §5 numbers."""
        stats = self.cluster.stats()
        stats.update(
            {
                "feeds": len(self.feeds),
                "source_feeds": len(self.feeds.sources()),
                "derived_feeds": len(self.feeds.derived()),
                "jobs": len(self.dataflow.runners()),
                "processing_tasks": sum(
                    len(r.tasks()) for r in self.dataflow.runners()
                ),
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Liquid(brokers={len(self.cluster.brokers())}, "
            f"feeds={len(self.feeds)}, jobs={len(self.dataflow.runners())})"
        )
