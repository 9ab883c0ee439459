"""Lag and processing-rate observation: the sensor of the elastic loop.

Liquid's §4.4 pitch is ETL-as-a-service with per-job resource isolation;
*Reactive Liquid* (arXiv:1902.05968) argues the missing piece is a feedback
loop that reacts to observed load.  This module is the sensing half of that
loop: a :class:`LagMonitor` derives per-partition consumer lag (how far a
group or job trails the high watermark) and a processing-rate EWMA from
state the stack already maintains — broker end offsets, offset-manager
commits, or a job's live task positions.  Nothing here reads the wall
clock; every sample is stamped with the cluster's simulated clock, so a
monitored run replays deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.common.errors import BrokerUnavailableError, ConfigError
from repro.common.metrics import metric_name, metric_segment
from repro.common.records import TopicPartition


class Ewma:
    """Exponentially-weighted moving average with a fixed smoothing factor.

    The first update seeds the average (no bias-correction warm-up), which
    keeps the arithmetic trivially replayable: the value is a pure function
    of the update sequence.
    """

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: float | None = None

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    @property
    def value(self) -> float:
        """Current average (0.0 before the first update)."""
        return self._value if self._value is not None else 0.0

    @property
    def primed(self) -> bool:
        return self._value is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ewma(alpha={self.alpha}, value={self.value:.6g})"


@dataclass(frozen=True)
class LagSample:
    """One observation of a consumer's standing against its inputs."""

    at: float
    lag_by_partition: Mapping[TopicPartition, int] = field(default_factory=dict)
    #: Smoothed processing rate, records per simulated second.
    rate: float = 0.0

    @property
    def total_lag(self) -> int:
        return sum(self.lag_by_partition.values())

    @property
    def max_partition_lag(self) -> int:
        return max(self.lag_by_partition.values(), default=0)


class LagMonitor:
    """Derives lag and rate EWMAs for one consumer group or job.

    ``positions`` supplies the consumer's live positions per partition; the
    default reads the group's committed offsets from the offset manager
    (the durable view an external autoscaler would see).  The elastic job
    controller instead passes the runner's in-memory task positions via
    :meth:`for_job`, which reacts a checkpoint-interval earlier.

    Partitions that are momentarily offline (leader election in flight)
    reuse their last observed lag rather than dropping out of the sample —
    a control loop must not mistake a failover blip for a drained backlog.
    """

    def __init__(
        self,
        cluster: Any,
        group: str,
        topics: list[str] | tuple[str, ...],
        alpha: float = 0.3,
        positions: Callable[[], Mapping[TopicPartition, int]] | None = None,
    ) -> None:
        if not topics:
            raise ConfigError("LagMonitor needs at least one topic")
        self.cluster = cluster
        self.group = group
        self.topics = list(topics)
        self.rate_ewma = Ewma(alpha)
        self._positions = positions
        self._last_at: float | None = None
        self._last_consumed: int | None = None
        self._last_lag: dict[TopicPartition, int] = {}
        segment = metric_segment(group)
        self._g_lag = cluster.metrics.gauge(
            metric_name("elasticity", "lag_monitor", segment, "lag")
        )
        self._g_rate = cluster.metrics.gauge(
            metric_name("elasticity", "lag_monitor", segment, "rate")
        )

    @classmethod
    def for_job(cls, runner: Any, alpha: float = 0.3) -> "LagMonitor":
        """Monitor a :class:`~repro.processing.job.JobRunner`'s live positions."""

        def positions() -> dict[TopicPartition, int]:
            merged: dict[TopicPartition, int] = {}
            for instance in runner.tasks():
                merged.update(instance.reader.positions)
            return merged

        return cls(
            runner.cluster,
            runner.checkpoints.group,
            list(runner.config.inputs),
            alpha=alpha,
            positions=positions,
        )

    # -- sampling ------------------------------------------------------------------

    def _current_positions(self) -> Mapping[TopicPartition, int]:
        if self._positions is not None:
            return self._positions()
        committed: dict[TopicPartition, int] = {}
        for topic in self.topics:
            for tp in self.cluster.partitions_of(topic):
                commit = self.cluster.offset_manager.fetch(self.group, tp)
                if commit is not None:
                    committed[tp] = commit.offset
        return committed

    def observe(self) -> LagSample:
        """Take one sample at the current simulated instant.

        The rate EWMA is fed with (position advance / elapsed time) between
        consecutive samples; two samples at the same instant feed nothing.
        """
        # Let in-flight replication advance high watermarks first, so the
        # observed end offsets reflect everything readable right now.
        self.cluster.tick(0.0)
        now = self.cluster.clock.now()
        positions = self._current_positions()
        lag: dict[TopicPartition, int] = {}
        consumed_total = 0
        for topic in self.topics:
            for tp in self.cluster.partitions_of(topic):
                position = positions.get(tp)
                try:
                    end = self.cluster.end_offset(tp)
                except BrokerUnavailableError:
                    # Failover in flight: hold the last known lag steady.
                    lag[tp] = self._last_lag.get(tp, 0)
                    if position is not None:
                        consumed_total += position
                    continue
                if position is None:
                    # Never consumed: the whole readable range is lag.
                    begin = self.cluster.beginning_offset(tp)
                    lag[tp] = max(0, end - begin)
                else:
                    lag[tp] = max(0, end - position)
                    consumed_total += position
        if self._last_at is not None and self._last_consumed is not None:
            elapsed = now - self._last_at
            if elapsed > 0:
                advanced = max(0, consumed_total - self._last_consumed)
                self.rate_ewma.update(advanced / elapsed)
        self._last_at = now
        self._last_consumed = consumed_total
        self._last_lag = lag
        sample = LagSample(at=now, lag_by_partition=dict(lag),
                           rate=self.rate_ewma.value)
        self._g_lag.set(float(sample.total_lag))
        self._g_rate.set(sample.rate)
        return sample

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LagMonitor(group={self.group!r}, topics={self.topics}, "
            f"rate={self.rate_ewma.value:.3f})"
        )
