"""Declarative SLOs with multi-window burn-rate alerting.

The paper's §5.1 operational-analysis use case assumes the system's own
signals are continuously evaluable; Reactive Liquid (arXiv:1902.05968)
makes the same point for elasticity decisions.  This module supplies the
evaluation half: an :class:`Slo` declares an objective over one signal
(end-to-end freshness, consumer lag, ISR availability, standby staleness —
or anything a caller observes), and :class:`SloMonitor` classifies each
observation as good or bad, keeps sliding windows, and fires alerts on the
SRE-style *multi-window burn rate*: the alert fires only when both a short
and a long window burn error budget faster than a threshold, and resolves
with hysteresis so a signal hovering at the boundary cannot flap.

Everything is driven by the deterministic sim clock — same run, same
alerts, byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.observability.health import user_group_lags

#: Alert states.
ALERT_FIRING = "firing"
ALERT_RESOLVED = "resolved"

#: Directions: whether the signal is good when it stays at-or-below the
#: objective (latency-like) or at-or-above it (availability-like).
BELOW = "below"
ABOVE = "above"


@dataclass(frozen=True)
class Slo:
    """One declarative objective over one observed signal.

    ``error_budget`` is the fraction of observations allowed to be bad;
    the *burn rate* of a window is ``bad_fraction / error_budget`` — 1.0
    means budget is being consumed exactly as provisioned, 2.0 means twice
    as fast.  An alert fires when **both** windows burn at or above
    ``burn_threshold`` and resolves only when both drop below
    ``clear_threshold`` (hysteresis).
    """

    name: str
    signal: str                      # human label, e.g. "freshness_seconds"
    objective: float                 # good/bad boundary on the signal value
    direction: str = BELOW           # good when value <= objective (BELOW)
    short_window: float = 30.0       # seconds of sim time
    long_window: float = 300.0
    error_budget: float = 0.01       # allowed bad fraction
    burn_threshold: float = 2.0      # fire when both burns >= this
    clear_threshold: float = 1.0     # resolve when both burns < this

    def __post_init__(self) -> None:
        if self.direction not in (BELOW, ABOVE):
            raise ConfigError(
                f"slo {self.name!r}: direction must be {BELOW!r} or {ABOVE!r}"
            )
        if not 0 < self.error_budget <= 1:
            raise ConfigError(
                f"slo {self.name!r}: error_budget must be in (0, 1]"
            )
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ConfigError(
                f"slo {self.name!r}: need 0 < short_window <= long_window"
            )
        if self.clear_threshold > self.burn_threshold:
            raise ConfigError(
                f"slo {self.name!r}: clear_threshold must not exceed "
                f"burn_threshold (hysteresis band)"
            )

    def is_good(self, value: float) -> bool:
        if self.direction == BELOW:
            return value <= self.objective
        return value >= self.objective


@dataclass(frozen=True)
class Alert:
    """A typed alert record: one edge of one SLO's firing state."""

    slo: str
    signal: str
    state: str                       # ALERT_FIRING | ALERT_RESOLVED
    burn_short: float
    burn_long: float
    timestamp: float
    reason: str


@dataclass(frozen=True)
class SloStatus:
    """Point-in-time view of one SLO for reports."""

    slo: str
    firing: bool
    burn_short: float
    burn_long: float
    samples: int


class _Window:
    """Sliding window of (timestamp, good) samples for one SLO."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: deque[tuple[float, bool]] = deque()

    def append(self, timestamp: float, good: bool) -> None:
        self.samples.append((timestamp, good))

    def prune(self, horizon: float) -> None:
        samples = self.samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    def bad_fraction(self, since: float) -> float:
        total = bad = 0
        for timestamp, good in self.samples:
            if timestamp >= since:
                total += 1
                if not good:
                    bad += 1
        if total == 0:
            # An empty window burns no budget: absence of evidence never
            # fires (and lets a firing alert resolve after a clock jump).
            return 0.0
        return bad / total


class SloMonitor:
    """Registers SLOs, ingests observations, and emits edge-triggered alerts.

    Callers (or :class:`ClusterSloSampler`) push raw signal values via
    :meth:`observe`; :meth:`evaluate` computes both windows' burn rates for
    every SLO and returns the *edges* — an :data:`ALERT_FIRING` alert when a
    quiet SLO starts burning, an :data:`ALERT_RESOLVED` alert when a firing
    one calms down past the hysteresis band.  Steady states emit nothing,
    so the alert feed stays quiet unless something changes.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._slos: dict[str, Slo] = {}
        self._windows: dict[str, _Window] = {}
        self._firing: dict[str, bool] = {}
        self.alerts_emitted = 0

    # -- registration ------------------------------------------------------------

    def register(self, slo: Slo) -> Slo:
        if slo.name in self._slos:
            raise ConfigError(f"slo {slo.name!r} already registered")
        self._slos[slo.name] = slo
        self._windows[slo.name] = _Window()
        self._firing[slo.name] = False
        return slo

    def slos(self) -> list[Slo]:
        return [self._slos[name] for name in sorted(self._slos)]

    def __contains__(self, name: str) -> bool:
        return name in self._slos

    # -- ingestion ---------------------------------------------------------------

    def observe(self, name: str, value: float, timestamp: float | None = None) -> bool:
        """Classify one signal value against its SLO; returns goodness."""
        slo = self._slos.get(name)
        if slo is None:
            raise ConfigError(f"unknown slo {name!r}")
        if timestamp is None:
            timestamp = self.clock.now()
        good = slo.is_good(value)
        self._windows[name].append(timestamp, good)
        return good

    # -- evaluation --------------------------------------------------------------

    def burn_rates(self, name: str, now: float | None = None) -> tuple[float, float]:
        """(short, long) burn-rate multiples for one SLO."""
        slo = self._slos.get(name)
        if slo is None:
            raise ConfigError(f"unknown slo {name!r}")
        if now is None:
            now = self.clock.now()
        window = self._windows[name]
        short = window.bad_fraction(now - slo.short_window) / slo.error_budget
        long = window.bad_fraction(now - slo.long_window) / slo.error_budget
        return short, long

    def evaluate(self, now: float | None = None) -> list[Alert]:
        """Advance every SLO's alert state; return the edges crossed."""
        if now is None:
            now = self.clock.now()
        alerts: list[Alert] = []
        for name in sorted(self._slos):
            slo = self._slos[name]
            window = self._windows[name]
            window.prune(now - slo.long_window)
            short, long = self.burn_rates(name, now)
            firing = self._firing[name]
            if not firing:
                if short >= slo.burn_threshold and long >= slo.burn_threshold:
                    self._firing[name] = True
                    alerts.append(Alert(
                        slo=name,
                        signal=slo.signal,
                        state=ALERT_FIRING,
                        burn_short=short,
                        burn_long=long,
                        timestamp=now,
                        reason=(
                            f"burn {short:.2f}x/{long:.2f}x >= "
                            f"{slo.burn_threshold:.2f}x in both windows"
                        ),
                    ))
            else:
                if short < slo.clear_threshold and long < slo.clear_threshold:
                    self._firing[name] = False
                    alerts.append(Alert(
                        slo=name,
                        signal=slo.signal,
                        state=ALERT_RESOLVED,
                        burn_short=short,
                        burn_long=long,
                        timestamp=now,
                        reason=(
                            f"burn {short:.2f}x/{long:.2f}x < "
                            f"{slo.clear_threshold:.2f}x in both windows"
                        ),
                    ))
        self.alerts_emitted += len(alerts)
        return alerts

    def is_firing(self, name: str) -> bool:
        if name not in self._slos:
            raise ConfigError(f"unknown slo {name!r}")
        return self._firing[name]

    def status(self, now: float | None = None) -> list[SloStatus]:
        if now is None:
            now = self.clock.now()
        out = []
        for name in sorted(self._slos):
            short, long = self.burn_rates(name, now)
            out.append(SloStatus(
                slo=name,
                firing=self._firing[name],
                burn_short=short,
                burn_long=long,
                samples=len(self._windows[name].samples),
            ))
        return out


# -- the standard signal set -----------------------------------------------------

#: Default SLO names wired by :class:`ClusterSloSampler`.
SLO_FRESHNESS = "freshness"
SLO_CONSUMER_LAG = "consumer_lag"
SLO_ISR_AVAILABILITY = "isr_availability"
SLO_STANDBY_STALENESS = "standby_staleness"


def standard_slos(
    *,
    freshness_objective: float = 30.0,
    lag_objective: float = 1000.0,
    staleness_objective: float = 1000.0,
    short_window: float = 30.0,
    long_window: float = 300.0,
    error_budget: float = 0.05,
) -> list[Slo]:
    """The four paper-motivated objectives with sensible defaults."""
    return [
        Slo(
            name=SLO_FRESHNESS,
            signal="freshness_seconds",
            objective=freshness_objective,
            direction=BELOW,
            short_window=short_window,
            long_window=long_window,
            error_budget=error_budget,
        ),
        Slo(
            name=SLO_CONSUMER_LAG,
            signal="total_lag_records",
            objective=lag_objective,
            direction=BELOW,
            short_window=short_window,
            long_window=long_window,
            error_budget=error_budget,
        ),
        Slo(
            name=SLO_ISR_AVAILABILITY,
            signal="in_sync_fraction",
            objective=1.0,
            direction=ABOVE,
            short_window=short_window,
            long_window=long_window,
            error_budget=error_budget,
        ),
        Slo(
            name=SLO_STANDBY_STALENESS,
            signal="standby_lag_records",
            objective=staleness_objective,
            direction=BELOW,
            short_window=short_window,
            long_window=long_window,
            error_budget=error_budget,
        ),
    ]


class ClusterSloSampler:
    """Feeds the standard signals into an :class:`SloMonitor` from live state.

    One call to :meth:`sample` observes, for the wired deployment:

    - **freshness** — each job runner's last processed-record age;
    - **consumer lag** — total lag summed over non-system consumer groups;
    - **ISR availability** — fraction of partitions fully in sync;
    - **standby staleness** — worst standby-replica changelog lag.

    The telemetry exporter calls this on its cadence when given a monitor
    built by :func:`attach_standard_slos`, closing the loop: the system's
    own feeds carry the alerts about the system.
    """

    def __init__(
        self,
        monitor: SloMonitor,
        cluster,
        runners: Iterable = (),
        servers: Iterable = (),
    ) -> None:
        self.monitor = monitor
        self.cluster = cluster
        self.runners = list(runners)
        self.servers = list(servers)
        for slo in standard_slos():
            if slo.name not in monitor:
                monitor.register(slo)

    def sample(self, now: float | None = None) -> None:
        # Runtime import: processing pulls in messaging, and this module
        # stays import-light.
        from repro.processing.recovery import worst_standby_lag

        if now is None:
            now = self.cluster.clock.now()
        monitor = self.monitor
        for runner in self.runners:
            monitor.observe(SLO_FRESHNESS, runner.freshness(), timestamp=now)
        monitor.observe(
            SLO_CONSUMER_LAG, float(self._total_lag()), timestamp=now
        )
        monitor.observe(
            SLO_ISR_AVAILABILITY, self._in_sync_fraction(), timestamp=now
        )
        monitor.observe(
            SLO_STANDBY_STALENESS,
            float(worst_standby_lag(self.runners, self.servers)),
            timestamp=now,
        )

    # -- signal collection -------------------------------------------------------

    def _total_lag(self) -> int:
        return sum(user_group_lags(self.cluster).values())

    def _in_sync_fraction(self) -> float:
        controller = self.cluster.controller
        total = len(controller.partitions())
        if total == 0:
            return 1.0
        behind = len(controller.under_replicated_partitions())
        return (total - behind) / total


def attach_standard_slos(
    cluster,
    runners: Iterable = (),
    servers: Iterable = (),
    monitor: SloMonitor | None = None,
) -> tuple[SloMonitor, ClusterSloSampler]:
    """Convenience: a monitor with the standard SLOs wired to live state."""
    if monitor is None:
        monitor = SloMonitor(cluster.clock)
    sampler = ClusterSloSampler(monitor, cluster, runners=runners, servers=servers)
    return monitor, sampler
