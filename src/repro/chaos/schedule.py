"""Seed-deterministic chaos schedules over a messaging cluster.

A :class:`ChaosSchedule` turns one RNG seed into a timeline of the failures
a 300-broker deployment sees daily (§4.3, §5): broker crashes and restarts
(clean — the session expires immediately — and unclean, where the machine
freezes first and the coordinator only notices later), leadership churn,
replication stalls, transient produce/fetch errors, and retention sweeps
racing consumers.

Every random draw happens at :meth:`install` time, from a private
``random.Random(seed)`` — nothing consults global RNG state or the wall
clock — so the *plan* is a pure function of the seed, and with a
deterministic workload the fired *trace* replays byte-for-byte.  Faults are
applied through the :class:`~repro.common.clock.SimClock` (crashes,
restarts, sweeps) and the failpoint registry (stalls, transient client
errors), and every fired event is appended to the trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import (
    BrokerUnavailableError,
    ConfigError,
    NotLeaderForPartitionError,
)
from repro.chaos.failpoints import FailpointRegistry, raising, registry, skipping


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault: what fires, when, against which target."""

    at: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.at:.3f} {self.kind} {self.detail}"


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of the fault mix; all durations in simulated seconds."""

    horizon: float = 40.0
    min_interval: float = 1.0
    max_interval: float = 3.0
    #: (kind, weight) pairs; weight 0 disables a fault kind.
    weights: tuple[tuple[str, float], ...] = (
        ("crash", 2.0),
        ("unclean_crash", 1.0),
        ("leader_churn", 2.0),
        ("replication_stall", 2.0),
        ("produce_errors", 2.0),
        ("fetch_errors", 2.0),
        ("retention_sweep", 1.0),
    )
    restart_delay: tuple[float, float] = (1.0, 4.0)
    session_expiry_delay: tuple[float, float] = (0.5, 2.0)
    stall_duration: tuple[float, float] = (0.5, 2.5)
    error_burst: tuple[int, int] = (1, 4)
    #: Never crash below this many online brokers (keeps quorums electable).
    min_online_brokers: int = 2

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if not 0 < self.min_interval <= self.max_interval:
            raise ConfigError("need 0 < min_interval <= max_interval")
        if self.min_online_brokers < 1:
            raise ConfigError("min_online_brokers must be >= 1")
        known = {kind for kind, _ in self.weights}
        unknown = known - set(_FAULT_KINDS)
        if unknown:
            raise ConfigError(f"unknown fault kinds: {sorted(unknown)}")


_FAULT_KINDS = (
    "crash",
    "unclean_crash",
    "leader_churn",
    "replication_stall",
    "produce_errors",
    "fetch_errors",
    "retention_sweep",
)


class ChaosSchedule:
    """Plans and applies a seeded fault timeline against one cluster.

    ``topics`` scopes leadership churn; other faults hit the whole cluster.
    Call :meth:`install` once (after creating the topics) to draw the plan
    from the seed and register every fault on the cluster's clock; drive the
    simulation with ``cluster.tick`` as usual, then read :meth:`trace`.
    """

    def __init__(
        self,
        cluster: Any,
        seed: int,
        topics: list[str] | None = None,
        config: ChaosConfig | None = None,
        failpoints: FailpointRegistry | None = None,
    ) -> None:
        self.cluster = cluster
        self.seed = seed
        self.config = config if config is not None else ChaosConfig()
        self.failpoints = failpoints if failpoints is not None else registry()
        self._topics = topics
        self._plan: list[ChaosEvent] = []
        self._trace: list[tuple[float, str]] = []
        self._installed = False
        # Fire-time probability gates draw from a dedicated stream so call
        # order inside a tick cannot perturb the plan stream.
        self._gate_rng = random.Random((seed << 1) ^ 0x5EED)

    # -- planning ----------------------------------------------------------------

    def install(self) -> list[ChaosEvent]:
        """Draw the fault plan from the seed and schedule it on the clock."""
        # Runtime import: storage imports the failpoints beside this module,
        # so messaging (which imports storage) cannot load at import time.
        from repro.messaging.topic import is_system_topic

        if self._installed:
            raise ConfigError("chaos schedule already installed")
        self._installed = True
        rng = random.Random(self.seed)
        cfg = self.config
        topics = self._topics
        if topics is None:
            topics = [t for t in self.cluster.topics() if not is_system_topic(t)]
        broker_ids = sorted(b.broker_id for b in self.cluster.brokers())
        partitions = [
            (topic, tp.partition)
            for topic in sorted(topics)
            for tp in self.cluster.partitions_of(topic)
        ]
        kinds = [kind for kind, weight in cfg.weights if weight > 0]
        weights = [weight for _, weight in cfg.weights if weight > 0]
        now = self.cluster.clock.now()
        t = now
        while True:
            t += rng.uniform(cfg.min_interval, cfg.max_interval)
            if t >= now + cfg.horizon:
                break
            kind = rng.choices(kinds, weights)[0]
            if kind == "crash":
                broker_id = rng.choice(broker_ids)
                back = t + rng.uniform(*cfg.restart_delay)
                self._add(t, "crash", f"broker={broker_id}",
                          self._fire_crash, broker_id)
                self._add(back, "restart", f"broker={broker_id}",
                          self._fire_restart, broker_id)
            elif kind == "unclean_crash":
                broker_id = rng.choice(broker_ids)
                expiry = t + rng.uniform(*cfg.session_expiry_delay)
                back = expiry + rng.uniform(*cfg.restart_delay)
                self._add(t, "unclean_crash", f"broker={broker_id}",
                          self._fire_unclean_crash, broker_id)
                self._add(expiry, "session_expiry", f"broker={broker_id}",
                          self._fire_session_expiry, broker_id)
                self._add(back, "restart", f"broker={broker_id}",
                          self._fire_restart, broker_id)
            elif kind == "leader_churn":
                if not partitions:
                    continue
                topic, partition = rng.choice(partitions)
                back = t + rng.uniform(*cfg.restart_delay)
                self._add(t, "leader_churn", f"{topic}-{partition}",
                          self._fire_leader_churn, topic, partition, back)
            elif kind == "replication_stall":
                duration = rng.uniform(*cfg.stall_duration)
                self._add(t, "replication_stall", f"for={duration:.3f}",
                          self._fire_stall_start)
                self._add(t + duration, "replication_heal", "",
                          self._fire_stall_end)
            elif kind == "produce_errors":
                burst = rng.randint(*cfg.error_burst)
                self._add(t, "produce_errors", f"times={burst}",
                          self._fire_produce_errors, burst)
            elif kind == "fetch_errors":
                burst = rng.randint(*cfg.error_burst)
                self._add(t, "fetch_errors", f"times={burst}",
                          self._fire_fetch_errors, burst)
            elif kind == "retention_sweep":
                self._add(t, "retention_sweep", "",
                          self._fire_retention_sweep)
        self._plan.sort(key=lambda e: e.at)
        return self.plan()

    def _add(
        self, at: float, kind: str, detail: str, fire: Any, *args: Any
    ) -> None:
        event = ChaosEvent(at, kind, detail)
        self._plan.append(event)
        self.cluster.clock.schedule_at(at, self._fire, event, fire, args)

    # -- firing ------------------------------------------------------------------

    def _fire(self, event: ChaosEvent, fire: Any, args: tuple[Any, ...]) -> None:
        outcome = fire(*args)
        label = f"{event.kind} {event.detail}".rstrip()
        if outcome:
            label = f"{label} [{outcome}]"
        self._trace.append((self.cluster.clock.now(), label))

    def _online_brokers(self) -> int:
        return sum(1 for b in self.cluster.brokers() if b.online)

    def _fire_crash(self, broker_id: int) -> str:
        broker = self.cluster.broker(broker_id)
        if not broker.online:
            return "skipped: already offline"
        if self._online_brokers() <= self.config.min_online_brokers:
            return "skipped: min-online"
        self.cluster.kill_broker(broker_id)
        return ""

    def _fire_unclean_crash(self, broker_id: int) -> str:
        broker = self.cluster.broker(broker_id)
        if not broker.online:
            return "skipped: already offline"
        if self._online_brokers() <= self.config.min_online_brokers:
            return "skipped: min-online"
        # The machine freezes: no session expiry yet, the controller still
        # believes the broker is in its ISRs.  This is the window where the
        # acks=all path must shrink the ISR itself (see cluster.py).
        broker.shutdown()
        return ""

    def _fire_session_expiry(self, broker_id: int) -> str:
        broker = self.cluster.broker(broker_id)
        if broker.online:
            return "skipped: broker online"
        if broker_id not in self.cluster.controller.live_brokers():
            return "skipped: already expired"
        self.cluster.controller.broker_failed(broker_id)
        return ""

    def _fire_restart(self, broker_id: int) -> str:
        broker = self.cluster.broker(broker_id)
        if broker.online:
            return "skipped: already online"
        if broker_id in self.cluster.controller.live_brokers():
            # Unclean crash whose session never expired: expire it first so
            # the restart goes through the normal recovery path.
            self.cluster.controller.broker_failed(broker_id)
        self.cluster.restart_broker(broker_id)
        return ""

    def _fire_leader_churn(self, topic: str, partition: int, back: float) -> str:
        leader = self.cluster.leader_of(topic, partition)
        if leader is None:
            return "skipped: offline partition"
        if self._online_brokers() <= self.config.min_online_brokers:
            return "skipped: min-online"
        self.cluster.kill_broker(leader)
        self.cluster.clock.schedule_at(
            back,
            self._fire,
            ChaosEvent(back, "restart", f"broker={leader}"),
            self._fire_restart,
            (leader,),
        )
        return f"killed leader {leader}"

    def _fire_stall_start(self) -> str:
        self.failpoints.arm("replication.sync", skipping)
        return ""

    def _fire_stall_end(self) -> str:
        self.failpoints.disarm("replication.sync")
        return ""

    def _fire_produce_errors(self, burst: int) -> str:
        self.failpoints.arm(
            "cluster.produce",
            raising(lambda: BrokerUnavailableError("chaos: produce dropped")),
            times=burst,
            probability=0.5,
            rng=self._gate_rng,
        )
        return ""

    def _fire_fetch_errors(self, burst: int) -> str:
        self.failpoints.arm(
            "cluster.fetch",
            raising(lambda: NotLeaderForPartitionError("chaos: stale metadata")),
            times=burst,
            probability=0.5,
            rng=self._gate_rng,
        )
        return ""

    def _fire_retention_sweep(self) -> str:
        swept = 0
        for broker in self.cluster.brokers():
            if broker.online:
                swept += broker.run_retention()
        return f"deleted {swept}"

    # -- teardown / introspection --------------------------------------------------

    def heal(self) -> None:
        """Disarm chaos failpoints and bring every broker back online.

        Call after the horizon to let invariant checks run against a healthy
        cluster; pending planned events still fire if time advances further.
        """
        for name in ("replication.sync", "cluster.produce", "cluster.fetch"):
            self.failpoints.disarm(name)
        for broker in self.cluster.brokers():
            if not broker.online:
                if broker.broker_id in self.cluster.controller.live_brokers():
                    self.cluster.controller.broker_failed(broker.broker_id)
                self.cluster.restart_broker(broker.broker_id)

    def plan(self) -> list[str]:
        """The seed-deterministic fault plan (before any cluster feedback)."""
        return [str(event) for event in self._plan]

    def trace(self) -> list[str]:
        """Fired events with outcomes; byte-for-byte replayable per seed."""
        return [f"{at:.3f} {label}" for at, label in self._trace]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChaosSchedule(seed={self.seed}, planned={len(self._plan)}, "
            f"fired={len(self._trace)})"
        )
