"""The elastic resource controller: closing the loop from load to capacity.

Liquid's processing layer runs jobs in resource-isolated containers (§3.2,
§4.4), but the reproduction — like the paper — provisions a job's
parallelism once, at submission.  :class:`ElasticJobController` closes the
loop *Reactive Liquid* (arXiv:1902.05968) calls for: it observes consumer
lag through a :class:`~repro.elasticity.lagmonitor.LagMonitor`, asks a
:class:`~repro.elasticity.policy.ScalingPolicy` for a verdict, and
grows/shrinks the number of task containers accordingly.

The capacity model mirrors :class:`~repro.processing.containers.IsolatedHost`:
each container contributes ``quantum / cpu_cost`` messages of processing
budget per scheduling quantum, so provisioned containers translate directly
into simulated drain rate.  A job's *tasks* stay fixed (task *i* owns
partition *i* — the paper's parallelism unit); what scales is how many
containers host them.  Task→container placement is sticky: a scale event
moves only the tasks needed to rebalance, and each moved task is restarted
through the existing changelog-recovery machinery at a checkpoint boundary
(checkpoint first, then migrate), so the job's output is byte-identical to
a run at any fixed parallelism — elasticity changes *when* records are
processed, never *what* is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.metrics import metric_name, metric_segment
from repro.elasticity.lagmonitor import LagMonitor, LagSample
from repro.elasticity.policy import (
    SCALE_IN,
    SCALE_OUT,
    ScalingDecision,
    ScalingPolicy,
)
from repro.observability.trace import current_tracer
from repro.processing.job import JobRunner, PollResult


@dataclass(frozen=True)
class ScaleEvent:
    """One applied scale event, for timelines and reports."""

    at: float
    action: str                   # SCALE_OUT / SCALE_IN
    from_containers: int
    to_containers: int
    migrated_tasks: tuple[int, ...]
    reason: str
    migration_seconds: float = 0.0

    def __str__(self) -> str:
        arrow = f"{self.from_containers}->{self.to_containers}"
        moved = ",".join(str(t) for t in self.migrated_tasks) or "-"
        return (
            f"{self.at:.3f} {self.action} containers={arrow} "
            f"moved=[{moved}] ({self.reason})"
        )


@dataclass
class StepReport:
    """Outcome of one controller step (one scheduling quantum)."""

    poll: PollResult
    sample: LagSample
    decision: ScalingDecision
    event: ScaleEvent | None = None
    containers: int = 0


class ElasticJobController:
    """Runs one job under lag-driven elastic container provisioning."""

    def __init__(
        self,
        runner: JobRunner,
        policy: ScalingPolicy | None = None,
        *,
        quantum: float = 0.25,
        monitor: LagMonitor | None = None,
        alpha: float = 0.3,
    ) -> None:
        if quantum <= 0:
            raise ConfigError("quantum must be > 0")
        self.runner = runner
        self.policy = policy if policy is not None else ScalingPolicy()
        self.quantum = quantum
        self.monitor = (
            monitor if monitor is not None else LagMonitor.for_job(runner, alpha)
        )
        self.clock = runner.clock
        # The controller owns time: containers process in parallel inside a
        # quantum, so per-pass latencies must not be serialized onto the
        # clock the way a standalone poll_once would.
        runner.auto_advance_clock = False
        self.containers = min(self.policy.min_containers, runner.num_tasks)
        self._container_of: dict[int, int] = {}
        self._rebalance_containers(self.containers)
        self.events: list[ScaleEvent] = []
        self.steps = 0
        segment = metric_segment(runner.config.name)
        metrics = runner.cluster.metrics
        self._g_containers = metrics.gauge(
            metric_name("elasticity", "controller", segment, "containers")
        )
        self._c_scale_outs = metrics.counter(
            metric_name("elasticity", "controller", segment, "scale_outs")
        )
        self._c_scale_ins = metrics.counter(
            metric_name("elasticity", "controller", segment, "scale_ins")
        )
        self._c_migrations = metrics.counter(
            metric_name("elasticity", "controller", segment, "task_migrations")
        )
        self._c_promotions = metrics.counter(
            metric_name("elasticity", "controller", segment, "standby_promotions")
        )
        self._g_containers.set(float(self.containers))

    # -- placement -------------------------------------------------------------------

    def assignment(self) -> dict[int, list[int]]:
        """Current container -> task ids placement (sorted both ways)."""
        placement: dict[int, list[int]] = {c: [] for c in range(self.containers)}
        for task_id in sorted(self._container_of):
            placement[self._container_of[task_id]].append(task_id)
        return placement

    def _rebalance_containers(self, count: int) -> list[int]:
        """Sticky re-placement of tasks onto ``count`` containers.

        Keeps every task on its current container when that container
        survives and is not over its target share; only the minimum set of
        tasks moves.  Returns the moved task ids (sorted).
        """
        tasks = list(range(self.runner.num_tasks))
        per = len(tasks) // count
        extra = len(tasks) % count
        target = {c: per + (1 if c < extra else 0) for c in range(count)}
        kept: dict[int, list[int]] = {c: [] for c in range(count)}
        moved: list[int] = []
        for task_id in tasks:
            container = self._container_of.get(task_id)
            if (
                container is not None
                and container < count
                and len(kept[container]) < target[container]
            ):
                kept[container].append(task_id)
            else:
                moved.append(task_id)
        for task_id in moved:
            for container in range(count):
                if len(kept[container]) < target[container]:
                    kept[container].append(task_id)
                    self._container_of[task_id] = container
                    break
        for container, task_ids in kept.items():
            for task_id in task_ids:
                self._container_of[task_id] = container
        return sorted(moved)

    # -- the control loop ------------------------------------------------------------

    def step(self, dt: float | None = None) -> StepReport:
        """One scheduling quantum: poll, observe, decide, (maybe) scale.

        Each container gets ``dt / cpu_cost`` messages of budget and its
        tasks drain it in task order; the clock then advances by ``dt`` once
        — containers run in parallel, so more containers mean more records
        per simulated second.  Scale events apply at the checkpoint boundary
        *after* the quantum's processing.
        """
        dt = dt if dt is not None else self.quantum
        budget = max(1, int(dt / self.runner.cpu_cost))
        poll = PollResult()
        for container, task_ids in sorted(self.assignment().items()):
            if not task_ids:
                continue
            result = self.runner.poll_tasks(task_ids, max_messages=budget)
            poll.records_processed += result.records_processed
            poll.records_emitted += result.records_emitted
            poll.latency += result.latency
        self.clock.advance(dt)
        self.steps += 1
        sample = self.monitor.observe()
        decision = self.policy.decide(self.containers, sample, self.clock.now())
        event = self._apply(decision) if decision.is_scale else None
        return StepReport(poll, sample, decision, event, self.containers)

    def _apply(self, decision: ScalingDecision) -> ScaleEvent:
        """Apply a scale decision at a checkpoint boundary.

        Order matters for the byte-identical guarantee: checkpoint every
        task first (so a migrated task resumes exactly where it stopped),
        then re-place and restart the moved tasks from their changelogs.
        """
        self.runner.checkpoint()
        self.containers = decision.to_containers
        moved = self._rebalance_containers(self.containers)
        migration_seconds = 0.0
        promotions = 0
        for task_id in moved:
            report = self.runner.migrate_task(task_id)
            migration_seconds += report.simulated_seconds
            # Jobs with standby replicas restart moved tasks off a warm
            # copy — the migration pays only the changelog catch-up tail.
            promotions += report.standby_promotions()
        if migration_seconds:
            self.clock.advance(migration_seconds)
        event = ScaleEvent(
            at=decision.at,
            action=decision.action,
            from_containers=decision.from_containers,
            to_containers=decision.to_containers,
            migrated_tasks=tuple(moved),
            reason=decision.reason,
            migration_seconds=migration_seconds,
        )
        self.events.append(event)
        self._g_containers.set(float(self.containers))
        if decision.action == SCALE_OUT:
            self._c_scale_outs.increment(1)
        elif decision.action == SCALE_IN:
            self._c_scale_ins.increment(1)
        self._c_migrations.increment(len(moved))
        if promotions:
            self._c_promotions.increment(promotions)
        tracer = current_tracer()
        if tracer is not None:
            span = tracer.open_span(
                "elasticity.scale",
                None,
                start=decision.at,
                job=self.runner.config.name,
                action=decision.action,
                from_containers=decision.from_containers,
                to_containers=decision.to_containers,
                migrated_tasks=list(moved),
                reason=decision.reason,
            )
            if span is not None:
                tracer.close(span, end=self.clock.now())
        return event

    def run_until_drained(
        self, max_steps: int = 10_000, settle_steps: int = 1
    ) -> list[StepReport]:
        """Step until the job's backlog stays empty; returns all reports.

        ``settle_steps`` extra quanta run after the backlog first hits zero
        so replication/commits settle and scale-in gets a chance to trigger
        under the emptied lag signal.
        """
        reports: list[StepReport] = []
        settled = 0
        for _ in range(max_steps):
            report = self.step()
            reports.append(report)
            if self.runner.backlog() == 0 and report.poll.records_processed == 0:
                settled += 1
                if settled > settle_steps:
                    return reports
            else:
                settled = 0
        raise ConfigError(
            f"job {self.runner.config.name!r} did not drain within "
            f"{max_steps} quanta"
        )

    def timeline(self) -> list[str]:
        """Human-readable scale-event timeline (deterministic per run)."""
        return [str(event) for event in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ElasticJobController({self.runner.config.name!r}, "
            f"containers={self.containers}, events={len(self.events)})"
        )
