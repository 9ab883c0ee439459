"""Resource isolation: ETL-as-a-service (§3.2, §4.4).

"To isolate resources on a per-job basis, the processing layer can use
standard resource isolation mechanisms such as container-based OS isolation
... restricting the memory and CPU resources of each job."

:class:`IsolatedHost` simulates one worker machine running several jobs.
Each scheduling quantum it divides the machine's CPU seconds among the
hosted jobs:

* **isolation on** (cgroup-like): each job gets at most its CPU quota, so a
  runaway "hog" cannot take the victim's share;
* **isolation off** (the pre-Liquid shared sub-systems of §5.1): capacity is
  split proportionally to demand, so a hog with a huge backlog starves
  well-behaved neighbours — exactly the failure mode the paper's data
  cleaning teams suffered.

Memory quotas bound state-store size; enforcement is either ``hard``
(raise :class:`~repro.common.errors.QuotaExceededError`, the OOM-kill
analogue) or ``soft`` (count violations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError, QuotaExceededError
from repro.processing.job import JobRunner


@dataclass(frozen=True)
class ResourceQuota:
    """Per-job resource limits."""

    cpu_cores: float = 1.0
    memory_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.cpu_cores <= 0:
            raise ConfigError("cpu_cores must be > 0")
        if self.memory_bytes <= 0:
            raise ConfigError("memory_bytes must be > 0")


@dataclass
class QuantumReport:
    """Per-quantum scheduling outcome."""

    allocations: dict[str, float]         # job -> cpu seconds granted
    processed: dict[str, int]             # job -> records processed
    memory_violations: dict[str, int]     # job -> bytes over quota


class _HostedJob:
    __slots__ = ("runner", "quota", "memory_violations")

    def __init__(self, runner: JobRunner, quota: ResourceQuota) -> None:
        self.runner = runner
        self.quota = quota
        self.memory_violations = 0


class IsolatedHost:
    """One machine's CPU/memory shared by several jobs."""

    def __init__(
        self,
        cores: int = 4,
        isolation: bool = True,
        memory_enforcement: str = "soft",
    ) -> None:
        if cores <= 0:
            raise ConfigError("cores must be > 0")
        if memory_enforcement not in ("soft", "hard"):
            raise ConfigError("memory_enforcement must be 'soft' or 'hard'")
        self.cores = cores
        self.isolation = isolation
        self.memory_enforcement = memory_enforcement
        self._jobs: dict[str, _HostedJob] = {}

    def add_job(self, runner: JobRunner, quota: ResourceQuota) -> None:
        name = runner.config.name
        if name in self._jobs:
            raise ConfigError(f"job {name!r} already hosted")
        if self.isolation:
            total = sum(j.quota.cpu_cores for j in self._jobs.values())
            if total + quota.cpu_cores > self.cores:
                raise ConfigError(
                    f"cpu over-commit: {total + quota.cpu_cores} > {self.cores} "
                    "cores (isolation requires reservations to fit)"
                )
        self._jobs[name] = _HostedJob(runner, quota)

    # -- scheduling -------------------------------------------------------------------

    def run_quantum(self, dt: float = 0.1) -> QuantumReport:
        """Schedule one quantum of ``dt`` seconds across hosted jobs.

        A job's CPU *demand* is the time needed to drain its current backlog.
        The allocation policy (isolated vs. shared) converts demand into a
        message budget for :meth:`JobRunner.poll_once`.
        """
        capacity = self.cores * dt
        demands: dict[str, float] = {}
        for name, hosted in self._jobs.items():
            backlog = hosted.runner.backlog()
            demands[name] = backlog * hosted.runner.cpu_cost
        allocations = self._allocate(demands, capacity, dt)
        processed: dict[str, int] = {}
        violations: dict[str, int] = {}
        for name, hosted in self._jobs.items():
            budget_msgs = int(allocations[name] / hosted.runner.cpu_cost)
            if budget_msgs > 0:
                # Jobs poll without advancing the shared clock themselves;
                # the host advances it once per quantum below.
                was_auto = hosted.runner.auto_advance_clock
                hosted.runner.auto_advance_clock = False
                result = hosted.runner.poll_once(max_messages=budget_msgs)
                hosted.runner.auto_advance_clock = was_auto
                processed[name] = result.records_processed
            else:
                processed[name] = 0
            violations[name] = self._check_memory(hosted)
        self._advance_clock(dt)
        return QuantumReport(allocations, processed, violations)

    def _allocate(
        self, demands: dict[str, float], capacity: float, dt: float
    ) -> dict[str, float]:
        if self.isolation:
            # Hard reservations: a job gets at most quota*dt, guaranteed.
            return {
                name: min(demands[name], self._jobs[name].quota.cpu_cores * dt)
                for name in demands
            }
        total_demand = sum(demands.values())
        if total_demand <= capacity or total_demand == 0:
            return dict(demands)
        # Contention without isolation: proportional to demand, so the
        # biggest backlog (the hog) wins.
        return {
            name: capacity * demand / total_demand
            for name, demand in demands.items()
        }

    def _check_memory(self, hosted: _HostedJob) -> int:
        used = hosted.runner.state_size_bytes()
        over = max(0, used - hosted.quota.memory_bytes)
        if over:
            hosted.memory_violations += 1
            if self.memory_enforcement == "hard":
                raise QuotaExceededError(
                    f"job {hosted.runner.config.name!r} uses {used}B of state, "
                    f"quota {hosted.quota.memory_bytes}B"
                )
        return over

    def _advance_clock(self, dt: float) -> None:
        clock = next(iter(self._jobs.values())).runner.clock if self._jobs else None
        if clock is not None:
            clock.advance(dt)

    # -- introspection -------------------------------------------------------------------

    def jobs(self) -> list[str]:
        return sorted(self._jobs)

    def memory_violations(self, name: str) -> int:
        return self._jobs[name].memory_violations

    def memory_ratio(self, name: str) -> float:
        """Fraction of a hosted job's memory quota currently in use.

        The pressure signal a :class:`~repro.elasticity.backpressure.BackpressureValve`
        watches: >= 1.0 means the job is at/over its quota.
        """
        hosted = self._jobs[name]
        return hosted.runner.state_size_bytes() / hosted.quota.memory_bytes

    def run_quanta(self, n: int, dt: float = 0.1) -> list[QuantumReport]:
        return [self.run_quantum(dt) for _ in range(n)]
