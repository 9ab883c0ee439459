"""Simulated time for deterministic benchmarks and tests.

Every latency-sensitive component in the reproduction charges costs against a
:class:`SimClock` instead of reading the wall clock.  This gives three
properties the paper's evaluation environment cannot:

* **Determinism** — the same seed and workload produce identical latency
  numbers on any machine, so EXPERIMENTS.md is reproducible.
* **Speed** — simulating a 10-second retention timeout takes microseconds.
* **Precision** — failure injection can kill a broker at an exact instant
  between two produces.

The clock doubles as an event scheduler (like a single-threaded reactor):
components register timers (log flush timeouts, retention sweeps, session
heartbeats) and the driver advances time, firing timers in order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Protocol, runtime_checkable

from repro.common.costmodel import DEFAULT_COST_MODEL, CostModel


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface used throughout the library."""

    def now(self) -> float:
        """Return the current time in (simulated) seconds."""
        ...


class TimerHandle:
    """Handle to a scheduled callback, used for cancellation."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"TimerHandle(when={self.when:.6f}, {state})"


class SimClock:
    """A manually-advanced clock with an ordered timer queue.

    Timers scheduled for the same instant fire in scheduling order, which
    keeps multi-component simulations deterministic.  ``cost_model`` is the
    simulated world's hardware, set here once: every component built on this
    clock charges it.

    Example::

        clock = SimClock()
        clock.schedule(5.0, flush_log)
        clock.advance(10.0)   # flush_log fires at t=5.0
    """

    def __init__(
        self, start: float = 0.0, cost_model: CostModel = DEFAULT_COST_MODEL
    ) -> None:
        self._now = float(start)
        self.cost_model = cost_model
        self._timers: list[TimerHandle] = []
        self._seq = itertools.count()

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Raises :class:`ValueError` for negative delays; a zero delay fires on
        the next :meth:`advance` (even ``advance(0.0)``).
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        handle = TimerHandle(self._now + delay, next(self._seq), callback, args)
        heapq.heappush(self._timers, handle)
        return handle

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule in the past: {when} < now {self._now}"
            )
        handle = TimerHandle(when, next(self._seq), callback, args)
        heapq.heappush(self._timers, handle)
        return handle

    def advance(self, dt: float) -> int:
        """Advance time by ``dt`` seconds, firing due timers in order.

        Returns the number of timers fired.  Callbacks may schedule further
        timers; those also fire if they fall within the window.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        return self.advance_to(self._now + dt)

    def advance_to(self, deadline: float) -> int:
        """Advance time to ``deadline``, firing due timers in order."""
        if deadline < self._now:
            raise ValueError(
                f"cannot move backwards: {deadline} < now {self._now}"
            )
        fired = 0
        while self._timers and self._timers[0].when <= deadline:
            handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            # Move time to the timer's instant so callbacks observe it.
            self._now = max(self._now, handle.when)
            handle.callback(*handle.args)
            fired += 1
        self._now = deadline
        return fired

    def run_pending(self) -> int:
        """Fire timers due at exactly the current instant."""
        return self.advance_to(self._now)

    def next_deadline(self) -> float | None:
        """Time of the earliest pending timer, or ``None`` if queue is empty."""
        while self._timers and self._timers[0].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return self._timers[0].when

    def pending_timers(self) -> int:
        """Number of live (non-cancelled) timers."""
        return sum(1 for t in self._timers if not t.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.6f}, pending={self.pending_timers()})"
