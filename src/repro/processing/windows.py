"""Windowed aggregation helpers (§3.2).

The paper gives "a window of the most recent stream data" as the canonical
example of task state, and the §5.1 site-speed use case groups client events
"per session".  These helpers implement those two window types over event
time, as plain data structures a task embeds in its state:

* :class:`TumblingWindow` — fixed, non-overlapping buckets;
* :class:`SessionWindow` — gap-based sessionization (RUM sessions).

All are keyed: each key (user, CDN, page, ...) aggregates independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Hashable, TypeVar

from repro.common.errors import ConfigError

A = TypeVar("A")  # accumulator type


@dataclass
class WindowResult(Generic[A]):
    """A closed window ready for emission."""

    key: Hashable
    window_start: float
    window_end: float
    value: A
    count: int


class TumblingWindow(Generic[A]):
    """Fixed-size, non-overlapping, per-key windows over event time.

    ``add`` returns any windows that *closed* because the new event's
    timestamp moved past their end (per-key watermark semantics: events are
    assumed in order per key, as guaranteed by per-partition log order for
    keyed topics).
    """

    def __init__(
        self,
        size: float,
        init: Callable[[], A],
        fold: Callable[[A, Any], A],
    ) -> None:
        if size <= 0:
            raise ConfigError("window size must be > 0")
        self.size = size
        self.init = init
        self.fold = fold
        # key -> (window_start, accumulator, count)
        self._open: dict[Hashable, tuple[float, A, int]] = {}

    def _bucket(self, timestamp: float) -> float:
        return (timestamp // self.size) * self.size

    def add(self, key: Hashable, timestamp: float, event: Any) -> list[WindowResult[A]]:
        closed: list[WindowResult[A]] = []
        bucket = self._bucket(timestamp)
        current = self._open.get(key)
        if current is not None and current[0] != bucket:
            start, acc, count = current
            closed.append(WindowResult(key, start, start + self.size, acc, count))
            current = None
        if current is None:
            current = (bucket, self.init(), 0)
        start, acc, count = current
        self._open[key] = (start, self.fold(acc, event), count + 1)
        return closed

    def flush(self) -> list[WindowResult[A]]:
        """Close and emit every open window (end of stream / timer)."""
        out = [
            WindowResult(key, start, start + self.size, acc, count)
            for key, (start, acc, count) in self._open.items()
        ]
        self._open.clear()
        return out

    def open_windows(self) -> int:
        return len(self._open)


class SessionWindow(Generic[A]):
    """Gap-based sessions: a session closes after ``gap`` of inactivity."""

    def __init__(
        self,
        gap: float,
        init: Callable[[], A],
        fold: Callable[[A, Any], A],
    ) -> None:
        if gap <= 0:
            raise ConfigError("session gap must be > 0")
        self.gap = gap
        self.init = init
        self.fold = fold
        # key -> (session_start, last_event_ts, accumulator, count)
        self._open: dict[Hashable, tuple[float, float, A, int]] = {}

    def add(self, key: Hashable, timestamp: float, event: Any) -> list[WindowResult[A]]:
        closed: list[WindowResult[A]] = []
        current = self._open.get(key)
        if current is not None and timestamp - current[1] > self.gap:
            start, last, acc, count = current
            closed.append(WindowResult(key, start, last, acc, count))
            current = None
        if current is None:
            current = (timestamp, timestamp, self.init(), 0)
        start, _last, acc, count = current
        self._open[key] = (start, timestamp, self.fold(acc, event), count + 1)
        return closed

    def expire_idle(self, now: float) -> list[WindowResult[A]]:
        """Close sessions idle longer than the gap as of ``now`` (timer)."""
        closed = []
        for key in [k for k, (_s, last, _a, _c) in self._open.items() if now - last > self.gap]:
            start, last, acc, count = self._open.pop(key)
            closed.append(WindowResult(key, start, last, acc, count))
        return closed

    def open_sessions(self) -> int:
        return len(self._open)
