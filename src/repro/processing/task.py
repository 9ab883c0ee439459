"""The stream-task programming model (§3.2).

"a job in the processing layer embodies computation over streams ... For
parallel processing, a job is divided into tasks that process different
partitions of a topic.  The data for a stateless job is entirely contained
in the input stream, while a stateful job has explicit state that evolves as
part of the computation."

User code implements :class:`StreamTask` (the Samza interface):
``process(record, collector)`` per input record, optional ``init(context)``
at startup/restore and ``window(collector)`` on a timer.  Tasks never touch
the messaging layer directly — they receive records and emit through the
collector, which is how the job runner keeps jobs decoupled through the log
(the paper's no-backpressure design decision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, runtime_checkable

from repro.common.clock import Clock
from repro.common.errors import JobConfigError
from repro.common.records import EMPTY_HEADERS
from repro.processing.state import KeyValueState


@dataclass
class Emit:
    """One record emitted by a task."""

    topic: str
    value: Any
    key: Any = None
    partition: int | None = None
    timestamp: float | None = None
    # A factory, not a default: EMPTY_HEADERS is a dict, and dataclasses
    # before Python 3.11 refuse any dict default.
    headers: Mapping[str, Any] = field(default_factory=lambda: EMPTY_HEADERS)


class MessageCollector:
    """Buffers task outputs; the job runner flushes them to the producer."""

    def __init__(self) -> None:
        self._emits: list[Emit] = []

    def send(
        self,
        topic: str,
        value: Any,
        key: Any = None,
        partition: int | None = None,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> None:
        self._emits.append(
            Emit(topic, value, key, partition, timestamp, headers or EMPTY_HEADERS)
        )

    def drain(self) -> list[Emit]:
        emits, self._emits = self._emits, []
        return emits

    def __len__(self) -> int:
        return len(self._emits)


class TaskContext:
    """Everything a task may touch: its identity, clock, and state stores."""

    def __init__(
        self,
        job_name: str,
        task_id: int,
        clock: Clock,
        stores: dict[str, KeyValueState],
        processing_guarantee: str = "at_least_once",
    ) -> None:
        self.job_name = job_name
        self.task_id = task_id
        self.clock = clock
        self.processing_guarantee = processing_guarantee
        self._stores = stores

    @property
    def exactly_once(self) -> bool:
        """True when this task runs under the exactly-once guarantee."""
        return self.processing_guarantee == "exactly_once"

    def store(self, name: str) -> KeyValueState:
        """Look up a state store declared in the job config."""
        store = self._stores.get(name)
        if store is None:
            raise JobConfigError(
                f"job {self.job_name!r} declares no store {name!r}; "
                f"declared: {sorted(self._stores)}"
            )
        return store

    def now(self) -> float:
        return self.clock.now()


@runtime_checkable
class StreamTask(Protocol):
    """User-implemented per-partition processing logic."""

    def process(self, record: Any, collector: MessageCollector) -> None:
        """Handle one input record; emit through the collector."""
        ...


class InitableTask(Protocol):
    """Optional: tasks needing setup implement ``init``."""

    def init(self, context: TaskContext) -> None: ...


class WindowableTask(Protocol):
    """Optional: tasks with periodic work implement ``window``."""

    def window(self, collector: MessageCollector) -> None: ...


class ClosableTask(Protocol):
    """Optional: tasks with teardown implement ``close``."""

    def close(self) -> None: ...
