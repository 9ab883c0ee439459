"""Per-record distributed tracing (§5.1 "operational analysis").

The paper's operational-analysis use case assumes every hop a record takes
through the stack is observable and attributable.  The aggregate metrics in
:mod:`repro.common.metrics` answer "how is the produce path doing overall?";
this module answers "what happened to *this* record?" — produce, leader
append, replication fan-out, (cold-tier) fetch, consume, job execution, and
the append into any derived feed the job emits to, as one connected tree of
:class:`Span`\\ s sharing a trace id.

Design constraints, in order:

1. **Observe, never mutate.**  A traced run must be byte-identical to an
   untraced run: same record contents, same offsets, same simulated
   latencies, same metrics.  The :class:`TraceContext` travels in the
   reserved ``__trace`` record header
   (:data:`repro.common.records.TRACE_HEADER`), which every size-accounting
   path excludes, so injecting it perturbs nothing the simulation measures
   (property-tested in ``tests/properties/test_trace_transparency.py``).
2. **Free when off.**  Following the failpoint pattern
   (:mod:`repro.chaos.failpoints`), every hot-path hook starts with one
   ``current_tracer() is None`` check and does nothing else when no tracer
   is installed — guarded by liquidbench's wall-clock pairs.
3. **Bounded.**  Spans land in a ring buffer (``capacity`` spans, oldest
   evicted first) and head-based sampling (``sample_rate``) decides at the
   root whether a record is traced at all, so tracing can stay on in
   long soaks.
4. **Deterministic.**  Trace ids come from a seeded RNG and span ids from a
   counter — never the wall clock — so traced runs replay identically.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.errors import ConfigError
from repro.common.records import TRACE_HEADER

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing",
    "TRACE_HEADER",
]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """What propagates between stages: the trace plus the parent span.

    Producers inject it into the ``__trace`` record header; every later
    stage parents its span on ``span_id`` and passes the header through
    untouched (jobs re-stamp it so derived-feed records continue the same
    trace under the emitting task's span).
    """

    trace_id: str
    span_id: int


@dataclass(slots=True)
class Span:
    """One stage of one record's journey, on the simulated clock."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def context(self) -> TraceContext:
        """Context a child stage should parent on."""
        return TraceContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, [{self.start:.6f}..{self.end:.6f}])"
        )


class Tracer:
    """Collects spans into a bounded ring buffer with head-based sampling.

    ``sample_rate=1`` (the default, used by tests) traces every record;
    ``sample_rate=N`` traces one in every N *new* traces — the decision is
    made once at the root (``Producer.send`` of an untraced record) and
    inherited by every downstream stage, so a trace is always complete or
    absent, never partial.
    """

    def __init__(
        self,
        sample_rate: int = 1,
        capacity: int = 65536,
        seed: int = 0,
    ) -> None:
        if sample_rate < 1:
            raise ConfigError(f"sample_rate must be >= 1, got {sample_rate}")
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = sample_rate
        self.capacity = capacity
        # Deterministic ids: seeded RNG for trace ids, counter for span ids.
        self._rng = random.Random(seed)
        self._next_span_id = itertools.count(1)
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._roots_considered = 0
        self.traces_started = 0
        self.traces_sampled_out = 0
        self.spans_recorded = 0

    # -- span lifecycle -----------------------------------------------------------

    def open_span(
        self,
        name: str,
        parent: TraceContext | None,
        start: float,
        **attrs: Any,
    ) -> Span | None:
        """Open a span; ``parent=None`` starts a new trace (sampled).

        Returns ``None`` when head-based sampling rejects a new root —
        callers then skip all tracing work for that record.  A span with a
        parent context is never sampled out (the decision was made at the
        root).  The span is not in the buffer until :meth:`close`.
        """
        if parent is None:
            self._roots_considered += 1
            if (self._roots_considered - 1) % self.sample_rate != 0:
                self.traces_sampled_out += 1
                return None
            trace_id = f"{self._rng.getrandbits(48):012x}"
            parent_id = None
            self.traces_started += 1
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(
            trace_id, next(self._next_span_id), parent_id, name, start, start,
            attrs,
        )

    def close(self, span: Span, end: float | None = None) -> Span:
        """Finish an open span and commit it to the ring buffer."""
        if end is not None:
            if end < span.start:
                raise ConfigError(
                    f"span {span.name!r} ends before it starts "
                    f"({end} < {span.start})"
                )
            span.end = end
        self._spans.append(span)
        self.spans_recorded += 1
        return span

    def record(
        self,
        name: str,
        ctx: TraceContext,
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """One-shot span for stages whose timing is known when they finish."""
        span = Span(
            ctx.trace_id, next(self._next_span_id), ctx.span_id, name, start,
            end, attrs,
        )
        return self.close(span)

    # -- queries ------------------------------------------------------------------

    def spans(self) -> list[Span]:
        """All retained spans, in completion order."""
        return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return all retained spans, in completion order.

        The telemetry exporter calls this each cycle so every span is
        shipped exactly once; ``spans_recorded`` keeps counting across
        drains.
        """
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def spans_for(self, trace_id: str) -> list[Span]:
        """Retained spans of one trace, ordered by (start, span id)."""
        found = [s for s in self._spans if s.trace_id == trace_id]
        found.sort(key=lambda s: (s.start, s.span_id))
        return found

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in the buffer, ordered by first appearance."""
        seen: dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    @property
    def spans_dropped(self) -> int:
        """Spans evicted by the ring buffer since construction."""
        return self.spans_recorded - len(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(spans={len(self._spans)}/{self.capacity}, "
            f"traces={self.traces_started}, "
            f"sample_rate={self.sample_rate})"
        )


# ---------------------------------------------------------------------------
# Installation: one process-wide tracer, mirroring the failpoint registry.
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` — the hot-path guard check."""
    return _ACTIVE


def install_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns it."""
    global _ACTIVE
    if not isinstance(tracer, Tracer):
        raise ConfigError(f"expected a Tracer, got {type(tracer).__name__}")
    _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> None:
    """Remove the installed tracer (hot paths return to the no-op check)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block::

        with tracing() as tracer:
            liquid.producer().send("feed", value)
        print(render_timeline(tracer.trace_ids()[0], tracer))
    """
    installed = install_tracer(tracer if tracer is not None else Tracer())
    try:
        yield installed
    finally:
        uninstall_tracer()
