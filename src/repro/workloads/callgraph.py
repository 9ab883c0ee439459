"""REST call-span events: the §5.1 call-graph-assembly use case.

"dynamic web pages are built from thousands of REST calls, which are
executed by distributed machines.  Each call can subsequently trigger other
calls ... Liquid records each event produced by the REST calls and stores
them in the messaging layer with a unique id per user call ... The
processing layer processes these events to assemble the call graph."

The generator emits span events for synthetic request trees (random fan-out,
bounded depth), each span carrying ``request_id`` (shared by the whole
tree), ``span_id``, ``parent_id``, service name and duration.  A designated
*slow service* can be injected to give the assembled graphs something to
flag.  :func:`assemble_call_tree` is the reference (offline) assembler used
to verify the streaming one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.common.errors import ConfigError
from repro.workloads.generators import EventClock

SERVICES = (
    "frontend",
    "profile-svc",
    "feed-svc",
    "search-svc",
    "ads-svc",
    "graph-svc",
    "media-svc",
    "notify-svc",
)


@dataclass(frozen=True)
class SlowService:
    """Injected problem: ``service`` responds ``factor``× slower."""

    service: str
    factor: float = 10.0

    def __post_init__(self) -> None:
        if self.service not in SERVICES:
            raise ConfigError(f"unknown service {self.service!r}")
        if self.factor <= 1.0:
            raise ConfigError("slow factor must be > 1")


class CallGraphEventGenerator:
    """Yields span events grouped into request trees."""

    def __init__(
        self,
        rate_per_second: float = 50.0,
        max_depth: int = 3,
        max_fanout: int = 3,
        base_duration_ms: float = 8.0,
        slow: SlowService | None = None,
        seed: int = 99,
    ) -> None:
        if max_depth < 1 or max_fanout < 1:
            raise ConfigError("max_depth and max_fanout must be >= 1")
        self._event_clock = EventClock(rate_per_second, seed=seed)
        self._rng = random.Random(seed + 1)
        self.max_depth = max_depth
        self.max_fanout = max_fanout
        self.base_duration_ms = base_duration_ms
        self.slow = slow
        self._request_counter = 0

    def requests(self, count: int) -> Iterator[list[dict]]:
        """Generate ``count`` complete request trees (lists of span events)."""
        for _ in range(count):
            self._request_counter += 1
            request_id = f"req-{self._request_counter:08d}"
            timestamp = self._event_clock.next_timestamp()
            spans: list[dict] = []
            self._emit_span(
                request_id, "frontend", None, 0, timestamp, spans
            )
            yield spans

    def events(self, request_count: int) -> Iterator[dict]:
        """Flatten request trees into a single span-event stream."""
        for spans in self.requests(request_count):
            yield from spans

    def _emit_span(
        self,
        request_id: str,
        service: str,
        parent_id: str | None,
        depth: int,
        timestamp: float,
        spans: list[dict],
    ) -> None:
        span_id = f"{request_id}:{len(spans):04d}"
        duration = self._rng.lognormvariate(0, 0.5) * self.base_duration_ms
        if self.slow is not None and service == self.slow.service:
            duration *= self.slow.factor
        spans.append(
            {
                "request_id": request_id,
                "span_id": span_id,
                "parent_id": parent_id,
                "service": service,
                "duration_ms": round(duration, 3),
                "timestamp": timestamp,
            }
        )
        if depth >= self.max_depth:
            return
        for _ in range(self._rng.randint(0, self.max_fanout)):
            child_service = self._rng.choice(
                [s for s in SERVICES if s != service]
            )
            self._emit_span(
                request_id,
                child_service,
                span_id,
                depth + 1,
                timestamp + duration / 1000.0,
                spans,
            )


class CallTree(NamedTuple):
    """One request's spans as a tree: each span's children and duration."""

    children: dict[str, list[str]]
    duration_ms: dict[str, float]


def assemble_call_tree(spans: list[dict]) -> CallTree:
    """Reference assembler: spans of ONE request into a parent→child tree.

    A span whose parent is not among ``spans`` (a partial window flush)
    roots its own subtree."""
    if not spans:
        raise ConfigError("no spans to assemble")
    request_ids = {span["request_id"] for span in spans}
    if len(request_ids) != 1:
        raise ConfigError(f"spans from multiple requests: {sorted(request_ids)}")
    duration_ms = {span["span_id"]: span["duration_ms"] for span in spans}
    children: dict[str, list[str]] = {span_id: [] for span_id in duration_ms}
    for span in spans:
        if span["parent_id"] in children:
            children[span["parent_id"]].append(span["span_id"])
    return CallTree(children, duration_ms)


def critical_path_ms(tree: CallTree) -> float:
    """Longest root-to-leaf duration sum: the request's critical path."""
    children, duration_ms = tree
    has_parent = {child for kids in children.values() for child in kids}
    stack = [(root, 0) for root in children if root not in has_parent]
    best = 0.0
    while stack:
        node, above = stack.pop()
        total = above + duration_ms[node]
        if children[node]:
            stack.extend((child, total) for child in children[node])
        else:
            best = max(best, total)
    return best
