"""Query routing over a job's task shards.

A job's state is sharded exactly like its input: task *i* owns partition
*i*, and a keyed record lands on the partition chosen by the producer's
hash partitioner.  :class:`StateQueryRouter` therefore routes a key lookup
with the *same* function — :func:`repro.common.partitioning.partition_for_key`
— so routing agrees byte-for-byte with where the job wrote the key's state.
A query for key *k* goes to the one :class:`~repro.serving.server.StateServer`
whose task could have stored it; ``range`` and ``approximate_count``
scatter-gather across all shards.

The router is the front door the paper's serving story needs: front-ends
issue point lookups against nearline state without consuming changelogs,
with per-response staleness bounds, optional stale-tolerant reads off
standby replicas (load spreading), and ``state.query`` spans + ``serving.*``
metrics for the operational story.
"""

from __future__ import annotations

from typing import Any

from repro.common.costmodel import round_latency
from repro.common.errors import ServingError
from repro.common.metrics import metric_name, metric_segment
from repro.common.partitioning import partition_for_key
from repro.observability.trace import Tracer, current_tracer
from repro.processing.store import sort_items
from repro.serving.server import (
    CONSISTENCY_BOUNDED,
    QueryResult,
    StateServer,
    _new_result,
)


class StateQueryRouter:
    """Routes state queries to the task shard owning each key."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.clock = runner.clock
        self.servers = [
            StateServer(runner, task_id) for task_id in range(runner.num_tasks)
        ]
        segment = metric_segment(runner.config.name)
        metrics = runner.metrics
        self._c_queries = metrics.counter(
            metric_name("serving", "router", segment, "queries")
        )
        self._c_stale = metrics.counter(
            metric_name("serving", "router", segment, "stale_served")
        )
        self._h_latency = metrics.histogram(
            metric_name("serving", "router", segment, "query_latency")
        )

    def task_for_key(self, key: Any) -> int:
        """The task shard owning ``key`` — same hash as the producer's
        partitioner, so routing can never disagree with placement."""
        return partition_for_key(key, self.runner.num_tasks)

    def server(self, task_id: int) -> StateServer:
        if not 0 <= task_id < len(self.servers):
            raise ServingError(
                f"job {self.runner.config.name!r} has tasks "
                f"0..{len(self.servers) - 1}, not {task_id}"
            )
        return self.servers[task_id]

    # -- bookkeeping shared by all query kinds ------------------------------------

    def _account(self, kind: str, result: QueryResult) -> QueryResult:
        self._c_queries.increment(1)
        if result.served_by != "primary":
            self._c_stale.increment(1)
        self._h_latency.observe(result.latency)
        tracer = current_tracer()
        if tracer is not None:
            self._span(tracer, kind, result)
        return result

    def _span(self, tracer: Tracer, kind: str, result: QueryResult) -> None:
        """The query's ``state.query`` span."""
        start = self.clock.now()
        span = tracer.open_span(
            "state.query",
            None,
            start=start,
            job=self.runner.config.name,
            kind=kind,
            store=result.store,
            task=result.task_id,
            served_by=result.served_by,
            consistency=result.consistency,
            staleness_records=result.staleness_records,
        )
        if span is not None:
            tracer.close(span, end=start + result.latency)

    # -- queries ------------------------------------------------------------------

    def get(
        self,
        store: str,
        key: Any,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """Point lookup, routed to the shard owning ``key``.

        ``allow_stale=True`` lets the owning shard answer from one of its
        standby replicas (round-robin) when the job keeps any — spreading
        read load off the processing container at the cost of the staleness
        the response reports.
        """
        # task_for_key and _account, inlined: a point query pays no hop for
        # its shard pick or its bookkeeping.
        result = self.servers[partition_for_key(key, self.runner.num_tasks)].get(
            store, key, consistency, allow_stale
        )
        self._c_queries.increment(1)
        if result.served_by != "primary":
            self._c_stale.increment(1)
        self._h_latency.observe(result.latency)
        tracer = current_tracer()
        if tracer is not None:
            self._span(tracer, "get", result)
        return result

    def range(
        self,
        store: str,
        start: Any = None,
        end: Any = None,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """Scatter-gather range scan over every shard, merged in the store
        order (:func:`~repro.processing.store.order_key`)."""
        shards = [
            server.range(store, start, end, consistency, allow_stale)
            for server in self.servers
        ]
        pairs = [pair for shard in shards for pair in shard.value]
        sort_items(pairs)
        return self._account(
            "range", _merged(shards, (start, end), tuple(pairs), bool(pairs))
        )

    def approximate_count(
        self,
        store: str,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """Total live keys across every shard of ``store``."""
        shards = [
            server.approximate_count(store, consistency, allow_stale)
            for server in self.servers
        ]
        total = sum([s.value for s in shards])
        return self._account(
            "approximate_count", _merged(shards, None, total, total > 0)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StateQueryRouter({self.runner.config.name!r}, "
            f"shards={len(self.servers)})"
        )


def _merged(
    shards: list[QueryResult], key: Any, value: Any, found: bool
) -> QueryResult:
    """One answer for a scatter-gather over every shard.

    Each shard is its own server and the shards answer in parallel, so the
    reported latency is the slowest shard's
    (:func:`~repro.common.costmodel.round_latency`, each shard's request
    its own); the staleness bound is the worst across shards.
    """
    first = shards[0]
    return _new_result(QueryResult, (
        key, value, found, first.store, -1,  # task -1: all shards
        _worst_served_by(shards), first.consistency,
        max([s.staleness_records for s in shards]),
        max([s.staleness_seconds for s in shards]),
        round_latency([(None, s.task_id, 0.0, s.latency) for s in shards]),
    ))


def _worst_served_by(shards: list[QueryResult]) -> str:
    """Provenance of a merged answer: primary only if *every* shard was."""
    for shard in shards:
        if shard.served_by != "primary":
            return shard.served_by
    return "primary"
