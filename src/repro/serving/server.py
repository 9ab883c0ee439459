"""Per-task state servers: the read path over one task's stores.

Liquid's nearline results are only useful if front-ends can *read* them
(§5's serving use cases); a :class:`StateServer` is the per-task endpoint
that answers ``get`` / ``range`` / ``approximate_count`` over the stores of
one task, in one of two consistency modes:

* :data:`CONSISTENCY_BOUNDED` — serve the live store.  Freshest possible
  answer; between checkpoints it exposes state an at-least-once job may yet
  replay (and an exactly-once job has not committed), so every response
  reports its staleness bound: 0 records from the primary, the changelog
  lag when served from a standby replica.
* :data:`CONSISTENCY_SNAPSHOT` — serve from a follower replica applied only
  up to the changelog offset recorded at the task's last checkpoint.
  Answers are exactly the durable, committed state a post-crash recovery
  would rebuild — nothing the server returns can later be rolled back.

Every response is an immutable :class:`QueryResult` carrying the answer, who
served it, the consistency mode, the staleness bound, and the simulated
latency (store probe cost + one network hop for the response payload).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.common.errors import ServingError
from repro.common.records import estimate_size
from repro.processing.store import LsmStore
from repro.serving.replica import StandbyReplica

#: Serve the live store; staleness bound reported per response.
CONSISTENCY_BOUNDED = "bounded"
#: Serve the state as of the task's last checkpoint (never rolled back).
CONSISTENCY_SNAPSHOT = "snapshot"
CONSISTENCY_MODES = (CONSISTENCY_BOUNDED, CONSISTENCY_SNAPSHOT)

#: Who answered: the live task store, a warm standby, or the per-server
#: snapshot follower.
SERVED_BY_PRIMARY = "primary"
SERVED_BY_STANDBY = "standby"
SERVED_BY_SNAPSHOT = "snapshot"


class QueryResult(NamedTuple):
    """One serving response: answer + provenance + staleness + cost.

    The same shape answers all three query kinds: ``get`` sets ``key`` and a
    scalar ``value``; ``range`` sets ``key=(start, end)`` and ``value`` to
    the tuple of ``(key, value)`` pairs; ``approximate_count`` sets
    ``value`` to the count.  A tuple, so a response is one construction.
    """

    key: Any
    value: Any
    found: bool
    store: str
    task_id: int
    served_by: str
    consistency: str
    #: Changelog records the serving copy may be behind the live store
    #: (0 when served from the primary).
    staleness_records: int
    #: Simulated seconds since the serving copy was last known current.
    staleness_seconds: float
    #: Simulated cost of answering: store probe + response network hop.
    latency: float


#: Builds a :class:`QueryResult` from its field tuple in one C call, where
#: the class's generated ``__new__`` adds a Python frame per response.
_new_result = tuple.__new__


class StateServer:
    """Answers queries over one task's stores (one shard of the job)."""

    def __init__(self, runner, task_id: int) -> None:
        if not 0 <= task_id < runner.num_tasks:
            raise ServingError(
                f"job {runner.config.name!r} has tasks 0..{runner.num_tasks - 1}, "
                f"not {task_id}"
            )
        self.runner = runner
        self.task_id = task_id
        self.clock = runner.clock
        self.cost_model = runner.cluster.cost_model
        self._store_configs = {sc.name: sc for sc in runner.config.stores}
        #: store name -> follower replica pinned at the checkpoint bound.
        self._snapshot_followers: dict[str, StandbyReplica] = {}
        #: Round-robin cursor over standby sets for stale-tolerant reads.
        self._stale_cursor = 0

    # -- store selection ---------------------------------------------------------

    def _snapshot_store(self, store: str) -> tuple[Any, int, float]:
        """The snapshot follower's store, advanced to the checkpoint bound.

        Returns ``(store, staleness_records, staleness_seconds)``.
        """
        config = self._store_configs[store]  # _select validated the name
        if not config.changelog:
            raise ServingError(
                f"store {store!r} keeps no changelog; snapshot reads need one"
            )
        bound = self.runner.snapshot_offset(self.task_id, store)
        if bound is None:
            raise ServingError(
                f"no snapshot bound recorded yet for store {store!r} "
                f"task {self.task_id} (changelog leader unreachable?)"
            )
        follower = self._snapshot_followers.get(store)
        if follower is None:
            follower = StandbyReplica(
                self.runner.cluster,
                self.runner.config.name,
                store,
                self.task_id,
                store_options=config.store_options,
                isolation=self.runner.isolation,
                replica_id=-1,  # follower, never promoted
            )
            self._snapshot_followers[store] = follower
        follower.catch_up(limit_offset=bound)
        lag = max(0, self.runner.cluster.end_offset(follower.tp) - bound)
        snapshot_time = self.runner.snapshot_time(self.task_id)
        staleness_seconds = (
            0.0 if snapshot_time is None else max(0.0, self.clock.now() - snapshot_time)
        )
        return follower.store, lag, staleness_seconds

    def standby_staleness(self) -> dict[str, int]:
        """Worst changelog lag per store across this task's standby sets.

        Empty when the task keeps no standbys.  The SLO monitor and the
        cluster health rollup read this to judge how stale a failover or a
        stale-tolerant read would be right now.  A standby whose changelog
        partition has no leader is skipped: its lag is unknown, and the
        rollup already reports the partition offline.
        """
        worst: dict[str, int] = {}
        for replicas in self.runner.standbys.of(self.task_id):
            for store, replica in replicas.items():
                lag = replica.lag()
                if lag is not None:
                    worst[store] = max(worst.get(store, 0), lag)
        return worst

    def _select(
        self, store: str, consistency: str, allow_stale: bool
    ) -> tuple[LsmStore, str, int, float]:
        """Pick the store copy a query reads: ``(store, served_by,
        staleness_records, staleness_seconds)``.

        A stale-tolerant read takes the next standby set round-robin; with
        no standby for the store, or none whose changelog has a leader (its
        lag is then unknown), it reads the primary like any bounded read.
        """
        if consistency not in CONSISTENCY_MODES:
            raise ServingError(
                f"consistency must be one of {CONSISTENCY_MODES}, "
                f"got {consistency!r}"
            )
        if store not in self._store_configs:  # validated in every mode
            raise ServingError(
                f"job {self.runner.config.name!r} has no store {store!r}; "
                f"known: {sorted(self._store_configs)}"
            )
        if consistency == CONSISTENCY_SNAPSHOT:
            target, lag, seconds = self._snapshot_store(store)
            return target, SERVED_BY_SNAPSHOT, lag, seconds
        if allow_stale:
            # Standbys.of's lookup, made here without its two calls.
            table = self.runner.standbys._sets
            sets = table[self.task_id] if self.task_id in table else ()
            if sets:
                replicas = sets[self._stale_cursor % len(sets)]
                self._stale_cursor += 1
                if store in replicas:
                    replica = replicas[store]
                    lag = replica.lag()
                    if lag is not None:
                        seconds = self.clock.now() - replica.caught_up_at
                        return (
                            replica.store, SERVED_BY_STANDBY, lag,
                            seconds if seconds > 0.0 else 0.0,
                        )
        # Re-resolved per query from the runner's task table: migrate and
        # recover replace the task instance, and queries must always hit the
        # current incarnation.  Reads go to the raw store, not the
        # KeyValueState wrapper, so serving traffic does not inflate the
        # task's own get counters.
        return (
            self.runner._tasks[self.task_id].stores[store].store,
            SERVED_BY_PRIMARY, 0, 0.0,
        )

    # -- queries -----------------------------------------------------------------

    def get(
        self,
        store: str,
        key: Any,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """Point lookup of ``key`` in ``store``."""
        target, served_by, lag, seconds = self._select(
            store, consistency, allow_stale
        )
        value = target.get(key)
        # The point-probe cost is the store's charge for the get just made.
        latency = target.last_op_cost + self.cost_model.network_oneway(
            estimate_size(value)
        )
        return _new_result(QueryResult, (
            key, value, value is not None, store, self.task_id, served_by,
            consistency, lag, seconds, latency,
        ))

    def range(
        self,
        store: str,
        start: Any = None,
        end: Any = None,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """All pairs with ``start <= key < end``, in the store order."""
        target, served_by, lag, seconds = self._select(
            store, consistency, allow_stale
        )
        pairs = tuple(target.range_items(start, end))
        latency = target.scan_cost() + self.cost_model.network_oneway(
            estimate_size(pairs)
        )
        return _new_result(QueryResult, (
            (start, end), pairs, bool(pairs), store, self.task_id,
            served_by, consistency, lag, seconds, latency,
        ))

    def approximate_count(
        self,
        store: str,
        consistency: str = CONSISTENCY_BOUNDED,
        allow_stale: bool = False,
    ) -> QueryResult:
        """Number of live keys in this task's shard of ``store``.

        "Approximate" because the answer is only exact at the staleness
        bound it reports — the live store may have moved on.
        """
        target, served_by, lag, seconds = self._select(
            store, consistency, allow_stale
        )
        count = len(target)
        latency = target.scan_cost() + self.cost_model.network_oneway(
            estimate_size(count)
        )
        return _new_result(QueryResult, (
            None, count, count > 0, store, self.task_id,
            served_by, consistency, lag, seconds, latency,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StateServer({self.runner.config.name!r}, task={self.task_id})"
        )
