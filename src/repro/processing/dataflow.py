"""Dataflow graphs of jobs connected through the log (§3.2).

"Jobs can communicate with other jobs, forming a dataflow processing graph.
All jobs are decoupled by writing to and reading from the messaging layer,
which avoids the need for a back-pressure mechanism."

The :class:`Dataflow` wires several :class:`~repro.processing.job.JobRunner`
instances whose only coupling is topics, validates the topology, and pumps
them to completion.  E2 uses it to build N-stage pipelines and measure how
end-to-end latency grows with depth.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from repro.common.errors import JobConfigError
from repro.messaging.cluster import MessagingCluster
from repro.processing.job import JobConfig, JobRunner, PollResult


class Dataflow:
    """A set of jobs connected via topics, run as one pipeline."""

    def __init__(self, cluster: MessagingCluster) -> None:
        self.cluster = cluster
        self._runners: dict[str, JobRunner] = {}
        self._outputs: dict[str, set[str]] = {}  # job -> declared output topics

    def add_job(
        self,
        config: JobConfig,
        outputs: Iterable[str] = (),
        **runner_kwargs,
    ) -> JobRunner:
        """Register a job.  ``outputs`` declares the topics its tasks emit to
        (used for topology validation; emission itself is dynamic)."""
        if config.name in self._runners:
            raise JobConfigError(f"job {config.name!r} already in dataflow")
        runner = JobRunner(config, self.cluster, **runner_kwargs)
        self._runners[config.name] = runner
        self._outputs[config.name] = set(outputs)
        return runner

    def runner(self, name: str) -> JobRunner:
        runner = self._runners.get(name)
        if runner is None:
            raise JobConfigError(f"unknown job {name!r}")
        return runner

    def runners(self) -> list[JobRunner]:
        return list(self._runners.values())

    # -- topology ---------------------------------------------------------------------

    def graph(self) -> dict[str, list[str]]:
        """Bipartite job/topic graph of the declared topology: each node's
        predecessors (a job's input topics, a topic's producing jobs)."""
        graph: dict[str, list[str]] = {}
        for name, runner in self._runners.items():
            job_node = f"job:{name}"
            graph[job_node] = [f"topic:{topic}" for topic in runner.config.inputs]
            for topic in sorted(self._outputs[name]):
                graph.setdefault(f"topic:{topic}", []).append(job_node)
        return graph

    def _sorter(self) -> TopologicalSorter:
        """A prepared sorter over :meth:`graph`; a cycle is a
        :class:`JobConfigError` naming its nodes in data-flow order."""
        sorter = TopologicalSorter(self.graph())
        try:
            sorter.prepare()
        except CycleError as exc:
            pretty = " -> ".join(exc.args[1])
            raise JobConfigError(f"dataflow contains a cycle: {pretty}") from exc
        return sorter

    def validate(self) -> None:
        """Reject cyclic topologies (they never drain under run_until_idle)."""
        self._sorter()

    def stages(self) -> list[list[str]]:
        """Jobs grouped by topological depth: each stage is one ready set of
        the sort, every node of which is done before the next is taken."""
        sorter = self._sorter()
        out: list[list[str]] = []
        while sorter:
            generation = sorter.get_ready()
            sorter.done(*generation)
            jobs = sorted(
                node[len("job:"):] for node in generation if node.startswith("job:")
            )
            if jobs:
                out.append(jobs)
        return out

    # -- execution ----------------------------------------------------------------------

    def poll_all(self) -> PollResult:
        """One pass over every job in topological stage order.

        Ticks the cluster first (without advancing time) so follower
        replication can advance high watermarks — otherwise freshly produced
        records on replicated topics are not yet visible to consumers.
        """
        self.cluster.tick(0.0)
        total = PollResult()
        order = [name for stage in self.stages() for name in stage] or list(
            self._runners
        )
        for name in order:
            result = self._runners[name].poll_once()
            total.records_processed += result.records_processed
            total.records_emitted += result.records_emitted
            total.latency += result.latency
        return total

    def run_until_idle(self, max_rounds: int = 1000) -> int:
        """Pump all jobs until a full round makes no progress.

        Returns total records processed.  Raises if the pipeline fails to
        drain within ``max_rounds`` (almost always a topology cycle that
        validation would have caught).
        """
        self.validate()
        total = 0
        for _ in range(max_rounds):
            result = self.poll_all()
            total += result.records_processed
            # Emissions without processing (window flushes) still need a
            # further round so downstream jobs consume them.
            if result.records_processed == 0 and result.records_emitted == 0:
                return total
        raise JobConfigError(
            f"dataflow did not drain within {max_rounds} rounds "
            f"(processed {total}); check for unbounded feedback"
        )

    def checkpoint_all(self) -> None:
        for runner in self._runners.values():
            runner.checkpoint()

    def backlog(self) -> int:
        return sum(runner.backlog() for runner in self._runners.values())
