"""Names, units, directions and bounds of every metric, in one place.

``BENCHMARK.json`` at the repo root is generated from this module
(``manifest`` subcommand) and ``selftest`` checks the two agree.

The driver's contract wants every workload to report every end-to-end
metric with a value that is never 0.  Seven of the ten end-to-end metrics
qualify (:data:`GATED`); the three that exist on some workloads only
(``queries_per_s`` on ``exactly_once_serving``, the simulated latency
percentiles everywhere but ``offline_rewind``) are end-to-end metrics of
this tool - printed, bounded and compared by ``compare`` - and travel to the
driver inside the per-layer set, where 0 means "not applicable".
``failed_share`` can be 0 and is 0 at this commit, so it is the result's
``failed / attempted`` and the ``correct`` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .spans import LAYERS
from .workloads import WORKLOADS

#: BENCHMARK.json sits at the root of the checkout, two levels up.
MANIFEST_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)
DEFAULT_SEED = 20150107
#: Seconds of timed work one run measures (``--seconds``; the driver passes
#: ``run_seconds`` of BENCHMARK.json).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the base by which the metric may get worse before it counts
    #: as a regression (end-to-end metrics only; definitions in README.md).
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("records_per_s", "records/s", "higher", 0.20),
    Metric("queries_per_s", "queries/s", "higher", 0.20),
    Metric("py_calls_per_record", "calls/record", "lower", 0.01),
    Metric("sim_s_per_krec", "s/krec", "lower", 0.05),
    Metric("sim_latency_p50_ms", "ms", "lower", 0.005),
    Metric("sim_latency_p99_ms", "ms", "lower", 0.005),
    Metric("sim_wire_bytes_per_record", "bytes/record", "lower", 0.005),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)
#: End-to-end metrics every workload reports with a non-zero value: the set
#: the driver gates on (``end_to_end`` of BENCHMARK.json).
GATED = (
    "setup_s",
    "records_per_s",
    "py_calls_per_record",
    "sim_s_per_krec",
    "sim_wire_bytes_per_record",
    "peak_rss_mb",
)
#: Metrics that must repeat exactly for a fixed seed.
EXACT = (
    "py_calls_per_record",
    "sim_s_per_krec",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
    "sim_wire_bytes_per_record",
)
E2E = {metric.name: metric for metric in END_TO_END}


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
        out.append(Metric(f"{layer}.py_calls_per_record", "calls/record", "lower"))
    out += [
        Metric("py.builtins.py_calls_per_record", "calls/record", "lower"),
        Metric("common.compression.ratio", "ratio", "higher"),
        Metric("messaging.producer.records_per_batch", "records", "higher"),
        Metric("messaging.producer.retries", "count", "lower"),
        Metric("messaging.cluster.bytes_on_wire", "bytes", "lower"),
        Metric("messaging.replication.records_copied", "count", "lower"),
        Metric("messaging.replication.empty_pass_ratio", "ratio", "lower"),
        Metric("messaging.consumer.records", "count", "higher"),
        Metric("messaging.consumer.empty_poll_ratio", "ratio", "lower"),
        Metric("messaging.consumer.prefetch_hit_ratio", "ratio", "higher"),
        Metric("messaging.transactions.commits", "count", "lower"),
        Metric("messaging.transactions.aborts", "count", "lower"),
        Metric("messaging.transactions.markers_written", "count", "lower"),
        Metric("storage.log.records_appended", "count", "lower"),
        Metric("storage.log.records_per_append", "records", "higher"),
        Metric("storage.log.records_read", "count", "lower"),
        Metric("storage.log.records_per_read", "records", "higher"),
        Metric("storage.pagecache.hit_ratio", "ratio", "higher"),
        Metric("storage.pagecache.evictions", "count", "lower"),
        Metric("storage.tiered.cold_hit_ratio", "ratio", "higher"),
        Metric("storage.tiered.bytes_hydrated", "bytes", "lower"),
        Metric("storage.tiered.segments_archived", "count", "higher"),
        Metric("processing.job.records_processed", "count", "lower"),
        Metric("processing.job.records_emitted", "count", "lower"),
        Metric("processing.job.checkpoints", "count", "lower"),
        Metric("processing.state.puts", "count", "lower"),
        Metric("processing.state.gets", "count", "lower"),
        Metric("processing.recovery.restore_s", "s", "lower"),
        Metric("processing.recovery.records_replayed", "count", "lower"),
        Metric("processing.recovery.standby_promotions", "count", "higher"),
        Metric("serving.server.stale_served_ratio", "ratio", "higher"),
        Metric("serving.replica.records_applied", "count", "lower"),
        # End-to-end metrics only some workloads have (0 = not applicable).
        Metric("queries_per_s", "queries/s", "higher"),
        Metric("sim_latency_p50_ms", "ms", "lower"),
        Metric("sim_latency_p99_ms", "ms", "lower"),
        Metric("driver.records_per_s_raw", "records/s", "higher"),
        Metric("driver.records_per_s_median", "records/s", "higher"),
        Metric("driver.calibration_us", "us", "lower"),
        Metric("driver.noise_ratio", "ratio", "lower"),
        Metric("driver.chunk_wall_p50_ms", "ms", "lower"),
        Metric("driver.chunk_wall_p95_ms", "ms", "lower"),
        Metric("driver.gc_collections", "count", "lower"),
        Metric("driver.gc_pause_s", "s", "lower"),
        Metric("driver.first_pass_s", "s", "lower"),
        Metric("driver.unattributed_s", "s", "lower"),
        Metric("driver.trace_overhead_ratio", "ratio", "lower"),
        Metric("driver.span_targets_missing", "count", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/liquidbench/run.py"],
        "paths": ["benchmarks/liquidbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": name,
                "unit": E2E[name].unit,
                "better": E2E[name].better,
                "bound": E2E[name].bound,
            }
            for name in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
