"""CI gate: the simulated cost model did not move, and no per-record call
crept back in.

Runs liquidbench workloads untraced at the default seed and compares the
exact, hardware-independent numbers (``sim_s_per_krec``,
``sim_wire_bytes_per_record``) with ``benchmarks/liquidbench/baseline.json``.
A wall-clock optimisation must leave them identical to the last bit.

A change that means to move one says so up front and, because only a
``[benchmark]`` PR may edit ``baseline.json``, records the new exact value in
:data:`MOVED_SINCE_BASELINE`, which overrides the stale baseline entry — so
every ``sim_*`` number of every workload stays pinned to the bit.  The
next re-measure of ``baseline.json`` (itself a ``[benchmark]`` change)
folds this table and :data:`CALL_CEILINGS` into it and deletes both.

The same run's ``py_calls_per_record`` (a ``cProfile`` call count — it
repeats exactly on one Python version) must stay at or under the
workload's entry in :data:`CALL_CEILINGS`.  Its ``peak_rss_mb`` is printed
beside the count and not gated: resident memory varies by runner.

    python3 benchmarks/check_sim_baseline.py nearline_ingest compressed_ingest \
        offline_rewind stateful_job exactly_once_serving
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "liquidbench"
EXACT = ("sim_s_per_krec", "sim_wire_bytes_per_record")
#: ``py_calls_per_record`` as last measured (CPython 3.11; the value beside
#: each) x 1.01, the bound BENCHMARK.json puts on the metric.  A change that
#: lowers a count lowers its ceiling in the same PR.
CALL_CEILINGS = {
    "nearline_ingest": 14.60,  # 14.4515667
    "compressed_ingest": 22.89,  # 22.6588
    "stateful_job": 44.29,  # 43.8440833
    "exactly_once_serving": 84.47,  # 83.627875
    "offline_rewind": 0.2397,  # 0.2373039
}
#: Exact values a PR moved on purpose after ``baseline.json`` was measured:
#: PR 19 made the pass the batch (``sim_s_per_krec`` on both job workloads);
#: PR 21 made producer state batch metadata (no per-record stamp bytes, one
#: batch header per stamped batch: ``exactly_once_serving`` only).  Then a
#: pass's state writes became one dict: each pass ships one changelog
#: record per key it wrote, not one per write (both job workloads, both
#: numbers).  Then a client round began to cost its slowest broker: requests
#: sent at one instant overlap across brokers and queue within one
#: (``round_latency``; ``sim_s_per_krec`` on all five, no byte moved).
#: Then one client's requests to one broker in a round became one request,
#: paying the dispatch and round trip once (``sim_s_per_krec`` on all but
#: ``offline_rewind``, no byte moved).
MOVED_SINCE_BASELINE = {
    "nearline_ingest": {"sim_s_per_krec": 0.00895752605333333},
    "compressed_ingest": {"sim_s_per_krec": 0.012941004050000015},
    "stateful_job": {
        "sim_s_per_krec": 0.0196337307416667,
        "sim_wire_bytes_per_record": 1499.9119166666667,
    },
    "exactly_once_serving": {
        "sim_s_per_krec": 0.022070733100000028,
        "sim_wire_bytes_per_record": 1472.30125,
    },
    "offline_rewind": {"sim_s_per_krec": 0.003721283485082899},
}


def main(targets: list[str]) -> int:
    baseline = json.loads((BENCH / "baseline.json").read_text())["workloads"]
    moved = 0
    for workload in targets:
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        got = json.loads(run.stdout.splitlines()[-1])["metrics"]
        for metric in EXACT:
            want = MOVED_SINCE_BASELINE.get(workload, {}).get(
                metric, baseline[workload]["end_to_end"][metric]
            )
            verdict = "ok" if got[metric]["value"] == want else "MOVED"
            moved += verdict != "ok"
            print(f"{workload:22s} {metric:26s} {got[metric]['value']!r} baseline {want!r} {verdict}")
        calls, ceiling = got["py_calls_per_record"]["value"], CALL_CEILINGS[workload]
        verdict = "ok" if calls <= ceiling else "OVER"
        moved += verdict != "ok"
        print(f"{workload:22s} {'py_calls_per_record':26s} {calls!r} ceiling {ceiling!r} {verdict}")
        print(f"{workload:22s} {'peak_rss_mb':26s} {got['peak_rss_mb']['value']!r} (reported, not gated)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
