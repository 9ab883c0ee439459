"""CI gate: the simulated cost model did not move, and no per-record call
crept back in.

Runs liquidbench workloads untraced at the default seed and compares the
exact, hardware-independent numbers (``sim_s_per_krec``,
``sim_wire_bytes_per_record``) with ``benchmarks/liquidbench/baseline.json``.
A wall-clock optimisation must leave them identical to the last bit; a
change that means to move them re-measures the baseline in its own PR.

The same run's ``py_calls_per_record`` (a ``cProfile`` call count — it
repeats exactly on one Python version) must stay at or under the
workload's entry in :data:`CALL_CEILINGS`.

An argument is ``workload`` (both numbers) or ``workload:metric`` (that one
only — for a workload whose other number was moved on purpose and whose
baseline has not been re-measured yet); the call ceiling is checked either
way.

    python3 benchmarks/check_sim_baseline.py nearline_ingest compressed_ingest \
        offline_rewind stateful_job:sim_wire_bytes_per_record \
        exactly_once_serving:sim_wire_bytes_per_record
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
    "nearline_ingest": 66.71,  # 66.0517
    "compressed_ingest": 48.28,  # 47.80635
    "stateful_job": 167.78,  # 166.12158
    "exactly_once_serving": 383.69,  # 379.897
    "offline_rewind": 1.4091,  # 1.39522
}


def main(targets: list[str]) -> int:
    baseline = json.loads((BENCH / "baseline.json").read_text())["workloads"]
    moved = 0
    for target in targets:
        workload, _, only = target.partition(":")
        if only and only not in EXACT:
            sys.exit(f"{target}: metric must be one of {', '.join(EXACT)}")
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        got = json.loads(run.stdout.splitlines()[-1])["metrics"]
        for metric in (only,) if only else EXACT:
            want = baseline[workload]["end_to_end"][metric]
            verdict = "ok" if got[metric]["value"] == want else "MOVED"
            moved += verdict != "ok"
            print(f"{workload:22s} {metric:26s} {got[metric]['value']!r} baseline {want!r} {verdict}")
        calls, ceiling = got["py_calls_per_record"]["value"], CALL_CEILINGS[workload]
        verdict = "ok" if calls <= ceiling else "OVER"
        moved += verdict != "ok"
        print(f"{workload:22s} {'py_calls_per_record':26s} {calls!r} ceiling {ceiling!r} {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
