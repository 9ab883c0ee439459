"""CI gate: the simulated cost model did not move.

Runs liquidbench workloads untraced at the default seed and compares the
exact, hardware-independent numbers (``sim_s_per_krec``,
``sim_wire_bytes_per_record``) with ``benchmarks/liquidbench/baseline.json``.
A wall-clock optimisation must leave them identical to the last bit; a
change that means to move them re-measures the baseline in its own PR.

    python3 benchmarks/check_sim_baseline.py nearline_ingest compressed_ingest \
        exactly_once_serving offline_rewind
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "liquidbench"
EXACT = ("sim_s_per_krec", "sim_wire_bytes_per_record")


def main(workloads: list[str]) -> int:
    baseline = json.loads((BENCH / "baseline.json").read_text())["workloads"]
    moved = 0
    for workload in workloads:
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        got = json.loads(run.stdout.splitlines()[-1])["metrics"]
        for metric in EXACT:
            want = baseline[workload]["end_to_end"][metric]
            verdict = "ok" if got[metric]["value"] == want else "MOVED"
            moved += verdict != "ok"
            print(f"{workload:22s} {metric:26s} {got[metric]['value']!r} baseline {want!r} {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
