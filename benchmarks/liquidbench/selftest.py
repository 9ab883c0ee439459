"""``selftest``: seconds, tiny sizes; checks the benchmark, not the stack.

* two same-seed runs give bit-equal ``py_calls_per_record``, ``sim_*``
  metrics and work counts;
* a different seed changes the inputs but keeps every oracle green;
* installing and removing the span wrappers leaves the stack's classes as
  they were, and the span table resolves against the current tree;
* a deliberately dropped record makes ``failed_share`` non-zero;
* ``BENCHMARK.json`` agrees with ``spec.py``.
"""

from __future__ import annotations

import json
import os

from . import spec
from .harness import Meter, measure
from .inputs import make_events
from .spans import SpanRecorder
from .workloads import WORKLOADS

#: Sizes are divided by this (floors in Workload.__init__ keep >= 4 chunks).
SCALE = 20
#: Per-layer metrics that are wall-clock (everything else must repeat).
_TIMED_SUFFIXES = (".self_s",)
_TIMED_NAMES = {
    "processing.recovery.restore_s",
    "queries_per_s",
    "driver.records_per_s_raw",
    "driver.records_per_s_median",
    "driver.calibration_us",
    "driver.noise_ratio",
    "driver.chunk_wall_p50_ms",
    "driver.chunk_wall_p95_ms",
    "driver.gc_pause_s",
    "driver.first_pass_s",
    "driver.unattributed_s",
    "driver.trace_overhead_ratio",
}


def _exact(result: dict) -> dict[str, float]:
    """Every number of a traced run that must repeat for a fixed seed."""
    out = {
        name: result["end_to_end"][name]
        for name in spec.EXACT
        if name in result["end_to_end"]
    }
    for name, value in result["per_layer"].items():
        if name in _TIMED_NAMES or name.endswith(_TIMED_SUFFIXES):
            continue
        out[name] = value
    return out


def _check(failures: list[str], ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def selftest() -> int:
    failures: list[str] = []
    seed, other = spec.DEFAULT_SEED, 7

    print("span table")
    recorder = SpanRecorder()
    recorder.install()
    patched = list(recorder._restore)
    swapped = all(
        vars(owner)[leaf] is not original for owner, leaf, original in patched
    )
    recorder.uninstall()
    restored = all(
        vars(owner)[leaf] is original for owner, leaf, original in patched
    )
    _check(failures, bool(patched) and swapped, "install swaps every entry point")
    _check(failures, restored, "uninstall restores the stack's classes")
    _check(
        failures,
        not recorder.missing,
        f"every span target resolves (missing: {recorder.missing})",
    )

    print("inputs")
    _check(
        failures,
        make_events(seed, 200) == make_events(seed, 200)
        and make_events(seed, 200) != make_events(other, 200),
        "same seed, same inputs; another seed, other inputs",
    )

    for name, cls in WORKLOADS.items():
        print(name)
        first = measure(name, seed, 0.0, True, SCALE)
        second = measure(name, seed, 0.0, True, SCALE)
        _check(failures, first["failed"] == 0, f"oracles green ({first['notes'][:3]})")
        a, b = _exact(first), _exact(second)
        differing = sorted(key for key in a if a[key] != b.get(key))
        _check(
            failures,
            not differing,
            f"two same-seed runs agree exactly on {len(a)} numbers {differing[:5]}",
        )
        _check(
            failures,
            first["per_layer"]["driver.span_targets_missing"] == 0,
            "no span target missing",
        )
        third = measure(name, other, 0.0, False, SCALE)
        _check(failures, third["failed"] == 0, f"seed {other}: oracles green")

        workload = cls(seed, SCALE)
        workload.setup()
        workload.run(Meter())
        clean = workload.verify().failed
        workload.deliveries[0][1].pop()
        _check(
            failures,
            clean == 0 and workload.verify().failed > 0,
            "a dropped record makes failed_share non-zero",
        )

    print("manifest")
    if os.path.exists(spec.MANIFEST_PATH):
        with open(spec.MANIFEST_PATH) as handle:
            _check(
                failures,
                json.load(handle) == spec.manifest(),
                "BENCHMARK.json agrees with spec.py",
            )
    names = [m.name for m in spec.PER_LAYER]
    _check(
        failures,
        len(names) == len(set(names)) <= 128,
        f"{len(names)} per-layer metrics, unique, within the cap",
    )
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "ok")
    return 1 if failures else 0
