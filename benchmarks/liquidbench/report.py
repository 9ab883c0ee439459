"""Printing a run, the layer rollup, and comparing two result files."""

from __future__ import annotations

import json
from typing import Any

from .spans import LAYERS
from .spec import END_TO_END, EXACT, PER_LAYER

_WALL_CLOCK = ("records_per_s", "queries_per_s")


def fmt(value: float) -> str:
    """Compact number for the tables."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.6g}"


def print_run(result: dict[str, Any]) -> None:
    """Every metric of one run by name, with unit, direction and bound."""
    samples = result["samples"]
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"repetitions={result['repetitions']}  records/rep={result['records']}  "
        f"laps={samples['laps']}  latency samples={samples['sim_latency']}  "
        f"queries/rep={samples['queries']}"
    )
    print(f"{'end-to-end metric':34} {'value':>16} {'unit':13} {'better':7} bound")
    for metric in END_TO_END:
        if metric.name in result["end_to_end"]:
            print(
                f"{metric.name:34} {fmt(result['end_to_end'][metric.name]):>16} "
                f"{metric.unit:13} {metric.better:7} {metric.bound:.1%}"
            )
    share = result["failed"] / max(1, result["attempted"])
    print(
        f"{'failed_share':34} {fmt(share):>16} {'ratio':13} {'lower':7} "
        f"any increase  ({result['failed']} of {result['attempted']} operations)"
    )
    for note in result["notes"][:20]:
        print(f"  ! {note}")
    driver = result["driver"]
    print(
        "wall clock as measured: floor "
        f"{fmt(driver['driver.records_per_s_raw'])} records/s, median "
        f"{fmt(driver['driver.records_per_s_median'])} records/s "
        f"(median/floor {driver['driver.noise_ratio']:.3f}); calibration kernel "
        f"{driver['driver.calibration_us']:.0f} us, set-up "
        f"{result['setup_s_raw']:.3f} s"
    )
    per_layer = result.get("per_layer")
    if per_layer is None:
        return
    print_rollup(result)
    print(f"{'per-layer metric':46} {'value':>16} unit")
    for metric in PER_LAYER:
        if metric.name.endswith((".self_s", ".calls", ".py_calls_per_record")):
            continue  # in the rollup above
        print(f"{metric.name:46} {fmt(per_layer[metric.name]):>16} {metric.unit}")


def print_rollup(result: dict[str, Any]) -> None:
    """Where the traced run spent its wall-clock, by layer."""
    per_layer = result["per_layer"]
    wall = result["traced_wall_s"]
    print(
        f"-- traced pass: wall {wall:.3f} s, "
        f"{per_layer['driver.trace_overhead_ratio']:.2f}x the untraced floor, "
        f"unattributed {per_layer['driver.unattributed_s']:.3f} s "
        f"({per_layer['driver.unattributed_s'] / wall:.1%}), "
        f"{result['rollup']['spans']} spans"
    )
    print(f"{'layer':28} {'self_s':>9} {'share':>7} {'calls':>9} {'py_calls/rec':>13}")
    rows = sorted(LAYERS, key=lambda layer: -per_layer[f"{layer}.self_s"])
    for layer in rows:
        self_s = per_layer[f"{layer}.self_s"]
        print(
            f"{layer:28} {self_s:9.4f} {self_s / wall:7.1%} "
            f"{int(per_layer[f'{layer}.calls']):9d} "
            f"{per_layer[f'{layer}.py_calls_per_record']:13.2f}"
        )


def to_json(result: dict[str, Any]) -> dict[str, Any]:
    """The serialisable part of a run (drops the recorder)."""
    skip = ("recorder",)
    return {key: value for key, value in result.items() if key not in skip}


def contract_line(result: dict[str, Any], metrics, source: str) -> str:
    """The one-line JSON result the driver reads: ``metrics`` (from spec)
    with their values out of ``result[source]``."""
    values = result[source]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                m.name: {"value": values[m.name], "unit": m.unit} for m in metrics
            },
        }
    )


# -- compare -------------------------------------------------------------------


def load_results(path: str) -> dict[str, dict[str, Any]]:
    """``{workload: run}`` from a suite file or a single run's ``--out``."""
    with open(path) as handle:
        data = json.load(handle)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def _worse_by(metric, base: float, new: float) -> float:
    """Signed share of the base by which ``new`` is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict_of(metric, base_run: dict, new_run: dict) -> tuple[str, float]:
    base = base_run["end_to_end"][metric.name]
    new = new_run["end_to_end"][metric.name]
    worse_by = _worse_by(metric, base, new)
    if metric.name in _WALL_CLOCK:
        noise = max(
            run["driver"]["driver.noise_ratio"] for run in (base_run, new_run)
        )
        if noise > 1 + metric.bound:
            return "unresolved", worse_by
    if worse_by > metric.bound:
        return "worse", worse_by
    if worse_by < 0 and (metric.name in EXACT or -worse_by > metric.bound):
        return "better", worse_by
    return "same", worse_by


def compare(base_path: str, new_path: str) -> int:
    """Print one row per workload x end-to-end metric, then the layers that
    moved most; returns 1 if any row is ``worse``."""
    base_runs, new_runs = load_results(base_path), load_results(new_path)
    worse = 0
    print(
        f"{'workload':22} {'metric':27} {'base':>14} {'new':>14} "
        f"{'new/base':>9} {'bound':>6} verdict"
    )
    for name in base_runs:
        if name not in new_runs:
            print(f"{name:22} (missing from {new_path})")
            worse += 1
            continue
        base_run, new_run = base_runs[name], new_runs[name]
        for metric in END_TO_END:
            if (
                metric.name not in base_run["end_to_end"]
                or metric.name not in new_run["end_to_end"]
            ):
                continue
            verdict, _ = verdict_of(metric, base_run, new_run)
            base = base_run["end_to_end"][metric.name]
            new = new_run["end_to_end"][metric.name]
            ratio = new / base if base else float("nan")
            worse += verdict == "worse"
            print(
                f"{name:22} {metric.name:27} {fmt(base):>14} {fmt(new):>14} "
                f"{ratio:9.4f} {metric.bound:6.1%} {verdict}"
            )
        base_share = base_run["failed"] / max(1, base_run["attempted"])
        new_share = new_run["failed"] / max(1, new_run["attempted"])
        verdict = "worse" if new_share > base_share else "same"
        worse += verdict == "worse"
        print(
            f"{name:22} {'failed_share':27} {fmt(base_share):>14} "
            f"{fmt(new_share):>14} {'':9} {'any':>6} {verdict}"
        )
    for name in base_runs:
        if name in new_runs:
            _print_layer_moves(name, base_runs[name], new_runs[name])
    return 1 if worse else 0


def _print_layer_moves(name: str, base_run: dict, new_run: dict, top: int = 5) -> None:
    base, new = base_run.get("per_layer"), new_run.get("per_layer")
    if not base or not new:
        return
    base_wall = base_run.get("traced_wall_s") or 1.0
    new_wall = new_run.get("traced_wall_s") or 1.0
    shares = []
    calls = []
    for layer in LAYERS:
        b = base.get(f"{layer}.self_s", 0.0) / base_wall
        n = new.get(f"{layer}.self_s", 0.0) / new_wall
        shares.append((abs(n - b), layer, b, n))
        b = base.get(f"{layer}.py_calls_per_record", 0.0)
        n = new.get(f"{layer}.py_calls_per_record", 0.0)
        calls.append((abs(n - b), layer, b, n))
    print(f"-- {name}: layers that moved most")
    for _, layer, b, n in sorted(shares, reverse=True)[:top]:
        print(f"   self_s share        {layer:28} {b:7.1%} -> {n:7.1%}")
    moved = [row for row in sorted(calls, reverse=True)[:top] if row[0] > 0]
    for _, layer, b, n in moved:
        print(f"   py_calls_per_record {layer:28} {b:9.2f} -> {n:9.2f}")
    if not moved:
        print("   py_calls_per_record no layer moved")
