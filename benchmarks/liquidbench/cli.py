"""Command line of liquidbench.

    run.py --workload NAME --seed N --seconds S --trace 0|1   one run (the
        form BENCHMARK.json names); last stdout line is the JSON result
    run.py suite [--out FILE] [--trace-out DIR]   every workload, one process
        each, timed + traced; prints every metric
    run.py compare BASE.json NEW.json   verdict per workload x metric
    run.py selftest                     seconds; tiny sizes
    run.py manifest [--write]           BENCHMARK.json from spec.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from . import report, spec
from .harness import measure
from .workloads import WORKLOADS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", help="write everything measured as JSON")
    parser.add_argument(
        "--trace-out", help="directory for spans-<w>.jsonl / profile-<w>.json"
    )


def write_trace_artefacts(result: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    name = result["workload"]
    result["recorder"].write_jsonl(os.path.join(directory, f"spans-{name}.jsonl"))
    with open(os.path.join(directory, f"profile-{name}.json"), "w") as handle:
        json.dump(result["profile"], handle, indent=1, sort_keys=True)


def run_one(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    report.print_run(result)
    if args.trace_out and trace:
        write_trace_artefacts(result, args.trace_out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_json(result), handle, indent=1)
    if trace:
        print(report.contract_line(result, spec.PER_LAYER, "per_layer"))
    else:
        gated = [spec.E2E[name] for name in spec.GATED]
        print(report.contract_line(result, gated, "end_to_end"))
    return 1 if result["failed"] else 0


def run_suite(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak RSS is per workload): one
    untraced run for the end-to-end metrics, one traced for the layers."""
    merged: dict[str, dict] = {}
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workloads or list(WORKLOADS):
            for trace in (0, 1):
                out = os.path.join(scratch, f"{name}-{trace}.json")
                command = [
                    sys.executable, RUN_PY, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", out,
                ]
                if trace and args.trace_out:
                    command += ["--trace-out", args.trace_out]
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # Everything but the machine-readable last line.
                print(completed.stdout.rsplit("\n", 2)[0])
                status |= completed.returncode
                if not os.path.exists(out):
                    continue
                with open(out) as handle:
                    run = json.load(handle)
                if trace:
                    for key in ("per_layer", "rollup", "traced_wall_s"):
                        merged[name][key] = run[key]
                    merged[name]["failed"] += run["failed"]
                    merged[name]["attempted"] += run["attempted"]
                    merged[name]["notes"] += run["notes"]
                else:
                    merged[name] = run
    print("== summary: end-to-end metrics")
    header = f"{'metric':28}" + "".join(f"{name[:17]:>19}" for name in merged)
    print(header)
    rows = [
        (m.name, [run["end_to_end"].get(m.name) for run in merged.values()])
        for m in spec.END_TO_END
    ]
    rows.append(
        ("failed_share",
         [run["failed"] / max(1, run["attempted"]) for run in merged.values()])
    )
    for name, values in rows:
        cells = "".join(
            f"{'-' if value is None else report.fmt(value):>19}" for value in values
        )
        print(f"{name:28}{cells}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"schema": "liquidbench/v1", "seed": args.seed, "workloads": merged},
                handle,
                indent=1,
            )
    return status


def run_manifest(args: argparse.Namespace) -> int:
    text = json.dumps(spec.manifest(), indent=2) + "\n"
    if args.write:
        with open(spec.MANIFEST_PATH, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "suite":
        parser = argparse.ArgumentParser(prog="liquidbench suite")
        _add_run_arguments(parser)
        parser.add_argument("workloads", nargs="*", help="default: all")
        args = parser.parse_args(argv[1:])
        unknown = sorted(set(args.workloads) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
        return run_suite(args)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="liquidbench compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return report.compare(args.base, args.new)
    if argv and argv[0] == "selftest":
        from .selftest import selftest

        return selftest()
    if argv and argv[0] == "manifest":
        parser = argparse.ArgumentParser(prog="liquidbench manifest")
        parser.add_argument("--write", action="store_true")
        return run_manifest(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="liquidbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _add_run_arguments(parser)
    return run_one(parser.parse_args(argv))
