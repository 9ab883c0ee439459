"""Run protocol: what makes the numbers repeat.

Three passes per workload, each repetition on a fresh stack built from the
same seed (so every repetition does byte-identical work):

* **timed** - ``R`` repetitions with nothing installed.  Each timed section
  is cut into laps at fixed record counts; the wall-clock estimate is the
  *floor* ``sum_k low_r lap[r][k]`` (``low`` = second-smallest): interference
  from a co-tenant has to hit the same lap in all but one repetition to
  pollute it.  The plain median over
  repetitions and ``noise_ratio = median / floor`` are reported beside it.
  Bursts are what the floor removes; what it cannot remove is the box
  running slower for a whole run (a busy sibling core, a lower clock).  So
  a fixed pure-Python kernel is timed at every lap boundary, outside the
  laps, and each lap is scaled to the speed at which that kernel takes
  :data:`CALIBRATION_REF_NS` (see :func:`calibrate`).  The unscaled floor is
  reported as ``driver.records_per_s_raw``.
* **counted** - one repetition under ``cProfile``: exact call counts, total
  and per module.  A count, not a speed; it repeats exactly.
* **traced** - one repetition with the span wrappers of :mod:`.spans`
  installed: per-layer self time and calls, work counts read from return
  values at the same boundaries.

``gc.collect()`` runs before each repetition; the collector stays enabled
during it and its pauses inside the timed section are counted.
"""

from __future__ import annotations

import cProfile
import gc
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

from .spans import LAYERS, LOG_APPEND_TARGETS, SpanRecorder
from .spec import PER_LAYER
from .workloads import WORKLOADS, Verdict, Workload, percentile

#: Repetitions of the timed pass: at least R_MIN, then until ``--seconds``
#: of timed work have been measured, at most R_MAX.
R_MIN = 5
R_MAX = 7
#: The traced run only needs the floor for its overhead ratio and the noise
#: figures, so its timed pass is shorter.
R_TRACED = 3

#: Kernel time the laps are scaled to: what :func:`calibrate` returns on
#: the box the benchmark was defined on when nothing else runs.
CALIBRATION_REF_NS = 600_000

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: str, value: int, link: Any) -> None:
        self.key = key
        self.value = value
        self.link = link


def _kernel() -> int:
    """A fixed mix of what the stack's hot paths do: string formatting, dict
    get/set, small-object allocation, attribute stores, list appends."""
    table: dict[str, int] = {}
    cells = []
    for i in range(1500):
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0) + i
        cells.append(_Cell(key, i, None))
    return len(cells) + len(table)


def calibrate() -> int:
    """Best of three timings (ns) of the calibration kernel: how fast this
    box runs plain Python right now."""
    best = 1 << 62
    for _ in range(3):
        started = perf_counter_ns()
        _kernel()
        best = min(best, perf_counter_ns() - started)
    return best


class Meter:
    """Cuts one repetition's timed section into laps (ns) per phase."""

    def __init__(
        self,
        on_start: Callable[[], None] | None = None,
        on_lap: Callable[[], None] | None = None,
        on_stop: Callable[[], None] | None = None,
        calibrated: bool = False,
    ) -> None:
        #: Lap times as measured, and (timed pass only) scaled to the
        #: reference speed by the calibration taken before and after each.
        self.laps: dict[str, list[int]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.calibrated = calibrated
        self.calibrations: list[int] = []
        self._cal = 0
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._on_start, self._on_lap, self._on_stop = on_start, on_lap, on_stop
        self._gc_started = 0
        self._t = 0

    def _gc_event(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_started

    def start(self) -> None:
        # Everything alive now (the driver's inputs and reference answers,
        # the freshly built stack) moves to the permanent generation, so the
        # collections inside the timed section traverse what the timed
        # section allocated, not 60 000 input dicts over and over.
        gc.freeze()
        gc.callbacks.append(self._gc_event)
        if self._on_start is not None:
            self._on_start()
        if self.calibrated:
            self._cal = calibrate()
            self.calibrations.append(self._cal)
        self._t = perf_counter_ns()

    def lap(self, phase: str, boundary: bool = True) -> None:
        """Close a lap.  At a chunk ``boundary`` the calibration kernel runs
        and every lap since the previous boundary is scaled by the mean of
        the two calibrations around them; laps inside a chunk only cut the
        time finer (the finer the laps, the less a burst of interference
        survives the per-lap minimum)."""
        now = perf_counter_ns()
        self.laps.setdefault(phase, []).append(now - self._t)
        if boundary:
            if self.calibrated:
                before, self._cal = self._cal, calibrate()
                self.calibrations.append(self._cal)
                factor = 2 * CALIBRATION_REF_NS / (before + self._cal)
                for name, laps in self.laps.items():
                    scaled = self.scaled.setdefault(name, [])
                    scaled.extend(lap * factor for lap in laps[len(scaled):])
            if self._on_lap is not None:
                self._on_lap()
        self._t = perf_counter_ns()

    def stop(self) -> None:
        if self._on_stop is not None:
            self._on_stop()
        if self._gc_event in gc.callbacks:
            gc.callbacks.remove(self._gc_event)
        gc.unfreeze()

    @property
    def wall_s(self) -> float:
        return sum(sum(laps) for laps in self.laps.values()) / 1e9


@dataclass
class Rep:
    """One finished repetition."""

    setup_s: float
    meter: Meter
    outcome: dict[str, Any]
    verdict: Verdict
    first_pass_s: float = 0.0
    #: Set-up time scaled to the reference speed (timed pass only).
    setup_scaled_s: float = 0.0


def run_rep(cls: type[Workload], seed: int, scale: int, meter: Meter) -> Rep:
    """Set up a fresh stack, run the timed section, check the outputs."""
    gc.collect()
    before = calibrate() if meter.calibrated else 0
    started = perf_counter()
    workload = cls(seed, scale)
    workload.setup()
    setup_s = perf_counter() - started
    after = calibrate() if meter.calibrated else 0
    crashed = None
    try:
        workload.run(meter)
    except Exception as exc:  # a failed operation, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        crashed = f"timed section raised {type(exc).__name__}: {exc}"
    rep = Rep(setup_s, meter, {}, Verdict(), workload.first_pass_s)
    if meter.calibrated:
        rep.setup_scaled_s = setup_s * 2 * CALIBRATION_REF_NS / (before + after)
    try:
        rep.verdict = workload.verify()
        rep.outcome = workload.outcome()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        rep.verdict = Verdict(attempted=max(1, workload.n))
        rep.verdict.fail(1, f"oracle raised {type(exc).__name__}: {exc}")
        rep.outcome = {"records": max(1, workload.delivered), "work": {}}
    if crashed is not None:
        rep.verdict.attempted += 1
        rep.verdict.fail(1, crashed)
    return rep


def _low(values: tuple[float, ...]) -> float:
    """The second-smallest value (the smallest of fewer than three).

    The per-lap minimum rewards a lucky calibration as much as a quiet box;
    the median lets a burst through when it hits half the repetitions.  Over
    54 runs on four workloads the second-smallest of 5 had the narrowest
    run-to-run spread of the three (README, "Why the median ...")."""
    if len(values) < 3:
        return min(values)
    return sorted(values)[1]


def _floor(laps_per_rep: list[list[float]]) -> float:
    """``sum_k low_r lap[r][k]``, in seconds."""
    return sum(_low(column) for column in zip(*laps_per_rep)) / 1e9


def phase_s(rep: Rep, phase: str) -> float:
    return sum(rep.meter.laps.get(phase, [])) / 1e9


@dataclass
class TimedPass:
    reps: list[Rep] = field(default_factory=list)

    @property
    def first(self) -> Rep:
        return self.reps[0]

    def floor(self, phase: str) -> float:
        """Floor of the laps scaled to the reference speed (the headline)."""
        return _floor([rep.meter.scaled.get(phase, []) for rep in self.reps])

    def raw_floor(self, phase: str) -> float:
        """Floor of the laps as measured on the wall clock."""
        return _floor([rep.meter.laps.get(phase, []) for rep in self.reps])

    @property
    def raw_floor_all(self) -> float:
        return sum(self.raw_floor(phase) for phase in self.first.meter.laps)

    def disagreements(self) -> list[str]:
        """Exact numbers that differ between repetitions (there must be
        none: same seed, fresh stack, identical work)."""
        out = []
        reference = self.first
        for i, rep in enumerate(self.reps[1:], start=1):
            if rep.outcome != reference.outcome:
                keys = sorted(
                    key
                    for key in set(rep.outcome) | set(reference.outcome)
                    if rep.outcome.get(key) != reference.outcome.get(key)
                )
                out.append(f"repetition {i} differs from 0 in {keys}")
            if {p: len(l) for p, l in rep.meter.laps.items()} != {
                p: len(l) for p, l in reference.meter.laps.items()
            }:
                out.append(f"repetition {i} cut different laps")
        return out


def timed_pass(
    cls: type[Workload], seed: int, scale: int, seconds: float, r_min: int, r_max: int
) -> TimedPass:
    result = TimedPass()
    spent = 0.0
    while len(result.reps) < r_max and (
        len(result.reps) < r_min or spent < seconds
    ):
        rep = run_rep(cls, seed, scale, Meter(calibrated=True))
        result.reps.append(rep)
        spent += rep.setup_s + rep.meter.wall_s
    return result


def _module_of(code: Any) -> str:
    """Layer (``package.module`` under ``repro``) a profiled function's code
    lives in; the benchmark's own files are ``driver``."""
    if isinstance(code, str):
        return "py.builtins"
    filename = code.co_filename
    at = filename.rfind("/repro/")
    if at >= 0:
        parts = filename[at + len("/repro/"):-len(".py")].split("/")
        return ".".join(parts[:2])
    if filename.startswith(_PACKAGE_DIR):
        if code.co_name == "process":
            return "processing.task"
        return "driver"
    return "py.other"


def counted_pass(cls: type[Workload], seed: int, scale: int) -> dict[str, Any]:
    """One repetition under cProfile: calls and own time per module."""
    profiler = cProfile.Profile()
    meter = Meter(on_start=profiler.enable, on_stop=profiler.disable)
    rep = run_rep(cls, seed, scale, meter)
    modules: dict[str, dict[str, float]] = {}
    total = 0
    for entry in profiler.getstats():
        module = modules.setdefault(
            _module_of(entry.code), {"calls": 0, "tottime_s": 0.0}
        )
        module["calls"] += entry.callcount
        module["tottime_s"] += entry.inlinetime
        total += entry.callcount
    return {"rep": rep, "modules": modules, "total_calls": total}


def traced_pass(cls: type[Workload], seed: int, scale: int) -> dict[str, Any]:
    """One repetition with the span wrappers installed."""
    recorder = SpanRecorder()

    def next_chunk() -> None:
        recorder.chunk += 1

    # Workload.run stops the meter in a ``finally``, so the originals are
    # back even when the timed section raises.
    meter = Meter(
        on_start=recorder.install, on_lap=next_chunk, on_stop=recorder.uninstall
    )
    rep = run_rep(cls, seed, scale, meter)
    return {"rep": rep, "recorder": recorder, "rollup": recorder.rollup()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: int = 1
) -> dict[str, Any]:
    """Run one workload's passes; returns every metric it measured.

    With ``trace`` off: the timed pass (R repetitions) and the counted pass,
    which give every end-to-end metric.  With ``trace`` on: a short timed
    pass, the counted pass and the traced pass, which give the per-layer
    metrics.
    """
    cls = WORKLOADS[name]
    if trace:
        timed = timed_pass(cls, seed, scale, 0.0, R_TRACED, R_TRACED)
    else:
        timed = timed_pass(cls, seed, scale, seconds, R_MIN, R_MAX)
    rss = peak_rss_mb()
    reps = timed.reps
    first = timed.first
    outcome = first.outcome
    records = max(1, outcome["records"])
    floor_main = timed.floor("main")

    total = Verdict()
    for rep in reps:
        total.absorb(rep.verdict)
    for note in timed.disagreements():
        total.fail(1, note)

    def absorb_single(rep: Rep, label: str) -> None:
        total.absorb(rep.verdict)
        total.fail(
            rep.outcome != outcome,
            f"{label} repetition's exact numbers differ from the timed ones",
        )

    counted = counted_pass(cls, seed, scale)
    absorb_single(counted["rep"], "counted")

    end_to_end: dict[str, float] = {
        "setup_s": statistics.median(rep.setup_scaled_s for rep in reps),
        "records_per_s": records / floor_main,
        "py_calls_per_record": counted["total_calls"] / records,
        "sim_s_per_krec": outcome["sim_s_per_krec"],
        "sim_wire_bytes_per_record": outcome["sim_wire_bytes_per_record"],
        "peak_rss_mb": rss,
    }
    if "queries" in outcome:
        end_to_end["queries_per_s"] = outcome["queries"] / timed.floor("query")
    for key in ("sim_latency_p50_ms", "sim_latency_p99_ms"):
        if key in outcome:
            end_to_end[key] = outcome[key]

    walls = [phase_s(rep, "main") for rep in reps]
    laps_ms = sorted(
        lap / 1e6 for rep in reps for laps in rep.meter.laps.values() for lap in laps
    )
    raw_floor_main = timed.raw_floor("main")
    driver: dict[str, float] = {
        "driver.records_per_s_raw": records / raw_floor_main,
        "driver.records_per_s_median": records / statistics.median(walls),
        "driver.noise_ratio": statistics.median(walls) / raw_floor_main,
        "driver.calibration_us": statistics.median(
            cal for rep in reps for cal in rep.meter.calibrations
        ) / 1e3,
        "driver.chunk_wall_p50_ms": percentile(laps_ms, 50),
        "driver.chunk_wall_p95_ms": percentile(laps_ms, 95),
        "driver.gc_collections": statistics.median(
            rep.meter.gc_collections for rep in reps
        ),
        "driver.gc_pause_s": min(rep.meter.gc_pause_ns for rep in reps) / 1e9,
        "driver.first_pass_s": min(rep.first_pass_s for rep in reps),
    }
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "repetitions": len(reps),
        "records": records,
        "samples": {
            "laps": len(laps_ms),
            "sim_latency": outcome.get("sim_latency_samples", 0),
            "queries": outcome.get("queries", 0),
        },
        "setup_s_raw": statistics.median(rep.setup_s for rep in reps),
        "end_to_end": end_to_end,
        "driver": driver,
        "profile": counted["modules"],
    }
    if trace:
        traced = traced_pass(cls, seed, scale)
        absorb_single(traced["rep"], "traced")
        result["per_layer"] = per_layer_metrics(
            timed, counted, traced, end_to_end, driver
        )
        result["recorder"] = traced["recorder"]
        result["rollup"] = traced["rollup"]
        result["traced_wall_s"] = traced["rep"].meter.wall_s
    result.update(attempted=total.attempted, failed=total.failed, notes=total.notes)
    return result


def per_layer_metrics(
    timed: TimedPass,
    counted: dict[str, Any],
    traced: dict[str, Any],
    end_to_end: dict[str, float],
    driver: dict[str, float],
) -> dict[str, float]:
    """The per-layer metric set of one workload (see README, glossary)."""
    outcome = timed.first.outcome
    records = max(1, outcome["records"])
    rollup = traced["rollup"]
    targets = rollup["targets"]
    recorder: SpanRecorder = traced["recorder"]
    traced_wall = traced["rep"].meter.wall_s
    modules = counted["modules"]
    # Every workload reports every name; 0 means "this workload does not
    # exercise it" (no serving on the ingest workloads, and so on).
    out: dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = rollup["layers"][layer]["self_s"]
        out[f"{layer}.calls"] = float(rollup["layers"][layer]["calls"])
        out[f"{layer}.py_calls_per_record"] = (
            modules.get(layer, {}).get("calls", 0) / records
        )
    out["py.builtins.py_calls_per_record"] = (
        modules.get("py.builtins", {}).get("calls", 0) / records
    )

    def stat(name: str, key: str) -> float:
        return float(targets.get(name, {}).get(key, 0))

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    work = dict(outcome.get("work", {}))
    prefetch_hits = work.pop("messaging.consumer.prefetch_hits", 0.0)
    out.update(work)
    poll = "messaging.replication:ReplicationManager.poll"
    out["messaging.replication.records_copied"] = stat(poll, "items")
    out["messaging.replication.empty_pass_ratio"] = ratio(
        stat(poll, "empty_calls"), stat(poll, "calls")
    )
    poll = "messaging.consumer:Consumer.poll"
    out["messaging.consumer.records"] = stat(poll, "items")
    out["messaging.consumer.empty_poll_ratio"] = ratio(
        stat(poll, "empty_calls"), stat(poll, "calls")
    )
    take = "messaging.fetchbuffer:FetchBuffer.take"
    out["messaging.consumer.prefetch_hit_ratio"] = ratio(
        prefetch_hits, stat(take, "calls") - stat(take, "empty_calls")
    )
    appended = sum(stat(name, "items") for name in LOG_APPEND_TARGETS)
    out["storage.log.records_appended"] = appended
    out["storage.log.records_per_append"] = ratio(
        appended, sum(stat(name, "calls") for name in LOG_APPEND_TARGETS)
    )
    read = "storage.log:PartitionLog.read"
    out["storage.log.records_read"] = stat(read, "items")
    out["storage.log.records_per_read"] = ratio(
        stat(read, "items"), stat(read, "calls")
    )
    out["processing.job.checkpoints"] = float(
        rollup["layers"]["processing.checkpoint"]["calls"]
    )
    out["processing.state.puts"] = stat("processing.state:KeyValueState.put", "calls")
    out["processing.state.gets"] = stat("processing.state:KeyValueState.get", "calls")
    out["processing.recovery.restore_s"] = timed.floor("recovery")
    for key in ("queries_per_s", "sim_latency_p50_ms", "sim_latency_p99_ms"):
        out[key] = end_to_end.get(key, 0.0)
    out.update(driver)
    out["driver.unattributed_s"] = traced_wall - rollup["covered_s"]
    out["driver.trace_overhead_ratio"] = ratio(traced_wall, timed.raw_floor_all)
    out["driver.span_targets_missing"] = float(len(recorder.missing))
    unknown = sorted(set(out) - {metric.name for metric in PER_LAYER})
    if unknown:
        raise KeyError(f"per-layer metrics missing from spec.PER_LAYER: {unknown}")
    return out
