"""Measurement loops behind ``run.py``: set-up, operations, checks, tracing.

Imports tvroad, so ``run.import_library`` must have put this checkout's
``src/`` on the path first.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9

# Set-up is timed in fresh interpreters, so the import is paid each time.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
bench, src, name, tiny, seed, work = sys.argv[1:]
sys.path[:0] = [bench, src]
import workloads
workloads.make(name, tiny == "1").make_inputs(int(seed), work)
print(time.perf_counter() - t0)
"""


def _setup_once(name, tiny, seed, work) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC), name, str(int(tiny)),
         str(seed), str(work)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _checked(workload, inputs, out) -> "workloads.Verdict":
    try:
        return workload.check(inputs, out)
    except Exception:
        traceback.print_exc()
        return workloads.Verdict(workload.units, workload.units, errors=["output check raised"])


def _one_op(workload, inputs, out_dir, reference):
    """Run and check one operation; returns (seconds, verdict).

    ``reference`` is the verdict of an earlier operation on the same
    inputs, or None; a successful output must repeat its digest.
    """
    t0 = time.perf_counter()
    try:
        out = workload.run(inputs, out_dir)
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return seconds, workloads.Verdict(workload.units, workload.units, errors=["operation raised"])
    seconds = time.perf_counter() - t0
    verdict = _checked(workload, inputs, out)
    if (reference is not None and not reference.failed and not verdict.failed
            and verdict.digest != reference.digest):
        verdict.failed = verdict.attempted
        verdict.errors.append("output differs from an earlier operation on the same inputs")
    for e in verdict.errors:
        print(f"bench: {workload.name}: {e}", file=sys.stderr)
    return seconds, verdict


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seed, seconds, work, tiny=False, setup_repeats=SETUP_REPEATS):
    """Untraced run: set-up time, then whole cycles of operations for about
    ``seconds``, and at least one cycle.

    Throughput is the median over operations of the operation's
    road-days over its seconds, so one operation slowed by a neighbour
    on the machine moves it little; a run covers whole cycles, so it is
    a median over the same inputs however many cycles fit.  The output error and the memory high-water
    mark are read after the first cycle, so they do not depend on how
    many cycles fit in the run either.
    """
    # A first, untimed set-up fills the file cache and writes the bytecode.
    setup = [_setup_once(workload.name, tiny, seed, work / f"setup-{i}")
             for i in range(setup_repeats + 1)][1:]
    cycle = workload.make_inputs(seed, work / "inputs")
    k = len(cycle)
    times, verdicts = [], []
    start = time.perf_counter()
    elapsed = cycle_s = 0.0
    # Another cycle starts only if one as long as the last still fits.
    while not times or elapsed + cycle_s <= seconds:
        for inputs in cycle:
            dt, v = _one_op(workload, inputs, work / "out", verdicts[-k] if len(verdicts) >= k else None)
            times.append(dt)
            verdicts.append(v)
        if len(times) == k:
            peak_rss_mb = _peak_rss_mb()
        cycle_s = time.perf_counter() - start - elapsed
        elapsed += cycle_s
    first = [v for v in verdicts[:k] if not v.failed]
    truth = sum(v.abs_truth for v in first)
    values = {
        "setup_s": statistics.median(setup),
        "days_per_s": statistics.median(workload.days_per_op / t for t in times),
        "rmae": sum(v.abs_err for v in first) / truth if truth else math.nan,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, verdicts, times


def measure_traced(workload, seed, seconds, work, setup_repeats=SETUP_REPEATS):
    """Traced run on the cycle's first input: each operation runs once
    untraced, then once traced, for about ``seconds`` and at least once.

    Per-layer times are medians over the traced operations; counts come
    from the first traced operation and must repeat exactly in the
    others.  The tracing overhead is the difference of the two medians.
    """
    tracer = tracing.Tracer()
    gen = []
    for i in range(setup_repeats):
        with tracer.installed(("setup", i)):
            inputs = workload.make_inputs(seed, work / "inputs")[0]
        gen.append(tracing.layer_metrics(tracer.of_op(("setup", i)))[0]["synth.gen_s"])
    plain, traced, layers, verdicts = [], [], [], []
    start = time.perf_counter()
    # A pair is started only if one as long as the last still fits.
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        reference = next((v for v in verdicts if not v.failed), None)
        dt, v = _one_op(workload, inputs, work / "out", reference)
        plain.append(dt)
        verdicts.append(v)
        op = len(traced)
        with tracer.installed(op):
            dt, v = _one_op(workload, inputs, work / "out", reference or verdicts[-1])
        traced.append(dt)
        verdicts.append(v)
        times, counts = tracing.layer_metrics(tracer.of_op(op))
        layers.append((times, counts, v.layer))
        if counts != layers[0][1]:
            v.failed = v.attempted
            print(f"bench: {workload.name}: traced counts differ between operations", file=sys.stderr)
    first_times, first_counts, first_layer = layers[0]
    values = dict.fromkeys(workloads.LAYER_FIGURES, 0.0)
    values.update(first_layer)
    values.update({k: statistics.median(t[k] for t, _, _ in layers) for k in first_times})
    values.update(first_counts)
    values["synth.gen_s"] = statistics.median(gen)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, verdicts, traced


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(values: dict, verdicts, trace: bool) -> dict:
    """The JSON result line, with exactly the metrics BENCHMARK.json declares."""
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from the declared {sorted(units)}")
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    metrics = {}
    correct = failed == 0
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            correct, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(name, seed, seconds, trace, tiny=False, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (result line, operation seconds)."""
    workload = workloads.make(name, tiny)
    work = WORK / f"{name}-{os.getpid()}"
    try:
        if trace:
            values, verdicts, times = measure_traced(workload, seed, seconds, work, setup_repeats)
        else:
            values, verdicts, times = measure(workload, seed, seconds, work, tiny, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return result_line(values, verdicts, trace), times


