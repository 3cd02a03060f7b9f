"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 bench/smoke.py

Runs every workload untraced and traced, and checks that:

* provenance.json maps every per-layer metric, and no other;
* each result line carries exactly the metrics BENCHMARK.json declares,
  with their units, every end-to-end value above zero and no failures;
* the traced counts of two runs with the same seed are identical;
* each output check rejects a tampered result: one perturbed or
  non-finite prediction, a wrong summary figure, one missing road-day
  in any output file, a nonzero exit code, or an output that differs
  from the first operation of the run.

Exits nonzero at the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

import run

SEED = 3


def expect(condition, what):
    if not condition:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def check_result_lines():
    exact_units = ("count", "bytes", "ratio")
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            tag = f"{name} trace={int(trace)}"
            res, _ = harness.run(name, SEED, 0.0, trace, tiny=True, setup_repeats=1)
            declared = harness.declared_metrics(trace)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: every operation passes its checks")
            expect({k: m["unit"] for k, m in res["metrics"].items()} == declared,
                   f"{tag}: metrics and units are the declared ones")
            json.loads(json.dumps(res, allow_nan=False))
            if not trace:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{tag}: end-to-end metrics are above zero")
                continue
            again, _ = harness.run(name, SEED, 0.0, trace, tiny=True, setup_repeats=1)
            exact = {k: m["value"] for k, m in res["metrics"].items() if m["unit"] in exact_units}
            expect(exact == {k: again["metrics"][k]["value"] for k in exact},
                   f"{tag}: counts repeat exactly across runs")


def check_prediction_checks(work):
    w = workloads.make("pipeline", tiny=True)
    inputs = w.make_inputs(SEED, work)[0]
    out = w.run(inputs, work)
    expect(w.check(inputs, out).failed == 0, "pipeline: untouched output passes")
    for tag in ("raw", "denoised"):
        name = f"pipeline {tag}"
        report = getattr(out, tag)
        for what, change in (
            ("one perturbed prediction", lambda p: p.__setitem__(40, p[40] + 0.5)),
            ("one non-finite prediction", lambda p: p.__setitem__(40, np.nan)),
        ):
            p = report.predictions.copy()
            change(p)
            bad = dataclasses.replace(out, **{tag: dataclasses.replace(report, predictions=p)})
            expect(w.check(inputs, bad).failed == 1, f"{name}: {what} is rejected")
        for field, value in (("rmae", report.rmae * (1 + 1e-9)), ("mape", report.mape * 1.01),
                             ("mape_retained_count", report.mape_retained_count - 1)):
            bad = dataclasses.replace(out, **{tag: dataclasses.replace(report, **{field: value})})
            expect(w.check(inputs, bad).failed == 1, f"{name}: a wrong {field} is rejected")
    stale = workloads.Verdict(1, 0, digest="not the output of this run")
    _, verdict = harness._one_op(w, inputs, work, stale)
    expect(verdict.failed == 1, "pipeline: output differing from the first operation is rejected")
    out = dataclasses.replace(out, denoised=None)
    expect(w.check(inputs, out).failed == 1, "pipeline: a missing denoised report is rejected")


def check_provenance():
    layer_map = json.loads((harness.BENCH_DIR / "provenance.json").read_text(encoding="utf-8"))["layer_map"]

    def covers(pattern, name):
        return name.startswith(pattern[:-1]) if pattern.endswith(".*") else name == pattern

    metrics = harness.declared_metrics(trace=True)
    expect(all(any(covers(p, m) for p in layer_map) for m in metrics),
           "provenance maps every per-layer metric to an end-to-end metric")
    expect(all(any(covers(p, m) for m in metrics) for p in layer_map),
           "provenance maps no undeclared per-layer metric")


def _drop_lines(path, key):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(key)]
    path.write_text("".join(kept), encoding="utf-8")
    return len(lines) - len(kept)


def check_cli_checks(work):
    w = workloads.make("batch-cli", tiny=True)
    inputs = w.make_inputs(SEED, work / "in")[0]
    expect(w.check(inputs, w.run(inputs, work / "out")).failed == 0, "batch-cli: untouched output passes")
    key = sorted(inputs["clean"])[1]
    road_id, day = key.split("/")
    for what, tamper in (
        ("one road-day missing from denoised.csv",
         lambda out: _drop_lines(out["denoise"] / "denoised.csv", f"{road_id},{day},")),
        ("one denoised.csv row missing",
         lambda out: _drop_lines(out["denoise"] / "denoised.csv", f"{road_id},{day},17,")),
        ("one road-day missing from assignments.csv",
         lambda out: _drop_lines(out["cluster"] / "assignments.csv", f"{key},")),
        ("one diagnostics entry missing", lambda out: _drop_diagnostic(out, key)),
    ):
        out = w.run(inputs, work / "out")
        expect(tamper(out), f"batch-cli: tampering hit the output ({what})")
        expect(w.check(inputs, out).failed == 1, f"batch-cli: {what} is rejected")
    out = w.run(inputs, work / "out")
    out["codes"] = (0, 1)
    expect(w.check(inputs, out).failed == len(inputs["clean"]),
           "batch-cli: a nonzero exit code fails every road-day")


def _drop_diagnostic(out, key):
    path = out["denoise"] / "denoise_diagnostics.json"
    diagnostics = json.loads(path.read_text(encoding="utf-8"))
    del diagnostics[key]
    path.write_text(json.dumps(diagnostics), encoding="utf-8")
    return True


def main() -> int:
    work = harness.WORK / "smoke"
    try:
        check_provenance()
        check_result_lines()
        check_prediction_checks(work)
        check_cli_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK.rmdir()
        except OSError:
            pass
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    run.import_library()
    import harness
    import workloads

    sys.exit(main())
