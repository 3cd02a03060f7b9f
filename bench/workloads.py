"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  ``make_inputs`` returns the
inputs of one cycle of operations, one entry per operation; a run works
through whole cycles.  The library receives only the generated inputs,
and every call goes through a module attribute
(``forecast.compare_pipelines``, ``cli.main``, ``synth.two_regime_corpus``)
so that a traced run can wrap it.

* ``pipeline``: the paper's predictor, ``compare_pipelines`` with the
  library defaults (estimated sigma, raw plus causally denoised goals),
  on the first road of ``two_regime_corpus(n_roads=6, n_days=8, seed)``:
  7 history days plus the target, for the given seed and one seed
  derived from it.  The sigma sweep over the history, the causal prefix
  solves on the target and the goal matcher over a (1975 x 1975)
  distance matrix carry it.  The causal solves' cost depends on the
  target day: with 3 history days (the acceptance corpus) they made a
  road cost 15 to 35 s on a 2-core machine, while 7 history days give
  the steady sweep and matcher the larger share of a road.
* ``batch-cli``: ``tvroad denoise --sigma 20`` then ``tvroad cluster
  --no-denoise`` in-process on a record CSV of 6 roads x 30 days: many
  short one-shot solves, CSV ingest, interpolation and the full
  ``cluster()`` path.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tvroad import cli, forecast, synth
from tvroad.series import DEFAULT_SLICES
from tvroad.solver import SolverConfig

GOAL_SLICES = np.arange(forecast.LABEL_OFFSET + 1, DEFAULT_SLICES + 1)
FIRST_DAY = datetime.date(2026, 1, 1)

# Deterministic per-layer figures a workload reads from its output; they
# read 0 on workloads whose operation produces no such output.
LAYER_FIGURES = ("forecast.rmae_raw", "noise.sigma_rel_err", "cli.bytes_out")


@dataclass
class Verdict:
    """Outcome of the output checks on one operation.

    ``abs_err`` and ``abs_truth`` are the sums behind the output's
    relative mean absolute error against truth; ``layer`` holds
    deterministic figures for the traced run; ``digest`` fingerprints
    the output so operations on the same inputs can be compared.
    """

    attempted: int
    failed: int
    abs_err: float = 0.0
    abs_truth: float = 0.0
    layer: dict = field(default_factory=dict)
    digest: str = ""
    errors: list = field(default_factory=list)


def report_errors(report, truth: np.ndarray) -> list[str]:
    """Recompute a PredictionReport's summary from predictions and truth."""
    errors = []
    p = np.asarray(report.predictions)
    if not np.array_equal(report.slices, GOAL_SLICES):
        errors.append("prediction slices are not 7..288")
    if p.shape != truth.shape or not np.isfinite(p).all():
        return errors + ["non-finite or missing prediction"]
    if not math.isclose(report.rmae, float(np.abs(truth - p).sum() / np.abs(truth).sum()),
                        rel_tol=1e-12):
        errors.append("rmae does not match the predictions")
    kept = truth > 1.0
    if report.mape_retained_count != int(kept.sum()):
        errors.append("mape_retained_count does not match the truth")
    elif not math.isclose(report.mape, float(np.mean(np.abs(truth[kept] - p[kept]) / truth[kept])),
                          rel_tol=1e-12):
        errors.append("mape does not match the predictions")
    return errors


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _road_inputs(road) -> dict:
    noisy = [n for _, n in road]
    realized = [synth.realized_sigma(c.values, n.values, n.h) for c, n in road[:-1]]
    return {"history": noisy[:-1], "target": noisy[-1], "realized": float(np.mean(realized))}


class Pipeline:
    name = "pipeline"

    def __init__(self, n_draws: int = 2, n_days: int = 8, solver: SolverConfig | None = None):
        self.n_draws = n_draws
        self.n_days = n_days
        self.days_per_op = n_days
        self.units = 1  # one road per operation
        self.options = {} if solver is None else {"solver": solver}

    def make_inputs(self, seed: int, work_dir) -> list:
        seeds = [seed, *np.random.SeedSequence(seed).generate_state(self.n_draws - 1)]
        return [_road_inputs(synth.two_regime_corpus(n_roads=6, n_days=self.n_days, seed=int(s),
                                                     diurnal=True)[0])
                for s in seeds]

    def run(self, inputs, out_dir):
        return forecast.compare_pipelines(inputs["history"], inputs["target"], **self.options)

    def check(self, inputs, out) -> Verdict:
        truth = inputs["target"].values[forecast.LABEL_OFFSET:]
        errors = []
        for tag in ("raw", "denoised"):
            report = getattr(out, tag)
            if report is None:
                errors.append(f"{tag} report missing")
            else:
                errors += [f"{tag}: {e}" for e in report_errors(report, truth)]
        if errors:
            return Verdict(1, 1, errors=errors)
        return Verdict(
            1, 0,
            abs_err=float(np.abs(truth - out.denoised.predictions).sum()),
            abs_truth=float(np.abs(truth).sum()),
            layer={"forecast.rmae_raw": out.raw.rmae,
                   "noise.sigma_rel_err": abs(out.sigma / inputs["realized"] - 1.0)},
            digest=_digest(out.raw.predictions, out.denoised.predictions, [out.sigma]),
        )


class BatchCli:
    name = "batch-cli"
    SIGMA = "20"

    def __init__(self, n_roads: int = 6, n_days: int = 30):
        self.n_roads = n_roads
        self.n_days = n_days
        self.days_per_op = n_roads * n_days
        self.units = self.days_per_op  # every road-day is checked on its own

    def make_inputs(self, seed: int, work_dir) -> list:
        corpus = synth.two_regime_corpus(n_roads=self.n_roads, n_days=self.n_days, seed=seed,
                                         diurnal=True)
        rows = ["road_id,day,slice,velocity"]
        clean = {}
        for road in corpus:
            for c, n in road:
                day = (FIRST_DAY + datetime.timedelta(days=n.day - 1)).isoformat()
                clean[f"{n.road_id}/{day}"] = c.values
                rows += [f"{n.road_id},{day},{i},{float(v)!r}" for i, v in enumerate(n.values, 1)]
        path = Path(work_dir) / "records.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return [{"csv": str(path), "clean": clean}]

    def run(self, inputs, out_dir):
        den, clu = Path(out_dir) / "denoise", Path(out_dir) / "cluster"
        codes = (
            cli.main(["denoise", "--input", inputs["csv"], "--sigma", self.SIGMA, "--out-dir", str(den)]),
            cli.main(["cluster", "--no-denoise", "--input", inputs["csv"], "--out-dir", str(clu)]),
        )
        return {"codes": codes, "denoise": den, "cluster": clu}

    def check(self, inputs, out) -> Verdict:
        clean = inputs["clean"]
        n = len(clean)
        if out["codes"] != (0, 0):
            return Verdict(n, n, errors=[f"exit codes {out['codes']}"])
        den, clu = out["denoise"], out["cluster"]
        files = sorted(p for d in (den, clu) for p in d.iterdir())
        diagnostics = json.loads((den / "denoise_diagnostics.json").read_text(encoding="utf-8"))
        denoised = {key: np.full(DEFAULT_SLICES, np.nan) for key in clean}
        rows = dict.fromkeys(clean, 0)
        assigned = dict.fromkeys(clean, 0)
        unknown = set()
        with open(den / "denoised.csv", newline="", encoding="utf-8") as fh:
            for road_id, day, slice_no, _, value in list(csv.reader(fh))[1:]:
                key = f"{road_id}/{day}"
                if key not in rows:
                    unknown.add(key)
                    continue
                rows[key] += 1
                denoised[key][int(slice_no) - 1] = float(value)
        with open(clu / "assignments.csv", newline="", encoding="utf-8") as fh:
            for key, _, _ in list(csv.reader(fh))[1:]:
                if key in assigned:
                    assigned[key] += 1
                else:
                    unknown.add(key)
        bad = {key for key in clean
               if key not in diagnostics or rows[key] != DEFAULT_SLICES or assigned[key] != 1
               or not np.isfinite(denoised[key]).all()}
        errors = [f"{key}: missing or malformed output" for key in sorted(bad)]
        errors += [f"{key}: output for a road-day not in the input" for key in sorted(unknown)]
        good = [key for key in clean if key not in bad]
        h = hashlib.sha256()
        for p in files:
            h.update(p.name.encode() + p.read_bytes())
        return Verdict(
            n, min(n, len(bad) + len(unknown)),
            abs_err=sum(float(np.abs(denoised[k] - clean[k]).sum()) for k in good),
            abs_truth=sum(float(np.abs(clean[k]).sum()) for k in good),
            layer={"cli.bytes_out": sum(p.stat().st_size for p in files)},
            digest=h.hexdigest(), errors=errors,
        )


WORKLOADS = {"pipeline": Pipeline, "batch-cli": BatchCli}

# Small sizes for the smoke test: same code paths, seconds instead of
# minutes.  The capped solver keeps the causal solves short.
TINY = {
    "pipeline": lambda: Pipeline(n_draws=2, n_days=2,
                                 solver=SolverConfig(sigma=0.0, epsilon=0.1, max_iters=40)),
    "batch-cli": lambda: BatchCli(n_roads=2, n_days=3),
}


def make(name: str, tiny: bool = False):
    return TINY[name]() if tiny else WORKLOADS[name]()
