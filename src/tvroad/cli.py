"""Command-line front end: ingest CSV feeds, run the pipelines, emit files.

Subcommands: denoise, estimate-sigma, cluster, predict, table1.  Input
is a per-slice record CSV (road_id, day, slice, velocity); outputs are
CSV and JSON files under --out-dir.  Every emitted file is a pure
function of (input, configuration, seed): iteration follows sorted
road-day keys and floats are written with round-trip precision.

A note on time units: ingested series carry the wall-clock slice length
(5 minutes) as metadata, but the noise balance and the solver operate
in slice units (h = 1), where the discrete noise-strength definition
and the per-day estimates line up exactly.  All pipeline math below
therefore runs on unit-spaced copies of the series.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import sys
from dataclasses import dataclass, replace
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .cluster import DEFAULT_DC_PERCENTILE, cluster
from .forecast import compare_pipelines
from .noise import DEFAULT_SIGMA_GRID, _validate_grid, estimate_sigma
from .series import (DEFAULT_SLICES, DEFAULT_SLICE_MINUTES, VelocitySeries, _fill_nearest,
                     total_variation)
from .solver import SolverConfig, _denoise_stack, _residual
# not called here; bench/tracing.py wraps both under this module's names
from .series import nearest_interpolate  # noqa: F401
from .solver import denoise_values  # noqa: F401
from .synth import run_table1, table1_csv

log = logging.getLogger("tvroad")

LENGTH_COLUMN = "road_length_m"


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings, read from key=value text by :func:`config_from_text`.

    Every command solves with max_iters and rel_tol: a solve walks the
    TV solution path for at most max_iters steps, and it is flagged
    converged when its fidelity term ends within rel_tol sigma^2 of
    sigma^2.
    """

    max_iters: int = 5000
    rel_tol: float = 1e-4
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    dc_percentile: float = DEFAULT_DC_PERCENTILE
    k: int | None = None
    min_records: int = 150
    min_records_cluster: int = 120
    min_road_length_m: float = 100.0
    out_dir: str = "out"
    seed: int = 0
    table1_trials: int = 100

    def __post_init__(self):
        for name in ("max_iters", "rel_tol", "dc_percentile",
                     "min_records", "min_records_cluster", "min_road_length_m",
                     "table1_trials"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if not (self.dc_percentile <= 100):
            raise ValueError("dc_percentile must be a percentile in (0, 100]")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be a positive cluster count")
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        _validate_grid(self.sigma_grid)


_CONFIG_PARSERS = {
    "max_iters": int, "rel_tol": float,
    "sigma_grid": lambda s: tuple(float(x) for x in s.split(",")),
    "dc_percentile": float, "k": lambda s: int(s) if s else None,
    "min_records": int, "min_records_cluster": int, "min_road_length_m": float,
    "out_dir": str, "seed": int, "table1_trials": int,
}


def config_from_text(text: str) -> RunConfig:
    """Parse the flat key=value form (# comments and blank lines ok)."""
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**updates)


_REQUIRED = ("road_id", "day", "slice", "velocity")
# Reader rows parsed per chunk: only one chunk's row lists are alive at a
# time, so memory stays flat in the file's length.
_CHUNK_ROWS = 1024


def _parsed(parser, cells) -> list:
    """``parser`` mapped over ``cells`` up to the first cell it rejects, so
    a result shorter than ``cells`` ends where that cell sits."""
    out = []
    try:
        out.extend(map(parser, cells))  # extend keeps what was mapped before the raise
    except ValueError:
        pass
    return out


def _check_day(day: str) -> None:
    """Raise ValueError unless day is a date written as YYYY-MM-DD, the one
    spelling of a date, so that each date is one road-day key."""
    if datetime.date.fromisoformat(day).isoformat() != day:
        raise ValueError(f"day {day!r} is not written as YYYY-MM-DD")


def _row_error(row: list, cols: tuple, length_col: int | None) -> str | None:
    """The message of a row's first failing check, in the record format's
    order: road_id, day, slice and velocity parse, empty road_id, date,
    slice range, velocity range, length."""
    try:
        road_id = row[cols[0]].strip()
        day = row[cols[1]].strip()
        slice_no = int(row[cols[2]])
        velocity = float(row[cols[3]])
        if not road_id:
            raise ValueError("empty road_id")
        _check_day(day)
        if not (1 <= slice_no <= DEFAULT_SLICES):
            raise ValueError(f"slice {slice_no} outside 1..{DEFAULT_SLICES}")
        if not (np.isfinite(velocity) and velocity >= 0):
            raise ValueError(f"velocity {velocity} not a nonnegative finite number")
        if length_col is not None and length_col < len(row) and row[length_col].strip():
            float(row[length_col])
    except (ValueError, IndexError) as exc:
        return str(exc)
    return None


class _Records:
    """The checked records of one file, as a (road-day, slice) grid."""

    def __init__(self, path, cols: tuple, length_col: int | None):
        self.path = path
        self.cols = cols  # road_id, day, slice, velocity column indices
        self.length_col = length_col
        self.ids: dict[tuple[str, str], int] = {}  # (road_id, day) -> grid row
        self.dates: set[str] = set()  # day strings that passed _check_day
        self.values = np.empty((0, DEFAULT_SLICES))
        self.observed = np.zeros((0, DEFAULT_SLICES), dtype=bool)
        self.lengths: dict[int, float] = {}  # grid row -> last road length given

    def add(self, rows: list, first_line: int) -> None:
        """Check and store one chunk of reader rows, the first at file line
        ``first_line``; raise for the chunk's first bad row.

        Each check runs column by column and moves ``end`` back to the
        first row it rejects, so the rows before ``end`` passed every
        check; duplicates are then looked for among those rows.
        """
        lines = np.arange(first_line, first_line + len(rows))
        filled = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
        if not filled.all():
            rows, lines = list(compress(rows, filled)), lines[filled]
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        short = np.flatnonzero(widths <= max(self.cols))
        end = int(short[0]) if short.size else len(rows)
        head = rows[:end]
        road_col, day_col, slice_col, speed_col = self.cols
        roads = list(map(str.strip, map(itemgetter(road_col), head)))
        days = list(map(str.strip, map(itemgetter(day_col), head)))
        slices = _parsed(int, map(itemgetter(slice_col), head))
        speeds = _parsed(float, map(itemgetter(speed_col), head))
        end = min(end, len(slices), len(speeds))
        if "" in roads:
            end = min(end, roads.index(""))
        for day in set(days) - self.dates:
            try:
                _check_day(day)
            except ValueError:
                end = min(end, days.index(day))
            else:
                self.dates.add(day)
        try:
            s = np.array(slices[:end], dtype=np.intp)
        except OverflowError:  # past the integer range, so outside 1..288 too
            s = np.array(slices[:end], dtype=object)
        v = np.array(speeds[:end], dtype=float)
        bad = np.flatnonzero((s < 1) | (s > DEFAULT_SLICES) | ~(np.isfinite(v) & (v >= 0)))
        if bad.size:
            end = int(bad[0])
        length_rows, lengths = self._lengths(head[:end], widths[:end])
        if len(lengths) < length_rows.size:
            end = int(length_rows[len(lengths)])

        g = self._grid_rows(list(zip(roads[:end], days[:end])))
        slot = s[:end].astype(np.intp) - 1
        flat = g * DEFAULT_SLICES + slot
        order = np.argsort(flat, kind="stable")
        dup = self.observed[g, slot]  # a copy seen in an earlier chunk
        dup[order[1:][flat[order[1:]] == flat[order[:-1]]]] = True  # or earlier in this one
        if dup.any():
            i = int(np.flatnonzero(dup)[0])
            raise ValueError(f"{self.path}: line {lines[i]}: duplicate record for "
                             f"road_id={roads[i]} day={days[i]} slice={slices[i]}")
        if end < len(rows):
            message = _row_error(rows[end], self.cols, self.length_col)
            raise ValueError(f"{self.path}: line {lines[end]}: {message}")
        self.values[g, slot] = v
        self.observed[g, slot] = True
        self.lengths.update(zip(g[length_rows].tolist(), lengths))

    def _lengths(self, rows: list, widths: np.ndarray) -> tuple[np.ndarray, list]:
        """(positions of the rows giving a length, their lengths parsed up
        to the first bad one)."""
        if self.length_col is None:
            return np.empty(0, np.intp), []
        has = np.flatnonzero(widths > self.length_col)
        cells = list(map(itemgetter(self.length_col), map(rows.__getitem__, has.tolist())))
        given = np.fromiter(map(bool, map(str.strip, cells)), bool, len(cells))
        return has[given], _parsed(float, compress(cells, given))

    def _grid_rows(self, keys: list) -> np.ndarray:
        """Grid row of each (road_id, day), adding rows for new road-days."""
        ids = self.ids
        new = [key for key in dict.fromkeys(keys) if key not in ids]
        ids.update(zip(new, range(len(ids), len(ids) + len(new))))
        if len(ids) > len(self.values):
            extra = max(len(ids), 2 * len(self.values)) - len(self.values)
            self.values = np.concatenate([self.values, np.empty((extra, DEFAULT_SLICES))])
            self.observed = np.concatenate([self.observed,
                                            np.zeros((extra, DEFAULT_SLICES), dtype=bool)])
        return np.fromiter(map(ids.__getitem__, keys), np.intp, len(keys))

    def road_days(self, min_records: int, min_length_m: float | None) -> dict:
        """{(road_id, day): VelocitySeries} in sorted key order, gaps filled
        by nearest-in-time interpolation in one pass over the kept road-days,
        short roads and thin days skipped."""
        keys, rows = [], []
        counts = np.count_nonzero(self.observed, axis=1)
        for key in sorted(self.ids):
            road_id, day = key
            g = self.ids[key]
            length = self.lengths.get(g)
            if min_length_m is not None and length is not None and length < min_length_m:
                log.info("%s/%s: skipped, road length %.0f m below %.0f m",
                         road_id, day, length, min_length_m)
                continue
            if counts[g] < min_records:
                log.info("%s/%s: skipped, %d records below the minimum of %d",
                         road_id, day, counts[g], min_records)
                continue
            keys.append(key)
            rows.append(g)
        observed = self.observed[rows]
        values = _fill_nearest(self.values[rows], observed)
        return {key: VelocitySeries(road_id=key[0], day=key[1], values=v, h=DEFAULT_SLICE_MINUTES,
                                    observed_mask=mask)
                for key, v, mask in zip(keys, values, observed)}


def ingest(path, *, min_records: int = 150, min_length_m: float | None = None):
    """Read a record CSV into a {(road_id, day): VelocitySeries} map.

    Required columns: road_id, day (YYYY-MM-DD), slice (1..288), velocity
    (nonnegative km/h).  Extra columns are ignored, except an optional
    road_length_m column used to drop roads shorter than min_length_m.
    Blank rows are skipped.  The first malformed row in file order fails
    the read with its line number (reader rows, counted from 2 after the
    header, blank rows included); a duplicate (road_id, day, slice) key
    is reported at its second copy.  Rows are parsed column by column in
    chunks of ``_CHUNK_ROWS``.  Road-days with fewer than min_records
    observed slices are skipped with a log line.  Remaining gaps are
    filled by nearest-in-time interpolation.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        if header[: len(_REQUIRED)] != list(_REQUIRED):
            raise ValueError(f"{path}: header must start with {','.join(_REQUIRED)}")
        col = {name: i for i, name in enumerate(header)}
        records = _Records(path, tuple(col[name] for name in _REQUIRED), col.get(LENGTH_COLUMN))
        line = 2
        while True:
            rows = []
            try:
                rows.extend(islice(reader, _CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError):
                records.add(rows, line)  # a bad row read before the reader failed comes first
                raise
            if not rows:
                break
            records.add(rows, line)
            line += len(rows)
    return records.road_days(min_records, min_length_m)


def _unit_spaced(series: VelocitySeries) -> VelocitySeries:
    """Copy of a series with h = 1 for the pipeline math."""
    return VelocitySeries(road_id=series.road_id, day=series.day, values=series.values,
                          h=1.0, observed_mask=series.observed_mask)


def _pipeline_solver(config: RunConfig) -> SolverConfig:
    return SolverConfig(sigma=0.0, max_iters=config.max_iters, rel_tol=config.rel_tol)


def _key_name(key: tuple[str, str]) -> str:
    return f"{key[0]}/{key[1]}"


def _write_text(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _write_json(out_dir: Path, name: str, payload) -> None:
    _write_text(out_dir, name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _estimate(series: VelocitySeries, config: RunConfig):
    """The road-day's SigmaEstimate over the configured grid."""
    return estimate_sigma(series.values, sigma_grid=config.sigma_grid,
                          solver=_pipeline_solver(config), h=1.0)


def _sigma(series: VelocitySeries, config: RunConfig, args) -> tuple:
    """(sigma, its SigmaEstimate or None) of one road-day: the --sigma
    override, else its estimated sigma."""
    if args.sigma is not None:
        return float(args.sigma), None
    estimate = _estimate(series, config)
    return estimate.sigma_best, estimate


def _stack_solves(values: list, sigmas: list, solver: SolverConfig) -> list:
    """(denoised, diagnostics) of each series at its sigma, from one stacked
    solve: each denoised series is its lone solve's bit for bit, and its
    diagnostics are what that solve reports."""
    u = np.concatenate(values)
    heads = np.append(0, np.cumsum([v.size for v in values]))
    x, iterations, saturated = _denoise_stack(u, heads, sigmas, solver, h=1.0)
    solved = []
    for r, (lo, hi) in enumerate(zip(heads[:-1].tolist(), heads[1:].tolist())):
        residual, converged = _residual(x[lo:hi], u[lo:hi], sigmas[r], 1.0, solver.rel_tol)
        solved.append((x[lo:hi], {"iterations": int(iterations[r]), "converged": converged,
                                  "saturated": bool(saturated[r]),
                                  "final_tv": total_variation(x[lo:hi]),
                                  "constraint_residual": residual}))
    return solved


def _solve_all(data: dict, config: RunConfig, args, failed: str) -> tuple:
    """({key: (sigma, SigmaEstimate or None, denoised, diagnostics)} of every
    road-day that solves, in key order, and the number that failed.

    Each road-day takes its sigma alone, then all of them are solved as one
    stack.  If the stack raises, each road-day is solved alone, so that a
    failing one fails alone.  A failure is logged as "<road>/<day>:
    <failed>: <error>".
    """
    solver = _pipeline_solver(config)
    sigmas, failures = {}, 0
    for key in sorted(data):
        try:
            sigmas[key] = _sigma(data[key], config, args)
        except Exception as exc:
            failures += 1
            log.error("%s: %s: %s", _key_name(key), failed, exc)
    if not sigmas:
        return {}, failures
    try:
        solved = dict(zip(sigmas, _stack_solves([data[key].values for key in sigmas],
                                                [sigma for sigma, _ in sigmas.values()], solver)))
    except Exception:
        solved = {}
        for key, (sigma, _) in sigmas.items():
            try:
                solved[key] = _stack_solves([data[key].values], [sigma], solver)[0]
            except Exception as exc:
                failures += 1
                log.error("%s: %s: %s", _key_name(key), failed, exc)
    return {key: sigmas[key] + solved[key] for key in solved}, failures


def cmd_denoise(config: RunConfig, args) -> int:
    data = ingest(args.input, min_records=config.min_records,
                  min_length_m=config.min_road_length_m)
    solved, failures = _solve_all(data, config, args, "denoise failed")
    out_rows = ["road_id,day,slice,velocity,denoised_velocity"]
    diagnostics = {}
    for key, (sigma, estimate, denoised, diag) in solved.items():
        prefix = f"{key[0]},{key[1]},"
        out_rows += [f"{prefix}{i},{v!r},{u!r}" for i, (v, u) in
                     enumerate(zip(data[key].values.tolist(), denoised.tolist()), start=1)]
        diagnostics[_key_name(key)] = {
            "sigma": sigma,
            "sigma_flags": list(estimate.flags) if estimate is not None else [],
            **diag,
        }
    out_dir = Path(config.out_dir)
    _write_text(out_dir, "denoised.csv", "\n".join(out_rows) + "\n")
    _write_json(out_dir, "denoise_diagnostics.json", diagnostics)
    return _exit_code(len(diagnostics), failures)


def cmd_estimate(config: RunConfig, args) -> int:
    data = ingest(args.input, min_records=config.min_records,
                  min_length_m=config.min_road_length_m)
    report = {}
    failures = 0
    for key in sorted(data):
        try:
            est = _estimate(data[key], config)
        except Exception as exc:
            failures += 1
            log.error("%s: sigma estimate failed: %s", _key_name(key), exc)
            continue
        report[_key_name(key)] = {
            "sigma1": est.sigma1,
            "sigma2": est.sigma2,
            "sigma_best": est.sigma_best,
            "tv_lower": est.tv_lower,
            "tv_curve": [list(p) for p in est.tv_curve],
            "delta_curve": [list(p) for p in est.delta_curve],
            "flags": list(est.flags),
        }
    _write_json(Path(config.out_dir), "sigma_estimates.json", report)
    return _exit_code(len(report), failures)


def cmd_cluster(config: RunConfig, args) -> int:
    data = ingest(args.input, min_records=config.min_records_cluster,
                  min_length_m=config.min_road_length_m)
    if args.no_denoise:
        keys, failures = sorted(data), 0
        profiles = [data[key].values for key in keys]
    else:
        solved, failures = _solve_all(data, config, args, "profile preparation failed")
        keys = list(solved)
        profiles = [solved[key][2] for key in keys]
    if len(keys) < 2:
        log.error("clustering needs at least 2 road-days, have %d", len(keys))
        return 1
    result = cluster(np.array(profiles), dc_percentile=config.dc_percentile, k=config.k)

    names = [_key_name(k) for k in keys]
    graph = ["road_id,rho,delta,gamma"]
    assigns = ["road_id,cluster,is_core"]
    embed = ["road_id,x,y"]
    for i, name in enumerate(names):
        graph.append(f"{name},{float(result.rho[i])!r},"
                     f"{float(result.delta[i])!r},{float(result.gamma[i])!r}")
        assigns.append(f"{name},{int(result.assignment[i])},{str(bool(result.is_core[i])).lower()}")
        embed.append(f"{name},{float(result.embedding[i, 0])!r},{float(result.embedding[i, 1])!r}")
    out_dir = Path(config.out_dir)
    _write_text(out_dir, "decision_graph.csv", "\n".join(graph) + "\n")
    _write_text(out_dir, "assignments.csv", "\n".join(assigns) + "\n")
    _write_text(out_dir, "embedding.csv", "\n".join(embed) + "\n")
    _write_json(out_dir, "cluster_summary.json", {
        "k": result.k,
        "d_c": result.d_c,
        "centers": [names[i] for i in result.centers],
        "flags": list(result.flags),
    })
    return _exit_code(len(keys), failures)


def cmd_predict(config: RunConfig, args) -> int:
    data = ingest(args.input, min_records=config.min_records,
                  min_length_m=config.min_road_length_m)
    by_road: dict[str, list] = {}
    for road_id, day in sorted(data):
        by_road.setdefault(road_id, []).append(data[(road_id, day)])

    rows = ["road_id,day,slice,velocity,prediction_raw,prediction_denoised"]
    metrics = {}
    failures = 0
    for road_id in sorted(by_road):
        days = by_road[road_id]
        if len(days) < 2:
            failures += 1
            log.error("%s: need at least 2 days (history plus target), have %d",
                      road_id, len(days))
            continue
        history = [_unit_spaced(d) for d in days[:-1]]
        target = _unit_spaced(days[-1])
        try:
            comparison = compare_pipelines(
                history, target,
                sigma=None if args.sigma is None else float(args.sigma),
                solver=_pipeline_solver(config),
                sigma_grid=config.sigma_grid,
                dc_percentile=config.dc_percentile,
                k=config.k,
                include_denoised=not args.no_denoise,
            )
        except Exception as exc:
            failures += 1
            log.error("%s: prediction failed: %s", road_id, exc)
            continue
        raw, den = comparison.raw, comparison.denoised
        for i, slice_no in enumerate(raw.slices):
            den_cell = "" if den is None else repr(float(den.predictions[i]))
            rows.append(f"{road_id},{target.day},{int(slice_no)},"
                        f"{float(target.values[slice_no - 1])!r},"
                        f"{float(raw.predictions[i])!r},{den_cell}")
        entry = {"sigma": comparison.sigma, "d_c": comparison.d_c, "raw": _errors_entry(raw)}
        if den is not None:
            entry["denoised"] = _errors_entry(den)
        metrics[road_id] = entry
    out_dir = Path(config.out_dir)
    _write_text(out_dir, "predictions.csv", "\n".join(rows) + "\n")
    _write_json(out_dir, "prediction_metrics.json", metrics)
    return _exit_code(len(metrics), failures)


def _errors_entry(report) -> dict:
    # MAPE is NaN when no target slice is above 1, RMAE when every target
    # slice is 0; JSON has no NaN, so null
    rmae, mape = (None if np.isnan(x) else x for x in (report.rmae, report.mape))
    return {"rmae": rmae, "mape": mape, "mape_retained_count": report.mape_retained_count}


def cmd_table1(config: RunConfig, args) -> int:
    rows = run_table1(trials=config.table1_trials, base_seed=config.seed)
    _write_text(Path(config.out_dir), "table1.csv", table1_csv(rows))
    return 0


def _exit_code(successes: int, failures: int) -> int:
    """Nonzero only when nothing succeeded."""
    if successes == 0:
        log.error("no road-day processed successfully (%d failed)", failures)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", help="record CSV path")
    shared.add_argument("--out-dir", help="output directory")
    shared.add_argument("--config", help="key=value configuration file")
    shared.add_argument("--sigma", type=float, help="fixed noise strength override")
    shared.add_argument("--grid", help="sigma sweep grid, comma-separated")
    shared.add_argument("--k", type=int, help="fixed cluster count")
    shared.add_argument("--dc-percentile", type=float, dest="dc_percentile",
                        help="cutoff-distance percentile")
    shared.add_argument("--seed", type=int, help="base seed for seeded runs")
    shared.add_argument("--no-denoise", action="store_true",
                        help="run on raw series only, skipping the denoised variant")

    parser = argparse.ArgumentParser(prog="tvroad",
                                     description="Traffic-velocity denoising toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("denoise", parents=[shared], help="denoise each road-day")
    sub.add_parser("estimate-sigma", parents=[shared], help="noise-strength estimates")
    sub.add_parser("cluster", parents=[shared], help="density-peaks clustering of profiles")
    sub.add_parser("predict", parents=[shared], help="history-matching prediction")
    sub.add_parser("table1", parents=[shared], help="noise-estimator benchmark table")
    return parser


def _resolve_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = config_from_text(Path(args.config).read_text(encoding="utf-8"))
    if args.sigma is not None:
        SolverConfig(sigma=args.sigma)  # a --sigma no solve can take is a usage error
    overrides = {}
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.grid is not None:
        overrides["sigma_grid"] = _CONFIG_PARSERS["sigma_grid"](args.grid)
    if args.k is not None:
        overrides["k"] = args.k
    if args.dc_percentile is not None:
        overrides["dc_percentile"] = args.dc_percentile
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(config, **overrides) if overrides else config


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except (OSError, ValueError) as exc:  # an unreadable config file or a bad setting
        log.error("bad configuration: %s", exc)
        return 2
    commands = {
        "denoise": cmd_denoise,
        "estimate-sigma": cmd_estimate,
        "cluster": cmd_cluster,
        "predict": cmd_predict,
        "table1": cmd_table1,
    }
    if args.command != "table1" and not args.input:
        log.error("--input is required for %s", args.command)
        return 2
    if args.command == "estimate-sigma" and args.sigma is not None:
        log.error("--sigma does not apply to estimate-sigma, which estimates it")
        return 2
    try:
        return commands[args.command](config, args)
    except Exception as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
