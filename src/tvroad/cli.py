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
from itertools import chain, compress, islice
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
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        _validate_grid(self.sigma_grid)
        for sigma in self.sigma_grid:
            SolverConfig(sigma=sigma)  # a grid point no solve can take is a usage error


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
# Rows per chunk: only one chunk's lines and rows are alive at a time, so
# memory stays flat in the file's length.
_CHUNK_ROWS = 4096
# Code points that numpy's reader keeps of a road_id, day or road_length_m
# cell, and of a slice cell (1..288 has at most three digits).  These fixed
# widths, not the longest line, set a chunk's memory; a cell that fills its
# field may have been cut short, so its chunk is read again by the csv
# reader.
_TEXT_WIDTH = 32
_SLICE_WIDTH = 4


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


def _lengths(cells: list, runs=1) -> tuple:
    """(positions of the non-blank length cells, their lengths) of a length
    column given as runs of equal cells: ``cells`` holds a run's cell and
    ``runs`` the run sizes, one cell each by default.  Each distinct cell
    is read once, by Python's ``float``."""
    parsed = {cell: float(cell) for cell in dict.fromkeys(cells) if cell.strip()}
    given = np.repeat(np.fromiter(map(parsed.__contains__, cells), bool, len(cells)), runs)
    values = np.repeat(np.array([parsed.get(cell, 0.0) for cell in cells]), runs)
    return np.flatnonzero(given), values[given]


def _codes(table: np.ndarray, name: str) -> np.ndarray:
    """The (rows, width) code points of a string field of ``table``, as a
    view, not a copy."""
    dtype, offset = table.dtype.fields[name][:2]
    return np.ndarray((len(table), dtype.itemsize // 4), np.uint32, table, offset,
                      (table.itemsize, 4))


# Deleting these bytes from an ASCII chunk leaves what makes it not plain:
# quotes and control characters other than the line feed.
_PLAIN_ASCII = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"


def _plain_lines(lines: list) -> list | None:
    """lines with each CR LF end made a LF end, if they then have no quote
    and no character but the line feed that is not printable; else None.

    The file is read with ``newline=""``, so a CR ends a line: a CR that a
    LF follows is a CR LF end, and any other CR is not plain.  ASCII lines
    take a fast form of the test."""
    text = "".join(lines)
    crlf = "\r" in text
    if crlf:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    data = text.encode("utf-8")
    if data.isascii():
        if data.translate(None, _PLAIN_ASCII):
            return None
    elif '"' in text or not text.replace("\n", "").isprintable():
        return None
    # plain text breaks lines at its line feeds alone
    return text.splitlines(keepends=True) if crlf else lines


def _then_raise(lines: list, exc: Exception):
    """Yield ``lines``, then raise ``exc``: a csv reader over this meets a
    read error where the file gave it, after the rows before it."""
    yield from lines
    raise exc


class _Records:
    """The checked records of one file, as a (road-day, slice) grid.

    Records arrive a chunk at a time, either as raw lines (``add_plain``)
    or as csv reader rows (``add``).  Both parse a chunk whole into columns
    and store it through ``_store``, which checks it as if it were clean
    and builds the grid row of each run of equal (road_id, day) cells.
    Only a chunk that fails a check is walked row by row, as reader rows,
    through ``_row_error``, to find its first bad row: that walk is the one
    place that words a malformed row's error.
    """

    def __init__(self, path, cols: tuple, length_col: int | None):
        self.path = path
        self.cols = cols  # road_id, day, slice, velocity column indices
        self.length_col = length_col
        self.ids: dict[tuple[str, str], int] = {}  # (road_id, day) -> grid row
        self.dates: set[str] = set()  # day strings that passed _check_day
        self.values = np.empty((0, DEFAULT_SLICES))
        self.observed = np.zeros((0, DEFAULT_SLICES), dtype=bool)
        self.lengths: dict[int, float] = {}  # grid row -> last road length given
        fields = [("road_id", f"U{_TEXT_WIDTH}"), ("day", f"U{_TEXT_WIDTH}"),
                  ("slice", f"U{_SLICE_WIDTH}"), ("velocity", "f8")]
        self.usecols = list(cols)
        if length_col is not None:
            fields.append(("length", f"U{_TEXT_WIDTH}"))
            self.usecols.append(length_col)
        self.dtype = np.dtype(fields)

    def add_plain(self, lines: list, first_line: int) -> bool:
        """Check and store a chunk of raw lines, the first at file line
        ``first_line``, if it is plain; return False, storing nothing, if
        it is not.

        Plain lines, once a CR before their LF is dropped, have no quote,
        no character but their line feed that is not printable (so no
        other CR, no NUL and no whitespace but the space), and none is
        longer than the csv reader's field size limit.  The csv reader's
        row of such a line is exactly its ``split(",")``, with or without
        that CR, and a number cell that numpy's C reader takes it reads as
        Python's ``float`` does.  A plain chunk with an empty line, or one
        that fails a parse or a check, is read again by the csv reader, as
        reader rows.
        """
        lines = _plain_lines(lines)
        if lines is None or max(map(len, lines)) > csv.field_size_limit():
            return False
        # numpy's reader skips an empty line, some versions with a warning
        columns = None if "\n" in lines else self._columns(lines)
        if columns is None or not self._store(*columns, first_line + np.arange(len(lines))):
            self.add(list(csv.reader(lines)), first_line)
        return True

    def _columns(self, lines: list) -> tuple | None:
        """The ``_store`` columns of plain, non-empty lines, read in one
        C reader call, or None where that reader cannot vouch for a cell:
        it fails, it cut a cell short, a slice cell is not one to three
        ASCII digits (the csv path gives Python's ``int`` the rest), or a
        length cell is not a number."""
        try:
            table = np.loadtxt(lines, dtype=self.dtype, delimiter=",", comments=None,
                               usecols=self.usecols, ndmin=1)
        except ValueError:
            return None
        texts = [name for name in table.dtype.names if table.dtype[name].kind == "U"]
        codes = _codes(table, "slice")
        digits = (codes >= ord("0")) & (codes <= ord("9"))
        if (len(table) != len(lines) or any(_codes(table, name)[:, -1].any() for name in texts)
                or not digits[:, 0].all() or not (digits | (codes == 0)).all()):
            return None
        s = np.zeros(len(table), np.intp)
        for col, digit in zip(codes.T, digits.T):
            s = np.where(digit, 10 * s + col.astype(np.intp) - ord("0"), s)
        lengths = None
        if self.length_col is not None:
            column = table["length"]
            starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
            try:
                lengths = _lengths(column[starts].tolist(), np.diff(starts, append=len(column)))
            except ValueError:
                return None
        return table["road_id"], table["day"], s, table["velocity"], lengths

    def add(self, rows: list, first_line: int) -> None:
        """Check and store one chunk of reader rows, the first at file line
        ``first_line``; raise for the chunk's first bad row."""
        lines = np.arange(first_line, first_line + len(rows))
        filled = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
        if not filled.all():
            rows, lines = list(compress(rows, filled)), lines[filled]
        self._add_rows(rows, lines)

    def _add_rows(self, rows: list, lines: np.ndarray) -> None:
        """Check and store the non-blank ``rows``, at file lines ``lines``;
        for a bad row, first store the rows before it, so that a duplicate
        among them is reported ahead of it, then raise for it."""
        road_col, day_col, slice_col, speed_col = self.cols
        try:
            # a short row raises IndexError, a bad cell ValueError and a
            # slice past the integer range OverflowError
            columns = (np.array(list(map(itemgetter(road_col), rows)), dtype=object),
                       np.array(list(map(itemgetter(day_col), rows)), dtype=object),
                       np.array(list(map(int, map(itemgetter(slice_col), rows))), dtype=np.intp),
                       np.array(list(map(float, map(itemgetter(speed_col), rows)))),
                       None if self.length_col is None else _lengths(
                           [row[self.length_col] if len(row) > self.length_col else ""
                            for row in rows]))
        except (IndexError, ValueError, OverflowError):
            columns = None
        if columns is None or not self._store(*columns, lines):
            errors = (_row_error(row, self.cols, self.length_col) for row in rows)
            end, message = next((i, m) for i, m in enumerate(errors) if m is not None)
            self._add_rows(rows[:end], lines[:end])
            raise ValueError(f"{self.path}: line {lines[end]}: {message}") from None

    def _store(self, roads: np.ndarray, days: np.ndarray, s: np.ndarray, v: np.ndarray,
               lengths: tuple | None, lines: np.ndarray) -> bool:
        """Check and store parsed rows at file lines ``lines``: their raw
        road_id and day cells, slices, velocities and (positions of the
        rows giving a length, their lengths).  Keys are stripped and checked
        once per run of equal cells.  Return False, storing nothing, if a
        check fails; raise for the first duplicate record."""
        n = len(s)
        if not n:
            return True
        starts = np.flatnonzero(np.r_[True, (roads[1:] != roads[:-1]) | (days[1:] != days[:-1])])
        run_roads = [road.strip() for road in roads[starts].tolist()]
        run_days = [day.strip() for day in days[starts].tolist()]
        try:
            for day in set(run_days) - self.dates:
                _check_day(day)
                self.dates.add(day)
        except ValueError:
            return False
        if "" in run_roads or ((s < 1) | (s > DEFAULT_SLICES) | ~(np.isfinite(v) & (v >= 0))).any():
            return False

        g = np.repeat(self._grid_rows(list(zip(run_roads, run_days))), np.diff(starts, append=n))
        slot = s - 1
        flat = g * DEFAULT_SLICES + slot
        order = np.argsort(flat, kind="stable")
        dup = self.observed[g, slot]  # a copy seen in an earlier chunk
        dup[order[1:][flat[order[1:]] == flat[order[:-1]]]] = True  # or earlier in this one
        if dup.any():
            i = int(np.flatnonzero(dup)[0])
            run = int(np.searchsorted(starts, i, side="right")) - 1
            raise ValueError(f"{self.path}: line {lines[i]}: duplicate record for "
                             f"road_id={run_roads[run]} day={run_days[run]} slice={s[i]}")
        self.values[g, slot] = v
        self.observed[g, slot] = True
        if lengths is not None:
            # the last length of each run of equal grid rows; a later run wins
            rows = g[lengths[0]]
            last = np.diff(rows, append=-1) != 0
            self.lengths.update(zip(rows[last].tolist(), lengths[1][last].tolist()))
        return True

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
    is reported at its second copy.  Road-days with fewer than
    min_records observed slices are skipped with a log line.  Remaining
    gaps are filled by nearest-in-time interpolation.

    Records are read in chunks of ``_CHUNK_ROWS`` raw lines.  A plain
    chunk (see ``_Records.add_plain``), with LF or CR LF line ends, is
    parsed by numpy's C reader in one call.  Quoted fields, a CR on its
    own, control characters and over-long lines need the csv module's
    rules, and a quoted field may span lines and so chunks: from the first
    chunk that is not plain on, ``csv.reader`` reads the rest of the file.
    Either way a chunk is parsed and checked whole, and its first bad row
    is looked for only when a check fails.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        if header[: len(_REQUIRED)] != list(_REQUIRED):
            raise ValueError(f"{path}: header must start with {','.join(_REQUIRED)}")
        col = {name: i for i, name in enumerate(header)}
        records = _Records(path, tuple(col[name] for name in _REQUIRED), col.get(LENGTH_COLUMN))
        line, reader = 2, None
        while reader is None:
            lines = []
            try:
                lines.extend(islice(fh, _CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                reader = csv.reader(_then_raise(lines, exc))
            else:
                if not lines:
                    return records.road_days(min_records, min_length_m)
                if records.add_plain(lines, line):
                    line += len(lines)
                else:
                    reader = csv.reader(chain(lines, fh))
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


def _run_reprs(x: np.ndarray) -> list[str]:
    """``repr`` of each float of x, made once per run of equal bits: a TV
    solution is piecewise constant, so a day has a few runs of many
    slices."""
    x = np.ascontiguousarray(x, dtype=float)
    bits = x.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]][: x.size])
    texts = []
    for value, count in zip(x[starts].tolist(), np.diff(np.r_[starts, x.size]).tolist()):
        texts += [repr(value)] * count
    return texts


def _write_text(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _write_json(out_dir: Path, name: str, payload) -> None:
    _write_text(out_dir, name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _estimates(data: dict, config: RunConfig, failed: str) -> tuple:
    """({key: SigmaEstimate} of every road-day whose estimate over the
    configured grid succeeds, in key order, and the number that failed,
    each logged as "<road>/<day>: <failed>: <error>" in key order."""
    estimates, failures = {}, 0
    for key in sorted(data):
        try:
            estimates[key] = estimate_sigma(data[key].values, sigma_grid=config.sigma_grid,
                                            solver=_pipeline_solver(config), h=1.0)
        except Exception as exc:
            failures += 1
            log.error("%s: %s: %s", _key_name(key), failed, exc)
    return estimates, failures


def _solve_all(data: dict, config: RunConfig, args, failed: str) -> tuple:
    """({key: (sigma, SigmaEstimate or None, denoised, diagnostics)} of every
    road-day that solves, in key order, and the number that failed.

    Each road-day takes the --sigma override or its own estimated sigma,
    then all of them are solved as one stack: each denoised series is its
    lone solve's bit for bit, and its diagnostics are what that solve
    reports.  A road-day whose solve fails is left out, so a failing one
    fails alone.  A failure is logged as "<road>/<day>: <failed>:
    <error>", the sigma failures first, then the solve failures, each in
    key order.
    """
    solver = _pipeline_solver(config)
    if args.sigma is not None:
        sigmas, failures = {key: (float(args.sigma), None) for key in sorted(data)}, 0
    else:
        estimates, failures = _estimates(data, config, failed)
        sigmas = {key: (est.sigma_best, est) for key, est in estimates.items()}
    if not sigmas:
        return {}, failures
    values = [data[key].values for key in sigmas]
    u = np.concatenate(values)
    heads = np.append(0, np.cumsum([v.size for v in values]))
    x, iterations, saturated, errors = _denoise_stack(
        u, heads, [sigma for sigma, _ in sigmas.values()], solver, h=1.0)
    solved = {}
    for r, (key, lo, hi) in enumerate(zip(sigmas, heads[:-1].tolist(), heads[1:].tolist())):
        if r in errors:
            log.error("%s: %s: %s", _key_name(key), failed, errors[r])
            continue
        residual, converged = _residual(x[lo:hi], u[lo:hi], sigmas[key][0], 1.0, solver.rel_tol)
        solved[key] = sigmas[key] + (x[lo:hi], {
            "iterations": int(iterations[r]), "converged": converged,
            "saturated": bool(saturated[r]), "final_tv": total_variation(x[lo:hi]),
            "constraint_residual": residual})
    return solved, failures + len(errors)


def cmd_denoise(config: RunConfig, args) -> int:
    data = ingest(args.input, min_records=config.min_records,
                  min_length_m=config.min_road_length_m)
    solved, failures = _solve_all(data, config, args, "denoise failed")
    out_rows = ["road_id,day,slice,velocity,denoised_velocity"]
    diagnostics = {}
    cells = [f"{i}," for i in range(1, DEFAULT_SLICES + 1)]  # every ingested day has these slices
    for key, (sigma, estimate, denoised, diag) in solved.items():
        prefix = f"{key[0]},{key[1]},"
        out_rows += [f"{prefix}{cell}{v!r},{u}" for cell, v, u in
                     zip(cells, data[key].values.tolist(), _run_reprs(denoised))]
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
    estimates, failures = _estimates(data, config, "sigma estimate failed")
    report = {}
    for key, est in estimates.items():
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
        profiles, failures = {key: data[key].values for key in sorted(data)}, 0
    else:
        solved, failures = _solve_all(data, config, args, "profile preparation failed")
        profiles = {key: entry[2] for key, entry in solved.items()}
    # (a - b)^2 <= 2 a^2 + 2 b^2, so profiles whose sums of squares stay
    # below an eighth of the float range keep every distance between them
    # finite; a profile past that bound fails alone
    with np.errstate(over="ignore"):
        sums = {key: float(np.sum(p * p)) for key, p in profiles.items()}
    for key, squares in sums.items():
        if not squares < sys.float_info.max / 8:
            del profiles[key]
            failures += 1
            log.error("%s: profile preparation failed: sum of squares %r could overflow "
                      "a distance", _key_name(key), squares)
    keys = list(profiles)
    if len(keys) < 2:
        log.error("clustering needs at least 2 road-days, have %d", len(keys))
        return 1
    result = cluster(np.array(list(profiles.values())), dc_percentile=config.dc_percentile,
                     k=config.k)

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
