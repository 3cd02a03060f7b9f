import csv
import dataclasses
import datetime
import itertools
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tvroad import cli
from tvroad import solver as solver_module
from tvroad.cli import RunConfig, config_from_text, ingest, main
from tvroad.cluster import cluster
from tvroad.noise import DEFAULT_SIGMA_GRID, estimate_sigma
from tvroad.series import DEFAULT_SLICE_MINUTES, DEFAULT_SLICES, VelocitySeries, nearest_interpolate
from tvroad.solver import SolverConfig, denoise_values
from tvroad.synth import two_regime_corpus

HEADER = "road_id,day,slice,velocity"


def _reference_ingest(path, *, min_records: int = 150, min_length_m: float | None = None):
    """The one-row-at-a-time ingest that cli.ingest replaced: the oracle
    for its results, error messages and skip log lines."""
    groups: dict[tuple[str, str], dict[int, float]] = {}
    lengths: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        required = ["road_id", "day", "slice", "velocity"]
        if header[: len(required)] != required:
            raise ValueError(f"{path}: header must start with {','.join(required)}")
        col = {name: i for i, name in enumerate(header)}
        length_col = col.get(cli.LENGTH_COLUMN)

        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                road_id = row[col["road_id"]].strip()
                day = row[col["day"]].strip()
                slice_no = int(row[col["slice"]])
                velocity = float(row[col["velocity"]])
                if not road_id:
                    raise ValueError("empty road_id")
                if datetime.date.fromisoformat(day).isoformat() != day:
                    raise ValueError(f"day {day!r} is not written as YYYY-MM-DD")
                if not (1 <= slice_no <= DEFAULT_SLICES):
                    raise ValueError(f"slice {slice_no} outside 1..{DEFAULT_SLICES}")
                if not (np.isfinite(velocity) and velocity >= 0):
                    raise ValueError(f"velocity {velocity} not a nonnegative finite number")
                length = None
                if length_col is not None and length_col < len(row) and row[length_col].strip():
                    length = float(row[length_col])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None

            key = (road_id, day)
            slices = groups.setdefault(key, {})
            if slice_no in slices:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate record for "
                    f"road_id={road_id} day={day} slice={slice_no}"
                )
            slices[slice_no] = velocity
            if length is not None:
                lengths[key] = length

    result = {}
    for key in sorted(groups):
        road_id, day = key
        slices = groups[key]
        if min_length_m is not None and key in lengths and lengths[key] < min_length_m:
            cli.log.info("%s/%s: skipped, road length %.0f m below %.0f m",
                         road_id, day, lengths[key], min_length_m)
            continue
        if len(slices) < min_records:
            cli.log.info("%s/%s: skipped, %d records below the minimum of %d",
                         road_id, day, len(slices), min_records)
            continue
        result[key] = nearest_interpolate(
            slices.items(), DEFAULT_SLICES, road_id=road_id, day=day, h=DEFAULT_SLICE_MINUTES
        )
    return result


# Injected faults: each turns one data row's cells into a bad row.
FAULTS = {
    "short": lambda cells, rng, lc: cells[: rng.integers(1, 4)],
    "bad-slice": lambda cells, rng, lc: _set(cells, 2, rng.choice(["x5", "5.0", "", "5 5"])),
    "bad-velocity": lambda cells, rng, lc: _set(cells, 3, rng.choice(["fast", "", "1.5.0", "1e"])),
    "slice-range": lambda cells, rng, lc: _set(cells, 2, rng.choice(
        ["0", "289", "-3", " 300 ", "99999999999999999999999", "-99999999999999999999999"])),
    "negative-velocity": lambda cells, rng, lc: _set(cells, 3, rng.choice(["-3", "-1e-300"])),
    "nan-velocity": lambda cells, rng, lc: _set(cells, 3, rng.choice(["nan", " NaN"])),
    "inf-velocity": lambda cells, rng, lc: _set(cells, 3, rng.choice(["inf", "-inf", "1e999"])),
    "empty-road": lambda cells, rng, lc: _set(cells, 0, rng.choice(["", "  "])),
    "bad-date": lambda cells, rng, lc: _set(cells, 1, rng.choice(
        ["2026-13-01", "not-a-date", "", "20260201", "2026-W05-7"])),
    "bad-length": lambda cells, rng, lc: _set(cells, lc, "long") if lc is not None else cells[:2],
}


def _set(cells, i, value):
    return cells[:i] + [value] + cells[i + 1:]


@st.composite
def record_files(draw):
    """(csv text, min_records, min_length_m) for a generated record
    file: a few road-days in grouped or shuffled order, numbers written in
    several accepted forms, blank rows, extra columns, an optional length
    column given on some rows, and up to two injected faults, each at a
    random line, often the same one (a duplicate repeats an earlier row
    further down)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = ["road_id", "day", "slice", "velocity"] + ["weather"] * draw(st.integers(1, 2))
    length_col = None
    if draw(st.booleans()):
        length_col = draw(st.integers(4, len(columns)))
        columns.insert(length_col, cli.LENGTH_COLUMN)
    road_days = draw(st.lists(st.tuples(st.sampled_from(["r1", " r2", "r3 "]),
                                        st.sampled_from(["2026-01-01", " 2026-01-02", "2026-01-03 "])),
                              min_size=1, max_size=4, unique=True))
    rows = []
    for road, day in road_days:
        n = draw(st.sampled_from([1, 5, 20, 60, 288]))
        for s in rng.choice(np.arange(1, DEFAULT_SLICES + 1), size=n, replace=False):
            v = float(rng.choice([0.0, -0.0, 1.0, 30.0])) + float(rng.random()) * 60.0
            cells = [road, day, str(rng.choice([f"{s}", f" {s}", f"{s:03d}"])),
                     str(rng.choice([repr(v), f"{v:.1f}", f" {v:.3e} ", f"{int(v)}"]))]
            cells += ["sunny"] * (len(columns) - 4)
            if length_col is not None:
                # the last counts; Python's float reads "1_000.5", and the
                # 42-character cell is longer than a plain chunk's text field
                cells[length_col] = str(rng.choice(["", "50", "150.5", " 99 ", "1_000.5",
                                                    "0" * 40 + "50"]))
                if length_col == len(columns) - 1 and rng.random() < 0.2:
                    cells.pop()  # a row may end before the length column
            rows.append(cells)
    if draw(st.booleans()):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    faults = draw(st.lists(st.one_of(st.just("duplicate"), st.sampled_from(sorted(FAULTS))),
                           max_size=2))
    at = draw(st.integers(0, len(rows) - 1))
    for fault in faults:
        at = draw(st.one_of(st.just(at), st.integers(0, len(rows) - 1)))  # often on one row
        if fault == "duplicate":
            rows.insert(draw(st.integers(at + 1, len(rows))), list(rows[at]))
        else:
            rows[at] = FAULTS[fault](rows[at], rng, length_col)
    for _ in range(draw(st.integers(1, 3))):
        rows.insert(draw(st.integers(0, len(rows))), rng.choice(["", ",,,", " , "]).split(","))
    lines = [",".join(columns)] + [",".join(cells) for cells in rows]
    min_records = draw(st.sampled_from([1, 10, 150]))
    min_length_m = draw(st.sampled_from([None, 100.0]))
    return "\n".join(lines) + "\n", min_records, min_length_m


# Inputs with a feature the plain-chunk test must judge: each is a record
# file with a note column whose rows from index 200 on (file line 202)
# carry the feature.  The csv reader reads all or part of each, except the
# CR LF ends of "crlf" and "mixed-crlf", which are plain.
FALLBACK_KINDS = ["quoted", "crlf", "nul", "non-ascii", "underscore", "float-slice",
                  "trailing-comma", "quoted-tail", "bad-utf8", "mixed-crlf", "bare-cr"]


def _fallback_file(kind: str) -> tuple[bytes, int]:
    """(bytes of a record file of the given kind, index of its first line
    with the feature among the file's lines, the header at 0): a chunk of
    that many rows ends on that line."""
    rng = np.random.default_rng(7)
    rows = [[road, day, str(s), repr(float(v)), "ok"]
            for road, day in itertools.product(["r1", "r2"], ["2026-03-01", "2026-03-02"])
            for s, v in zip(range(1, 151), rng.uniform(0.0, 60.0, 150))]
    at, end = 200, "\n"
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    if kind == "quoted":
        for row in rows[at:at + 50]:
            row[0] = '"r,1"'  # a quoted comma
        rows[at][4] = '"two\nlines"'  # a quoted newline
    elif kind == "crlf":
        at, end = 0, "\r\n"
    elif kind == "nul":
        rows[at][4] = "a\0b"
    elif kind == "non-ascii":
        for row in rows[at:at + 20]:
            row[0] = "路-1"
        rows[at + 20][2] = rows[at + 20][2].translate(arabic)
        rows[at + 21][3] = rows[at + 21][3].translate(arabic)
    elif kind == "underscore":
        rows[at][3] = "1_5"
        rows[at + 1][2] = "_".join(rows[at + 1][2])
    elif kind == "float-slice":
        rows[at][2] += ".0"
    elif kind == "trailing-comma":
        at = 0
        for row in rows:
            row.append("")
    elif kind == "quoted-tail":
        rows[at:] = [[f'"{cell}"' for cell in row] for row in rows[at:]]
    elif kind == "bare-cr":
        rows[at][4] = "a\rb"  # a CR with no LF after it ends a csv record
    elif kind == "bad-utf8":
        # a quoted road_id whose line feeds span decoder blocks before the
        # byte 0xff: the reader fails inside the quote, and the open row
        # is lost with it
        rows[at][0] = '"r' + "\n" * 10_000 + '\udcff"'
    lines = [HEADER + ",note"] + [",".join(row) for row in rows]
    if kind == "mixed-crlf":  # LF ends, then CR LF ends from the feature's line on
        text = "".join(line + ("\r\n" if i > at else "\n") for i, line in enumerate(lines))
    else:
        text = end.join(lines) + end
    return text.encode("utf-8", "surrogateescape"), at + 1


def _ingest_outcome(read, path, caplog, **kwargs):
    """(road-days as plain data, or the error message; the log lines)."""
    caplog.clear()
    try:
        data = read(path, **kwargs)
    except ValueError as exc:
        result = str(exc)
    else:
        result = [(key, s.road_id, s.day, s.h, s.values.tolist(), s.observed_mask.tolist())
                  for key, s in data.items()]
    return result, [r.getMessage() for r in caplog.records]


@pytest.fixture(scope="module")
def road_days():
    road = two_regime_corpus(n_roads=1, n_days=2, seed=11)[0]
    return [noisy for _, noisy in road]


@pytest.fixture
def records_csv(road_days, write_records):
    return write_records(road_days)


def run_cli(*argv):
    return main(list(argv))


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.sigma_grid == DEFAULT_SIGMA_GRID
        assert config.k is None

    def test_grid_coerced_to_floats(self):
        config = RunConfig(sigma_grid=[0, 1, 5])
        assert config.sigma_grid == (0.0, 1.0, 5.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(max_iters=0)
        with pytest.raises(ValueError):
            RunConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(k=0)


class TestConfigText:
    def test_every_key_at_its_default_parses_to_defaults(self):
        text = ("max_iters = 5000\nrel_tol = 0.0001\n"
                "sigma_grid = 0,1,5,10,15,20,25,30,35,40,45,50\n"
                "dc_percentile = 2.0\nk =\nmin_records = 150\nmin_records_cluster = 120\n"
                "min_road_length_m = 100\nout_dir = out\nseed = 0\ntable1_trials = 100\n")
        assert config_from_text(text) == RunConfig()

    def test_custom_keys_parse(self):
        config = config_from_text("k = 3\nsigma_grid = 0, 2.0, 4\nout_dir = elsewhere\nseed = 9\n")
        assert config == RunConfig(k=3, sigma_grid=(0.0, 2.0, 4.0), out_dir="elsewhere", seed=9)

    def test_grid_that_is_not_a_sweep_grid_rejected(self):
        with pytest.raises(ValueError, match="sigma grid must start at 0"):
            config_from_text("sigma_grid = 1,2,3\n")

    def test_comments_and_blanks_ignored(self):
        config = config_from_text("# comment\n\nseed = 5  # trailing\n")
        assert config.seed == 5

    def test_empty_k_means_auto(self):
        assert config_from_text("k =\n").k is None

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            config_from_text("seed = 1\nbogus = 2\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="max_iters"):
            config_from_text("max_iters = many\n")

    def test_epsilon_is_an_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key 'epsilon'"):
            config_from_text("epsilon = 1e-6\n")

    def test_sweep_epsilon_is_an_unknown_key(self):
        # the solve has no smoothing to set any more
        with pytest.raises(ValueError, match="unknown key 'sweep_epsilon'"):
            config_from_text("sweep_epsilon = 0.1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            config_from_text("seed 5\n")


class TestIngest:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=record_files(), data=st.data())
    def test_matches_reference(self, case, data, tmp_path, caplog):
        text, min_records, min_length_m = case
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8")
        chunk = data.draw(st.integers(1, text.count("\n") + 2), label="chunk rows")
        caplog.set_level("INFO", logger="tvroad")
        kwargs = {"min_records": min_records, "min_length_m": min_length_m}
        want = _ingest_outcome(_reference_ingest, path, caplog, **kwargs)
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            got = _ingest_outcome(ingest, path, caplog, **kwargs)
        assert got == want

    @pytest.mark.parametrize("kind", FALLBACK_KINDS)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fallback_matches_reference(self, kind, data, tmp_path, caplog):
        raw, first = _fallback_file(kind)
        path = tmp_path / "records.csv"
        path.write_bytes(raw)
        # often the chunk whose last line starts the feature, so that a
        # quoted newline crosses into the next chunk
        chunk = data.draw(st.one_of(st.just(first), st.integers(1, raw.count(b"\n") + 2)),
                          label="chunk rows")
        caplog.set_level("INFO", logger="tvroad")

        def outcome(read):
            try:
                return _ingest_outcome(read, path, caplog, min_records=1)
            except csv.Error as exc:  # a NUL byte before Python 3.11
                return str(exc)

        want = outcome(_reference_ingest)
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            assert outcome(ingest) == want

    def test_plain_file_skips_the_csv_reader(self, write_records, monkeypatch):
        # a file as the batch-cli benchmark writes it, longer than one
        # chunk: the csv reader reads its header and no row after it
        days = [noisy for road in two_regime_corpus(n_roads=2, n_days=8, seed=4)
                for _, noisy in road]
        path = write_records(days)
        assert len(days) * DEFAULT_SLICES > cli._CHUNK_ROWS
        want = _reference_ingest(path)
        seen = []
        reader = csv.reader

        def counted(*args, **kwargs):
            for row in reader(*args, **kwargs):
                seen.append(row)
                yield row

        monkeypatch.setattr(cli.csv, "reader", counted)
        got = ingest(path)
        assert seen == [HEADER.split(",")]
        assert list(got) == list(want)
        for key, series in want.items():
            assert got[key].values.tobytes() == series.values.tobytes()
            assert np.array_equal(got[key].observed_mask, series.observed_mask)

    def test_blank_length_cells_skip_the_csv_reader(self, write_records, monkeypatch, caplog):
        # a road_length_m column given on road-1's rows only, blank on
        # road-2's: the csv reader reads the header and no row after it,
        # and the records and length skips equal the reference's
        days = [noisy for road in two_regime_corpus(n_roads=2, n_days=8, seed=4)
                for _, noisy in road]
        path = write_records(days, length_m={"road-1": 50.0})
        assert len(days) * DEFAULT_SLICES > cli._CHUNK_ROWS
        caplog.set_level("INFO", logger="tvroad")
        want = _ingest_outcome(_reference_ingest, path, caplog, min_length_m=100.0)
        seen = []
        reader = csv.reader

        def counted(*args, **kwargs):
            for row in reader(*args, **kwargs):
                seen.append(row)
                yield row

        monkeypatch.setattr(cli.csv, "reader", counted)
        assert _ingest_outcome(ingest, path, caplog, min_length_m=100.0) == want
        assert seen == [[*HEADER.split(","), cli.LENGTH_COLUMN]]
        assert len(want[0]) == 8 and len(want[1]) == 8  # road-1's days skipped for length

    def test_crlf_file_skips_the_csv_reader(self, write_records, monkeypatch):
        # the same file with CR LF line ends, as spreadsheet exports write
        # it: the csv reader reads its header and no row after it, and the
        # records equal those of the LF file
        days = [noisy for road in two_regime_corpus(n_roads=2, n_days=8, seed=4)
                for _, noisy in road]
        path = write_records(days)
        crlf = path.with_name("crlf.csv")
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert len(days) * DEFAULT_SLICES > cli._CHUNK_ROWS
        want = ingest(path)
        seen = []
        reader = csv.reader

        def counted(*args, **kwargs):
            for row in reader(*args, **kwargs):
                seen.append(row)
                yield row

        monkeypatch.setattr(cli.csv, "reader", counted)
        got = ingest(crlf)
        assert seen == [HEADER.split(",")]
        assert list(got) == list(want)
        for key, series in want.items():
            assert got[key].values.tobytes() == series.values.tobytes()
            assert np.array_equal(got[key].observed_mask, series.observed_mask)

    def test_long_lines_keep_memory_bounded(self, tmp_path, caplog):
        # each row carries a 100,000-character note: the chunk holds its
        # lines, their join and an ASCII copy, about 3 times the file,
        # while the cells numpy's reader keeps have fixed widths (a key
        # field as wide as a line would add 2 x 4 x 100,000 bytes a row)
        note = "x" * 100_000
        rows = [HEADER + ",note"] + [f"r,2026-02-01,{s},{20.0 + s},{note}" for s in range(1, 41)]
        path = tmp_path / "long.csv"
        path.write_text("\n".join(rows) + "\n")
        want = _ingest_outcome(_reference_ingest, path, caplog, min_records=1)
        tracemalloc.start()
        try:
            got = _ingest_outcome(ingest, path, caplog, min_records=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5 * path.stat().st_size

    def test_row_with_two_faults_names_its_first_failing_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        rng = np.random.default_rng(0)
        for first, second in itertools.product(FAULTS, repeat=2):
            row = FAULTS[second](FAULTS[first](["r", "2026-02-01", "5", "20", "120"], rng, 4), rng, 4)
            path.write_text(f"{HEADER},{cli.LENGTH_COLUMN}\nr,2026-02-01,4,20,120\n"
                            f"{','.join(row)}\n")
            with pytest.raises(ValueError) as want:
                _reference_ingest(path)
            with pytest.raises(ValueError) as got:
                ingest(path)
            assert str(got.value) == str(want.value), (first, second)

    @pytest.mark.parametrize("bad_row", [None, "r,2026-02-01,5,fast"], ids=["alone", "bad-row-first"])
    def test_reader_error_comes_after_the_rows_before_it(self, tmp_path, bad_row):
        # a field over the csv module's size limit makes the reader raise
        # in the middle of a chunk; a bad row read before it is reported
        rows = [HEADER, "r,2026-02-01,1,20"] + [bad_row] * (bad_row is not None)
        rows += ["r,2026-02-01,2," + "9" * (csv.field_size_limit() + 1), "r,2026-02-01,3,20"]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises((ValueError, csv.Error)) as want:
            _reference_ingest(path)
        with mock.patch.object(cli, "_CHUNK_ROWS", 8), pytest.raises(type(want.value)) as got:
            ingest(path)
        assert str(got.value) == str(want.value)

    def test_full_days(self, records_csv):
        data = ingest(records_csv)
        assert sorted(data) == [("road-1", "2026-01-01"), ("road-1", "2026-01-02")]
        series = data[("road-1", "2026-01-01")]
        assert series.n_slices == 288 and series.h == 5.0
        assert series.observed_mask.all()

    def test_sparse_day_interpolated(self, tmp_path):
        rows = [HEADER] + [f"r,2026-02-01,{s},{20.0 + s}" for s in range(1, 201)]
        path = tmp_path / "sparse.csv"
        path.write_text("\n".join(rows) + "\n")
        data = ingest(path, min_records=150)
        series = data[("r", "2026-02-01")]
        assert series.n_slices == 288
        assert int(series.observed_mask.sum()) == 200
        # tail gaps copy the nearest observed slice
        assert series.values[-1] == 220.0

    def test_thin_day_skipped(self, tmp_path):
        rows = [HEADER] + [f"r,2026-02-01,{s},20" for s in range(1, 100)]
        path = tmp_path / "thin.csv"
        path.write_text("\n".join(rows) + "\n")
        assert ingest(path, min_records=150) == {}

    def test_short_road_dropped(self, road_days, write_records):
        path = write_records(road_days, length_m={"road-1": 50.0})
        assert ingest(path, min_length_m=100.0) == {}
        assert len(ingest(path, min_length_m=25.0)) == 2

    def test_duplicate_slice_is_hard_error(self, tmp_path):
        rows = [HEADER, "r,2026-02-01,5,20", "r,2026-02-01,5,21"]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="duplicate.*slice=5"):
            ingest(path)

    @pytest.mark.parametrize(
        "row",
        [
            "r,2026-02-01,5,fast",
            "r,2026-02-01,0,20",
            "r,2026-02-01,289,20",
            "r,2026-02-01,18446744073709551616,20",
            "r,not-a-date,5,20",
            "r,20260201,5,20",
            "r,2026-W05-7,5,20",
            "r,2026-02-01,5,-3",
            "r,2026-02-01,5,nan",
            ",2026-02-01,5,20",
        ],
    )
    def test_malformed_row_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n{row}\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "nohead.csv"
        path.write_text("a,b,c,d\nr,2026-02-01,5,20\n")
        with pytest.raises(ValueError, match="header"):
            ingest(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest(empty)

    def test_extra_columns_ignored(self, tmp_path):
        rows = [HEADER + ",weather"] + [f"r,2026-02-01,{s},20,sunny" for s in range(1, 161)]
        path = tmp_path / "extra.csv"
        path.write_text("\n".join(rows) + "\n")
        assert len(ingest(path)) == 1


class TestRecordRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(roads=st.lists(st.text("abrz09-_.", min_size=1, max_size=6), min_size=1, max_size=3,
                          unique=True),
           days=st.lists(st.dates(), min_size=1, max_size=2, unique=True), data=st.data())
    def test_ingest_denoise_at_sigma_0_ingest(self, roads, days, data):
        # road-days with gaps are read, written whole by denoise --sigma 0,
        # and read back
        min_records = RunConfig().min_records
        rows = [HEADER]
        for road, day in itertools.product(roads, days):
            values = data.draw(arrays(float, DEFAULT_SLICES, elements=st.floats(0.0, 200.0)))
            dropped = data.draw(st.sets(st.integers(1, DEFAULT_SLICES),
                                        max_size=DEFAULT_SLICES - min_records))
            rows += [f"{road},{day.isoformat()},{s},{v!r}"
                     for s, v in enumerate(values.tolist(), start=1) if s not in dropped]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            first = ingest(path, min_records=min_records)
            assert run_cli("denoise", "--input", str(path), "--out-dir", tmp, "--sigma", "0") == 0
            written = Path(tmp) / "denoised.csv"
            second = ingest(written, min_records=min_records)
            with open(written, newline="", encoding="utf-8") as fh:
                records = list(csv.DictReader(fh))
        assert list(second) == list(first) == sorted(itertools.product(
            roads, (day.isoformat() for day in days)))
        for key, series in first.items():
            assert second[key].values.tobytes() == series.values.tobytes()
        assert len(records) == DEFAULT_SLICES * len(first)
        assert all(r["denoised_velocity"] == r["velocity"] for r in records)


# the largest sigma whose square is finite, and the next float above it
LARGEST_SIGMA = math.sqrt(sys.float_info.max)
OVERFLOWING_SIGMA = float(np.nextafter(LARGEST_SIGMA, math.inf))


class TestStackedDenoise:
    """``denoise`` solves its road-days as one stack; each row is its lone
    solve's, diagnostics included."""

    @pytest.fixture
    def mixed_csv(self, road_days, write_records):
        # noisy days, a flat day and a day whose spread is below sigma 3
        # (sigma_max about 1.2), so that some rows walk and some saturate
        rng = np.random.default_rng(5)
        extra = [VelocitySeries("road-2", 1, np.full(288, 40.0), h=5.0),
                 VelocitySeries("road-3", 1, 30.0 + rng.normal(0.0, 0.1, 288), h=5.0),
                 VelocitySeries("road-4", 2, road_days[0].values[::-1], h=5.0)]
        return write_records(road_days + extra, name="mixed.csv")

    def test_fixed_sigma_walks_one_stack(self, write_records, tmp_path, monkeypatch):
        days = [noisy for road in two_regime_corpus(n_roads=2, n_days=12, seed=3)
                for _, noisy in road]
        path = write_records(days)
        calls = []
        walk_stack = solver_module._walk_stack

        def counted(*args, **kwargs):
            calls.append(args[1].size - 1)
            return walk_stack(*args, **kwargs)

        def no_walk(*args, **kwargs):
            raise AssertionError("a stack of road-days takes no lone walk")

        monkeypatch.setattr(solver_module, "_walk_stack", counted)
        monkeypatch.setattr(solver_module, "_walk", no_walk)
        out = tmp_path / "out"
        assert run_cli("denoise", "--input", str(path), "--out-dir", str(out),
                       "--sigma", "20") == 0
        assert len(json.loads((out / "denoise_diagnostics.json").read_text())) == 24
        assert calls == [24]

    # the capped rows end at 0.948-0.976 sigma^2 from the budget, on both
    # sides of rel_tol 0.96
    @pytest.mark.parametrize("argv,config_text", [
        (["--sigma", "0"], ""), (["--sigma", "3"], ""),
        (["--sigma", "3"], "max_iters = 3\nrel_tol = 0.96\n"),
        (["--sigma", repr(LARGEST_SIGMA)], ""), (["--grid", "0,1,5,10,20"], ""),
    ], ids=["sigma-0", "sigma-3", "capped", "largest-sigma", "estimated"])
    def test_outputs_equal_lone_solves(self, argv, config_text, mixed_csv, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(config_text)
        out = tmp_path / "out"
        assert run_cli("denoise", "--input", str(mixed_csv), "--out-dir", str(out),
                       "--config", str(conf), *argv) == 0
        config = config_from_text(config_text)
        solver = SolverConfig(sigma=0.0, max_iters=config.max_iters, rel_tol=config.rel_tol)
        data = ingest(mixed_csv, min_records=config.min_records)
        diag = json.loads((out / "denoise_diagnostics.json").read_text())
        rows = (out / "denoised.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 288 * len(data) == 288 * len(diag)
        kinds = set()
        for n, key in enumerate(sorted(data)):
            values = data[key].values
            sigma = float(argv[1]) if argv[0] == "--sigma" else estimate_sigma(
                values, sigma_grid=(0.0, 1.0, 5.0, 10.0, 20.0), solver=solver, h=1.0).sigma_best
            want = denoise_values(values, dataclasses.replace(solver, sigma=sigma), h=1.0)
            entry = diag[f"{key[0]}/{key[1]}"]
            assert entry["sigma"] == sigma
            assert {name: entry[name] for name in ("iterations", "converged", "saturated",
                                                   "final_tv", "constraint_residual")} == {
                "iterations": want.iterations, "converged": want.converged,
                "saturated": want.saturated, "final_tv": want.final_tv,
                "constraint_residual": want.constraint_residual}
            got = [float(line.split(",")[4]) for line in rows[288 * n:288 * (n + 1)]]
            assert got == want.denoised.tolist()
            kinds.add((want.saturated, want.converged, want.iterations == config.max_iters))
        if argv == ["--sigma", "3"]:  # rows that walk and rows that saturate
            assert {True, False} <= {saturated for saturated, _, _ in kinds}
        if config_text:  # rows capped short of the budget, within rel_tol and not
            assert {(False, True, True), (False, False, True)} <= kinds

    @pytest.mark.parametrize("command", ["denoise", "cluster", "predict"])
    def test_sigma_whose_square_overflows_is_usage_error(self, command, records_csv, tmp_path,
                                                         caplog):
        # float ** 2 used to raise OverflowError out of main, exit 1
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(records_csv), "--out-dir", str(out),
                       "--sigma", repr(OVERFLOWING_SIGMA)) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "its square overflows" in caplog.text
        assert not out.exists()


class TestRunReprs:
    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 40),
                    elements=st.sampled_from([0.0, -0.0, 1.5, np.nan, np.inf, 1e-310, 30.25])))
    def test_equal_each_floats_repr(self, x):
        # runs of equal values, signed zeros side by side, NaN and
        # subnormals: a run shares its repr only where the bits are equal
        assert cli._run_reprs(x) == [repr(v) for v in x.tolist()]

    def test_a_denoised_day_has_few_runs(self, road_days):
        solved = denoise_values(road_days[0].values, SolverConfig(sigma=20.0)).denoised
        texts = cli._run_reprs(solved)
        assert texts == [repr(v) for v in solved.tolist()]
        assert len(set(texts)) < len(texts) // 2


class TestCommands:
    @pytest.mark.parametrize("spelling", ["20260101", "2026-W01-4"])
    def test_other_spelling_of_a_date_is_rejected(self, road_days, write_records, tmp_path,
                                                  caplog, spelling):
        # both spellings name 2026-01-01 to date.fromisoformat on Python
        # 3.11 and later; read as given they would make a second road-day
        # of that date, out of reach of the duplicate check
        first, second = road_days
        renamed = VelocitySeries(second.road_id, spelling, second.values, h=second.h)
        path = write_records([first, renamed])
        rc = run_cli("denoise", "--input", str(path), "--out-dir", str(tmp_path / "out"),
                     "--sigma", "3")
        assert rc == 1
        assert f"line {2 + DEFAULT_SLICES}: day '{spelling}' is not written as YYYY-MM-DD" in caplog.text
        assert not (tmp_path / "out" / "denoised.csv").exists()

    def test_denoise_with_fixed_sigma(self, records_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("denoise", "--input", str(records_csv), "--out-dir", str(out),
                     "--sigma", "3")
        assert rc == 0
        lines = (out / "denoised.csv").read_text().strip().split("\n")
        assert lines[0] == "road_id,day,slice,velocity,denoised_velocity"
        assert len(lines) == 1 + 2 * 288
        road, day, slice_no, vel, den = lines[1].split(",")
        assert (road, day, slice_no) == ("road-1", "2026-01-01", "1")
        assert np.isfinite(float(vel)) and np.isfinite(float(den))
        diag = json.loads((out / "denoise_diagnostics.json").read_text())
        assert set(diag) == {"road-1/2026-01-01", "road-1/2026-01-02"}
        for entry in diag.values():
            assert entry["sigma"] == 3.0
            assert entry["iterations"] > 0

    def test_estimate_sigma(self, records_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("estimate-sigma", "--input", str(records_csv),
                     "--out-dir", str(out), "--grid", "0,1,5")
        assert rc == 0
        report = json.loads((out / "sigma_estimates.json").read_text())
        assert len(report) == 2
        for entry in report.values():
            assert entry["sigma_best"] >= 0.0
            assert len(entry["tv_curve"]) == 3
            assert len(entry["delta_curve"]) == 2
            assert entry["tv_lower"] > 0.0

    def test_cluster_raw_profiles(self, records_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("cluster", "--input", str(records_csv), "--out-dir", str(out),
                     "--no-denoise")
        assert rc == 0
        assigns = (out / "assignments.csv").read_text().strip().split("\n")
        assert len(assigns) == 3
        summary = json.loads((out / "cluster_summary.json").read_text())
        assert summary["k"] >= 1 and summary["d_c"] > 0
        embed = (out / "embedding.csv").read_text().strip().split("\n")
        name, x, y = embed[1].split(",")
        assert np.isfinite(float(x)) and np.isfinite(float(y))

    def test_cluster_fixed_sigma_denoises_at_that_sigma(self, records_csv, tmp_path, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("--sigma must replace the estimate")

        monkeypatch.setattr(cli, "estimate_sigma", no_estimate)
        out = tmp_path / "out"
        rc = run_cli("cluster", "--input", str(records_csv), "--out-dir", str(out),
                     "--sigma", "3")
        assert rc == 0
        data = ingest(records_csv, min_records=RunConfig().min_records_cluster)
        solver = SolverConfig(sigma=3.0)
        profiles = [denoise_values(data[key].values, solver).denoised for key in sorted(data)]
        expected = cluster(np.array(profiles))
        graph = (out / "decision_graph.csv").read_text().strip().split("\n")[1:]
        assert [float(line.split(",")[1]) for line in graph] == expected.rho.tolist()

    def test_denoise_with_estimated_sigmas_matches_lone_solves(self, road_days, write_records,
                                                              tmp_path):
        # road-days whose estimates differ, so a row given another row's
        # sigma shows
        base = road_days[0].values
        extra = [VelocitySeries("road-2", 1, base * 0.5 + 10.0, h=5.0),
                 VelocitySeries("road-3", 1, np.repeat([20.0, 50.0, 30.0, 45.0], 72)
                                + np.random.default_rng(1).normal(0.0, 3.0, 288), h=5.0)]
        path = write_records(road_days + extra)
        out = tmp_path / "out"
        assert run_cli("denoise", "--input", str(path), "--out-dir", str(out),
                       "--grid", "0,1,5,10,20") == 0
        data = ingest(path, min_records=RunConfig().min_records)
        solver = SolverConfig(sigma=0.0)
        diag = json.loads((out / "denoise_diagnostics.json").read_text())
        rows = (out / "denoised.csv").read_text().strip().split("\n")[1:]
        sigmas = set()
        for n, key in enumerate(sorted(data)):
            values = data[key].values
            sigma = estimate_sigma(values, sigma_grid=(0.0, 1.0, 5.0, 10.0, 20.0), solver=solver,
                                   h=1.0).sigma_best
            want = denoise_values(values, dataclasses.replace(solver, sigma=sigma)).denoised
            assert diag[f"{key[0]}/{key[1]}"]["sigma"] == sigma
            got = [float(line.split(",")[4]) for line in rows[288 * n:288 * (n + 1)]]
            assert got == want.tolist()
            sigmas.add(sigma)
        assert len(sigmas) >= 3

    @pytest.mark.parametrize("argv", [["--sigma", "3"], ["--grid", "0,1,5"]],
                             ids=["fixed", "estimated"])
    def test_failing_road_day_fails_alone(self, argv, road_days, write_records, tmp_path,
                                          poison_rows, caplog, monkeypatch):
        values = road_days[1].values.copy()
        values[0] = 77.125
        poisoned = VelocitySeries("road-1", 3, values, h=road_days[1].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli("denoise", "--input", str(clean_csv), "--out-dir", str(clean_out),
                       *argv) == 0
        poison_rows(77.125)
        stacks = []
        real = cli._denoise_stack

        def counted(u, heads, *args, **kwargs):
            stacks.append(len(heads) - 1)
            return real(u, heads, *args, **kwargs)

        monkeypatch.setattr(cli, "_denoise_stack", counted)
        path = write_records(road_days + [poisoned], name="poisoned.csv")
        assert run_cli("denoise", "--input", str(path), "--out-dir", str(out), *argv) == 0
        assert "road-1/2026-01-03: denoise failed: non-finite iterate" in caplog.text
        # one stack of the whole batch at a fixed sigma; an estimated sigma
        # already fails in the walk of the poisoned road-day's estimate,
        # which then never enters the stack
        fixed = argv[0] == "--sigma"
        assert stacks == [len(road_days) + fixed]
        for name in ("denoised.csv", "denoise_diagnostics.json"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    def test_failing_road_days_are_logged_in_key_order(self, road_days, write_records,
                                                       tmp_path, poison_rows, caplog,
                                                       monkeypatch):
        # the stack meets the huge road-day's error before the walk and the
        # poisoned one's after it, yet both are logged in key order, as lone
        # solves would log them, and one stack serves the whole batch
        values = road_days[1].values.copy()
        values[0] = 77.125
        poisoned = VelocitySeries("road-0", 1, values, h=road_days[1].h)
        huge = VelocitySeries("road-9", 9, 1e200 * road_days[0].values, h=road_days[0].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli("denoise", "--input", str(clean_csv), "--out-dir", str(clean_out),
                       "--sigma", "3") == 0
        poison_rows(77.125)
        stacks = []
        real = cli._denoise_stack

        def counted(u, heads, *args, **kwargs):
            stacks.append(len(heads) - 1)
            return real(u, heads, *args, **kwargs)

        monkeypatch.setattr(cli, "_denoise_stack", counted)
        path = write_records([huge] + road_days + [poisoned], name="failing.csv")
        caplog.clear()
        assert run_cli("denoise", "--input", str(path), "--out-dir", str(out),
                       "--sigma", "3") == 0
        failed = [r.getMessage() for r in caplog.records if "denoise failed" in r.getMessage()]
        assert [line.split(":")[0] for line in failed] == ["road-0/2026-01-01",
                                                          "road-9/2026-01-09"]
        assert "non-finite iterate" in failed[0] and "non-finite fidelity" in failed[1]
        assert stacks == [len(road_days) + 2]
        for name in ("denoised.csv", "denoise_diagnostics.json"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    @pytest.mark.parametrize("command", ["estimate-sigma", "denoise", "cluster"])
    def test_road_day_with_subnormal_sigma_fails_alone(self, command, road_days, write_records,
                                                       tmp_path, caplog):
        # velocities near 1e-160 give a positive Method-1 sigma whose
        # square is subnormal, which the solver config rejects as the
        # combination rule's candidate
        tiny = VelocitySeries("road-9", 5, 1e-160 * (5.0 + np.random.default_rng(0).random(288)),
                              h=road_days[0].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        argv = ["--grid", "0,1,5"]
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli(command, "--input", str(clean_csv), "--out-dir", str(clean_out),
                       *argv) == 0
        path = write_records(road_days + [tiny], name="tiny.csv")
        assert run_cli(command, "--input", str(path), "--out-dir", str(out), *argv) == 0
        assert "road-9/2026-01-05: " in caplog.text
        assert "square underflows the normal float range" in caplog.text
        files = sorted(p.name for p in clean_out.iterdir())
        assert files == sorted(p.name for p in out.iterdir())
        for name in files:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    @pytest.mark.parametrize("command, failed", [("estimate-sigma", "sigma estimate failed"),
                                                 ("denoise", "denoise failed"),
                                                 ("cluster", "profile preparation failed")])
    def test_road_day_near_1e200_fails_alone_at_the_estimated_sigma(
            self, command, failed, road_days, write_records, tmp_path, caplog):
        # its multiresolution squares overflow to inf without a numpy
        # warning, and the road-day fails on its non-finite fidelity
        huge = VelocitySeries("road-9", 9, 1e200 * road_days[0].values, h=road_days[0].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        argv = ["--grid", "0,1,5"]
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli(command, "--input", str(clean_csv), "--out-dir", str(clean_out),
                       *argv) == 0
        path = write_records(road_days + [huge], name="huge.csv")
        caplog.clear()
        assert run_cli(command, "--input", str(path), "--out-dir", str(out), *argv) == 0
        lines = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(lines) == 1
        assert lines[0].startswith(f"road-9/2026-01-09: {failed}: non-finite fidelity")
        files = sorted(p.name for p in clean_out.iterdir())
        assert files == sorted(p.name for p in out.iterdir())
        for name in files:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    @pytest.mark.parametrize("argv", [["--no-denoise"], ["--grid", "0,1,5"]],
                             ids=["raw", "denoised"])
    @pytest.mark.parametrize("huge", ["scaled", "flat"])
    def test_profile_whose_distances_could_overflow_fails_alone(self, argv, huge, road_days,
                                                                write_records, tmp_path, caplog):
        # a day scaled by 1e200, or flat at 1e160 (sigma_max 0, so its solve
        # passes), squares past the float range in any distance to another
        values = 1e200 * road_days[0].values if huge == "scaled" else np.full(288, 1e160)
        bad = VelocitySeries("road-9", 9, values, h=road_days[0].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli("cluster", "--input", str(clean_csv), "--out-dir", str(clean_out),
                       *argv) == 0
        path = write_records(road_days + [bad], name="bad.csv")
        caplog.clear()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("cluster", "--input", str(path), "--out-dir", str(out), *argv) == 0
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        lines = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(lines) == 1
        assert lines[0].startswith("road-9/2026-01-09: profile preparation failed: ")
        files = sorted(p.name for p in clean_out.iterdir())
        assert len(files) == 4 and files == sorted(p.name for p in out.iterdir())
        for name in files:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    @pytest.mark.parametrize("command, failed", [("estimate-sigma", "sigma estimate failed"),
                                                 ("denoise", "denoise failed"),
                                                 ("cluster", "profile preparation failed")])
    def test_failed_estimate_logs_the_commands_label(self, command, failed, road_days,
                                                     write_records, tmp_path, caplog):
        # the three commands share one estimate loop; each names its step
        tiny = VelocitySeries("road-9", 5, 1e-160 * (5.0 + np.random.default_rng(0).random(288)),
                              h=road_days[0].h)
        path = write_records(road_days + [tiny])
        assert run_cli(command, "--input", str(path), "--out-dir", str(tmp_path / "out"),
                       "--grid", "0,1,5") == 0
        lines = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(lines) == 1 and lines[0].startswith(f"road-9/2026-01-05: {failed}: sigma ")

    @pytest.mark.parametrize("options, error", [
        ((), "non-finite fidelity: sigma_max^2 of the input is inf"),
        (("--sigma", "2.5", "--no-denoise"), "non-finite distance"),
    ], ids=["estimated", "raw-only"])
    def test_predict_failure_leaves_the_other_roads_alone(self, options, error, road_days,
                                                          write_records, tmp_path, caplog):
        # a road whose every day is scaled by 1e200 (its squares overflow)
        # fails alone: one error line, exit code 0, and every other road's
        # outputs are those of a run without it
        scaled = [VelocitySeries("road-9", d.day, 1e200 * d.values, h=d.h) for d in road_days]
        outputs = {}
        for name, series in (("without", road_days), ("with", road_days + scaled)):
            path = write_records(series, name=f"{name}.csv")
            caplog.clear()
            assert run_cli("predict", "--input", str(path), "--out-dir", str(tmp_path / name),
                           *options) == 0
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == ([] if name == "without" else [f"road-9: prediction failed: {error}"])
            outputs[name] = [(tmp_path / name / file).read_bytes()
                             for file in ("predictions.csv", "prediction_metrics.json")]
        assert b"road-1," in outputs["with"][0]
        assert outputs["with"] == outputs["without"]

    def test_predict_writes_undefined_mape_as_null(self, road_days, write_records, tmp_path):
        target = road_days[1]
        slow = VelocitySeries(target.road_id, target.day, np.minimum(target.values, 0.9),
                              h=target.h)
        path = write_records([road_days[0], slow], name="slow.csv")
        out = tmp_path / "out"
        rc = run_cli("predict", "--input", str(path), "--out-dir", str(out),
                     "--sigma", "2.5", "--no-denoise")
        assert rc == 0
        text = (out / "prediction_metrics.json").read_text()
        raw = json.loads(text)["road-1"]["raw"]
        assert raw["mape"] is None and raw["mape_retained_count"] == 0
        assert raw["rmae"] > 0.0  # history-speed predictions against a slow target

    def test_predict_writes_closed_road_rmae_as_null(self, road_days, write_records, tmp_path):
        target = road_days[1]
        closed = VelocitySeries(target.road_id, target.day, np.zeros(288), h=target.h)
        path = write_records([road_days[0], closed], name="closed.csv")
        out = tmp_path / "out"
        rc = run_cli("predict", "--input", str(path), "--out-dir", str(out),
                     "--sigma", "2.5", "--no-denoise")
        assert rc == 0
        raw = json.loads((out / "prediction_metrics.json").read_text())["road-1"]["raw"]
        assert raw == {"rmae": None, "mape": None, "mape_retained_count": 0}

    def test_estimate_sigma_rejects_fixed_sigma(self, records_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("estimate-sigma", "--input", str(records_csv), "--out-dir", str(out),
                     "--sigma", "3")
        assert rc == 2
        assert not (out / "sigma_estimates.json").exists()

    def test_cluster_needs_two_road_days(self, road_days, write_records, tmp_path):
        path = write_records(road_days[:1], name="one.csv")
        rc = run_cli("cluster", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--no-denoise")
        assert rc == 1

    def test_predict_raw_only(self, records_csv, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("predict", "--input", str(records_csv), "--out-dir", str(out),
                     "--sigma", "2.5", "--no-denoise")
        assert rc == 0
        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 282
        road, day, slice_no, vel, raw, den = lines[1].split(",")
        assert (road, day, slice_no, den) == ("road-1", "2026-01-02", "7", "")
        metrics = json.loads((out / "prediction_metrics.json").read_text())
        entry = metrics["road-1"]
        assert entry["sigma"] == 2.5
        assert 0.0 < entry["raw"]["rmae"] < 1.0
        assert "denoised" not in entry

    def test_predict_needs_history(self, road_days, write_records, tmp_path):
        path = write_records(road_days[:1], name="one.csv")
        rc = run_cli("predict", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--sigma", "2.5", "--no-denoise")
        assert rc == 1

    def test_table1_uses_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("table1_trials = 3\n")
        out = tmp_path / "out"
        rc = run_cli("table1", "--config", str(conf), "--out-dir", str(out))
        assert rc == 0
        lines = (out / "table1.csv").read_text().strip().split("\n")
        assert lines[0] == "kind,N,bias,mean_ratio,std_ratio,trials"
        assert len(lines) == 7
        assert all(line.endswith(",3") for line in lines[1:])

    def test_seed_flag_changes_trials(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("table1_trials = 2\n")
        texts = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            assert run_cli("table1", "--config", str(conf), "--out-dir", str(out),
                           "--seed", seed) == 0
            texts.append((out / "table1.csv").read_text())
        assert texts[0] != texts[1]

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run_cli("denoise", "--out-dir", str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("flag,value", [("--grid", "0,x"), ("--grid", "1,2,3"),
                                            ("--grid", "0,2,1"), ("--grid", "0,1,inf"),
                                            ("--sigma", "inf"), ("--sigma", "-1"),
                                            ("--dc-percentile", "-1"), ("--dc-percentile", "150"),
                                            ("--dc-percentile", "inf"), ("--k", "0"),
                                            ("--seed", "-1"), ("--config", None)],
                             ids=["grid", "grid-start", "grid-order", "grid-inf", "sigma-inf",
                                  "sigma-negative", "dc-percentile", "dc-percentile-above-100",
                                  "dc-percentile-inf", "k", "seed-negative", "config"])
    def test_bad_setting_is_usage_error(self, flag, value, tmp_path, caplog):
        out = tmp_path / "out"
        value = value or str(tmp_path / "missing.cfg")
        assert run_cli("table1", "--out-dir", str(out), flag, value) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert not out.exists()

    def test_bad_dc_percentile_is_rejected_before_input_is_read(self, tmp_path):
        # it used to read the input and fail every road on numpy's range check, exit 1
        assert run_cli("cluster", "--input", str(tmp_path / "missing.csv"), "--out-dir",
                       str(tmp_path / "out"), "--no-denoise", "--dc-percentile", "150") == 2
        with pytest.raises(ValueError, match=r"dc_percentile must be a percentile in \(0, 100\]"):
            RunConfig(dc_percentile=100.5)
        assert RunConfig(dc_percentile=100.0).dc_percentile == 100.0

    @pytest.mark.parametrize("command", ["denoise", "cluster", "predict"])
    def test_bad_sigma_is_rejected_before_input_is_read(self, command, tmp_path):
        # a missing input would exit 1; the --sigma check comes first
        assert run_cli(command, "--input", str(tmp_path / "missing.csv"),
                       "--out-dir", str(tmp_path / "out"), "--sigma", "-1") == 2

    @pytest.mark.parametrize("command", ["estimate-sigma", "denoise", "cluster", "predict"])
    @pytest.mark.parametrize("source,grid,message",
                             [("flag", "0,1,1e200", "its square overflows"),
                              ("config", "0,1e-170,1", "its square underflows")],
                             ids=["overflow-flag", "underflow-config"])
    def test_grid_point_no_solve_can_take_is_usage_error(self, command, source, grid, message,
                                                         records_csv, tmp_path, caplog):
        # the input used to be read and every road-day failed on the grid, exit 1
        out = tmp_path / "out"
        if source == "flag":
            setting = ["--grid", grid]
        else:
            config = tmp_path / "grid.cfg"
            config.write_text(f"sigma_grid = {grid}\n")
            setting = ["--config", str(config)]
        assert run_cli(command, "--input", str(records_csv), "--out-dir", str(out),
                       *setting) == 2
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "bad configuration" in caplog.text and message in caplog.text
        assert not out.exists()

    def test_unreadable_input_fails_cleanly(self, tmp_path):
        rc = run_cli("denoise", "--input", str(tmp_path / "missing.csv"),
                     "--out-dir", str(tmp_path / "out"), "--sigma", "1")
        assert rc == 1
