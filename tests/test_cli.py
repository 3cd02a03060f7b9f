import json

import numpy as np
import pytest

from tvroad import cli
from tvroad.cli import RunConfig, config_from_text, config_to_text, ingest, main
from tvroad.cluster import cluster
from tvroad.noise import DEFAULT_SIGMA_GRID, estimate_sigma
from tvroad.series import VelocitySeries
from tvroad.solver import SolverConfig, denoise_values, sweep_config
from tvroad.synth import two_regime_corpus

HEADER = "road_id,day,slice,velocity"


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
            RunConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            RunConfig(k=0)


class TestConfigText:
    def test_default_round_trip(self):
        assert config_from_text(config_to_text(RunConfig())) == RunConfig()

    def test_custom_round_trip(self):
        config = RunConfig(k=3, sigma_grid=(0.0, 2.0, 4.0), out_dir="elsewhere", seed=9)
        assert config_from_text(config_to_text(config)) == config

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

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            config_from_text("seed 5\n")


class TestIngest:
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
            "r,not-a-date,5,20",
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


class TestCommands:
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
        solver = SolverConfig(sigma=3.0, epsilon=RunConfig().sweep_epsilon)
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
        solver = SolverConfig(sigma=0.0, epsilon=RunConfig().sweep_epsilon)
        diag = json.loads((out / "denoise_diagnostics.json").read_text())
        rows = (out / "denoised.csv").read_text().strip().split("\n")[1:]
        sigmas = set()
        for n, key in enumerate(sorted(data)):
            values = data[key].values
            sigma = estimate_sigma(values, sigma_grid=(0.0, 1.0, 5.0, 10.0, 20.0), solver=solver,
                                   h=1.0).sigma_best
            want = denoise_values(values, sweep_config(solver, sigma)).denoised
            assert diag[f"{key[0]}/{key[1]}"]["sigma"] == sigma
            got = [float(line.split(",")[4]) for line in rows[288 * n:288 * (n + 1)]]
            assert got == want.tolist()
            sigmas.add(sigma)
        assert len(sigmas) >= 3

    @pytest.mark.parametrize("argv", [["--sigma", "3"], ["--grid", "0,1,5"]],
                             ids=["fixed", "estimated"])
    def test_failing_road_day_fails_alone(self, argv, road_days, write_records, tmp_path,
                                          poison_rows, caplog):
        values = road_days[1].values.copy()
        values[0] = 77.125
        poisoned = VelocitySeries("road-1", 3, values, h=road_days[1].h)
        clean_out, out = tmp_path / "clean", tmp_path / "out"
        clean_csv = write_records(road_days, name="clean.csv")
        assert run_cli("denoise", "--input", str(clean_csv), "--out-dir", str(clean_out),
                       *argv) == 0
        poison_rows(77.125)
        path = write_records(road_days + [poisoned], name="poisoned.csv")
        assert run_cli("denoise", "--input", str(path), "--out-dir", str(out), *argv) == 0
        assert "road-1/2026-01-03: denoise failed: non-finite iterate" in caplog.text
        for name in ("denoised.csv", "denoise_diagnostics.json"):
            assert (out / name).read_bytes() == (clean_out / name).read_bytes()

    @pytest.mark.parametrize("command", ["estimate-sigma", "denoise", "cluster"])
    def test_road_day_with_subnormal_sigma_fails_alone(self, command, road_days, write_records,
                                                       tmp_path, caplog):
        # velocities near 1e-160 give a positive Method-1 sigma whose
        # square is subnormal, which the solver config rejects when the
        # combination rule solves at it
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

    def test_unreadable_input_fails_cleanly(self, tmp_path):
        rc = run_cli("denoise", "--input", str(tmp_path / "missing.csv"),
                     "--out-dir", str(tmp_path / "out"), "--sigma", "1")
        assert rc == 1
