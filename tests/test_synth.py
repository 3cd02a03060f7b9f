import numpy as np
import pytest

from tvroad.noise import multires_bias
from tvroad.series import DEFAULT_SLICES
from tvroad.synth import (
    BENCH_NOISE,
    KINDS,
    ROAD_TABLE,
    STEP_HIGH,
    STEP_LOW,
    SyntheticSpec,
    generate,
    level_menu,
    realized_sigma,
    run_table1,
    table1_csv,
    two_regime_corpus,
)


class TestSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SyntheticSpec("triangle", 16, 1.0, 0)

    def test_rejects_uncoarsenable_lengths(self):
        with pytest.raises(ValueError):
            SyntheticSpec("sine", 7, 1.0, 0)
        with pytest.raises(ValueError):
            SyntheticSpec("sine", 4, 1.0, 0)

    def test_road_day_is_fixed_length(self):
        with pytest.raises(ValueError):
            SyntheticSpec("two_regime_day", 100, 1.0, 0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticSpec("sine", 16, -0.5, 0)


class TestGenerate:
    def test_sine_sampled_at_left_endpoints(self):
        clean, _, _ = generate(SyntheticSpec("sine", 8, 0.0, 0))
        x = -1.0 + np.arange(8) * 0.25
        np.testing.assert_array_equal(clean.values, np.sin(np.pi * x))
        assert clean.h == 0.25
        # the interval is closed on the left only
        assert x[-1] < 1.0

    def test_hat_values(self):
        clean, _, _ = generate(SyntheticSpec("hat", 8, 0.0, 0))
        np.testing.assert_array_equal(
            clean.values, [0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25]
        )

    def test_zero_noise_is_exact(self):
        clean, noisy, realized = generate(SyntheticSpec("hat", 16, 0.0, 9))
        np.testing.assert_array_equal(noisy.values, clean.values)
        assert realized == 0.0

    def test_realized_matches_definition(self):
        clean, noisy, realized = generate(SyntheticSpec("sine", 16, 0.5, 3))
        xi = noisy.values - clean.values
        assert realized == np.sqrt(0.5 * clean.h * np.sum(xi**2))

    def test_benchmark_signals_keep_sign(self):
        _, noisy, _ = generate(SyntheticSpec("sine", 288, BENCH_NOISE["sine"], 1))
        assert (noisy.values < 0).any()

    def test_step_halves(self):
        clean, _, _ = generate(SyntheticSpec("step", 12, 0.0, 0))
        np.testing.assert_array_equal(clean.values, [STEP_LOW] * 6 + [STEP_HIGH] * 6)
        assert clean.h == 1.0

    def test_road_day_clamped_nonnegative(self):
        clean, noisy, _ = generate(SyntheticSpec("two_regime_day", 288, 2.5, 4))
        assert clean.n_slices == noisy.n_slices == DEFAULT_SLICES
        assert (clean.values >= 0).all() and (noisy.values >= 0).all()
        assert clean.h == 1.0

    def test_reproducible(self):
        a = generate(SyntheticSpec("sine", 32, 0.4, 12))
        b = generate(SyntheticSpec("sine", 32, 0.4, 12))
        np.testing.assert_array_equal(a[1].values, b[1].values)
        assert a[2] == b[2]

    def test_seed_changes_draw(self):
        a = generate(SyntheticSpec("sine", 32, 0.4, 12))
        c = generate(SyntheticSpec("sine", 32, 0.4, 13))
        assert not np.array_equal(a[1].values, c[1].values)


class TestLevelMenu:
    def test_outside_in_order(self):
        assert level_menu(8.0) == [8.0, 20.0, 12.0, 16.0]

    def test_odd_count(self):
        assert level_menu(0.0, n_levels=5) == [0.0, 16.0, 4.0, 12.0, 8.0]

    def test_consecutive_plateaus_switch_band(self):
        levels = level_menu(8.0)
        mid = (min(levels) + max(levels)) / 2
        bands = [lv > mid for lv in levels]
        assert all(a != b for a, b in zip(bands, bands[1:]))


class TestCorpus:
    def test_layout(self):
        corpus = two_regime_corpus(n_roads=2, n_days=3, seed=5)
        assert len(corpus) == 2
        for r, road in enumerate(corpus):
            assert len(road) == 3
            for day_no, (clean, noisy) in enumerate(road, start=1):
                assert clean.road_id == noisy.road_id == f"road-{r + 1}"
                assert clean.day == noisy.day == day_no
                assert clean.n_slices == noisy.n_slices == DEFAULT_SLICES
                assert (noisy.values >= 0).all()
                assert clean.h == noisy.h == 1.0

    def test_reproducible(self):
        a = two_regime_corpus(n_roads=2, n_days=2, seed=7)
        b = two_regime_corpus(n_roads=2, n_days=2, seed=7)
        np.testing.assert_array_equal(a[1][1][1].values, b[1][1][1].values)
        c = two_regime_corpus(n_roads=2, n_days=2, seed=8)
        assert not np.array_equal(a[0][0][1].values, c[0][0][1].values)

    def test_single_stream_prefix(self):
        # one generator feeds the roads in order, so a smaller corpus is
        # a prefix of a larger one with the same seed
        small = two_regime_corpus(n_roads=1, n_days=2, seed=0)
        big = two_regime_corpus(n_roads=3, n_days=2, seed=0)
        for day in range(2):
            np.testing.assert_array_equal(small[0][day][1].values, big[0][day][1].values)

    def test_diurnal_toggle(self):
        flat = two_regime_corpus(n_roads=1, n_days=1, seed=4, diurnal=False)[0][0][0]
        wavy = two_regime_corpus(n_roads=1, n_days=1, seed=4, diurnal=True)[0][0][0]
        assert not np.array_equal(flat.values, wavy.values)
        # without the swing most of the day sits on exact plateaus
        assert (np.diff(flat.values) == 0).mean() > 0.9

    def test_bounds(self):
        with pytest.raises(ValueError):
            two_regime_corpus(n_roads=0)
        with pytest.raises(ValueError):
            two_regime_corpus(n_roads=len(ROAD_TABLE) + 1)
        with pytest.raises(ValueError):
            two_regime_corpus(n_days=0)


class TestTable1:
    def test_row_contents(self):
        rows = run_table1(trials=4, kinds=("sine",), n_list=(72,))
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "sine" and row["N"] == 72 and row["trials"] == 4
        clean, _, _ = generate(SyntheticSpec("sine", 72, 0.0, 0))
        assert row["bias"] == multires_bias(clean.values, h=clean.h)
        assert np.isfinite(row["mean_ratio"]) and row["std_ratio"] >= 0.0

    def test_deterministic(self):
        assert run_table1(trials=3, kinds=("hat",), n_list=(72,)) == run_table1(
            trials=3, kinds=("hat",), n_list=(72,)
        )

    def test_csv_round_trip(self):
        rows = run_table1(trials=2, kinds=("sine", "hat"), n_list=(72,))
        text = table1_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "kind,N,bias,mean_ratio,std_ratio,trials"
        assert len(lines) == 3
        for line, row in zip(lines[1:], rows):
            kind, n, bias, mean_ratio, std_ratio, trials = line.split(",")
            assert (kind, int(n), int(trials)) == (row["kind"], row["N"], row["trials"])
            assert float(bias) == row["bias"]
            assert float(mean_ratio) == row["mean_ratio"]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_table1(trials=0)
