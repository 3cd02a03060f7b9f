import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvroad.noise import (
    DEFAULT_SIGMA_GRID,
    FLAG_NO_NOISE,
    FLAG_TV_BELOW_LOWER_BOUND,
    SWEEP_SOLVER,
    _estimator_coefficients,
    _first_local_minimum,
    combine_estimates,
    estimate_sigma,
    estimate_sigma_balance,
    estimate_sigma_multires,
    multires_bias,
    multires_variations,
)
from tvroad import noise, solver as solver_module
from tvroad.series import VelocitySeries, total_variation
from tvroad.solver import SolverConfig, denoise_values
from tvroad.synth import SyntheticSpec, generate


def square_wave(n_plateaus=8, low=5.0, high=25.0, width=36, noise=2.0, seed=4):
    levels = [low if i % 2 == 0 else high for i in range(n_plateaus)]
    clean = np.repeat(levels, width).astype(float)
    rng = np.random.default_rng(seed)
    return clean + rng.normal(0.0, noise, clean.size)


class TestMultiresVariations:
    def test_alternating_concentrates_at_fine_scale(self):
        # pair averages of a [0, 1] alternation are constant
        mv = multires_variations([0.0, 1.0] * 4, h=1.0)
        assert (mv.v1, mv.v2, mv.v3) == (7.0, 0.0, 0.0)

    def test_single_jump_survives_coarsening(self):
        mv = multires_variations([0.0] * 4 + [8.0] * 4, h=1.0)
        assert (mv.v1, mv.v2, mv.v3) == (64.0, 32.0, 16.0)

    def test_h_divides_each_level(self):
        v = np.random.default_rng(1).normal(0.0, 1.0, 16)
        a, b = multires_variations(v, h=1.0), multires_variations(v, h=2.0)
        assert (b.v1, b.v2, b.v3) == (a.v1 / 2, a.v2 / 2, a.v3 / 2)

    def test_series_supplies_h(self):
        values = np.arange(8.0)
        series = VelocitySeries("r", 1, values, h=5.0)
        assert multires_variations(series) == multires_variations(values, h=5.0)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            multires_variations(np.arange(10.0), h=1.0)
        with pytest.raises(ValueError):
            multires_variations(np.arange(4.0), h=1.0)
        with pytest.raises(ValueError):
            multires_variations(np.arange(8.0))

    @given(
        st.lists(st.floats(-50, 50), min_size=8, max_size=8),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_quadratic_in_amplitude(self, values, c):
        v = np.asarray(values)
        a, b = multires_variations(v, h=1.0), multires_variations(c * v, h=1.0)
        assert b.v1 == pytest.approx(c * c * a.v1, rel=1e-9, abs=1e-9)
        assert b.v3 == pytest.approx(c * c * a.v3, rel=1e-9, abs=1e-9)


class TestSigmaMultires:
    def test_combines_levels_with_published_weights(self):
        n = 288
        h = 2.0 / n
        v = np.random.default_rng(9).normal(20.0, 4.0, n)
        mv = multires_variations(v, h=h)
        a1 = 119.0 / 16.0 - 27.0 / (4.0 * n)
        a2 = 9.0 / (4.0 * n) - 49.0 / 16.0
        a3 = 9.0 / (2.0 * n) - 35.0 / 8.0
        d = 3577.0 / 128.0 + 189.0 / (8.0 * n * n) - 819.0 / (16.0 * n)
        assert _estimator_coefficients(n) == pytest.approx((a1, a2, a3, d), rel=1e-15)
        expected = np.sqrt(h * h * (a1 * mv.v1 + a2 * mv.v2 + a3 * mv.v3) / d)
        assert estimate_sigma_multires(v, h=h) == pytest.approx(expected, rel=1e-12)

    def test_recovers_noise_on_flat_signal(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 2.0, 288)
        realized = float(np.sqrt(0.5 * np.sum(noise ** 2)))
        est = estimate_sigma_multires(30.0 + noise, h=1.0)
        assert 0.8 * realized < est < 1.2 * realized

    def test_scales_with_sqrt_h(self):
        v = np.random.default_rng(6).normal(10.0, 3.0, 64)
        assert estimate_sigma_multires(v, h=4.0) == pytest.approx(
            2.0 * estimate_sigma_multires(v, h=1.0), rel=1e-12
        )

    def test_constant_gives_zero(self):
        assert estimate_sigma_multires(np.full(16, 9.0), h=1.0) == 0.0

    @given(st.lists(st.floats(0, 60), min_size=12, max_size=12))
    def test_never_negative(self, values):
        est = estimate_sigma_multires(np.asarray(values), h=1.0)
        assert np.isfinite(est) and est >= 0.0


class TestBias:
    # frozen from this implementation; the acceptance tests compare the
    # full set against the published values at coarser precision
    def test_smooth_profile(self):
        clean, _, _ = generate(SyntheticSpec("sine", 288, 0.0, seed=0))
        assert multires_bias(clean) == pytest.approx(2.019e-06, rel=1e-3)

    def test_kinked_profile(self):
        clean, _, _ = generate(SyntheticSpec("hat", 144, 0.0, seed=0))
        assert multires_bias(clean) == pytest.approx(3.587e-06, rel=1e-3)

    def test_refinement_shrinks_bias(self):
        coarse, _, _ = generate(SyntheticSpec("sine", 72, 0.0, seed=0))
        fine, _, _ = generate(SyntheticSpec("sine", 288, 0.0, seed=0))
        assert multires_bias(fine) < multires_bias(coarse)


class TestSelectionRule:
    GRID = np.array([0.0, 1.0, 5.0, 10.0, 20.0])

    def test_interior_minimum(self):
        assert _first_local_minimum(self.GRID, np.array([5.0, 2.0, 3.0, 4.0])) == 5.0

    def test_plateau_counts_as_minimum(self):
        assert _first_local_minimum(self.GRID, np.array([5.0, 2.0, 2.0, 4.0])) == 5.0

    def test_first_increment_not_eligible(self):
        # smallest increment sits at the start, which has no left
        # neighbour; the fallback still maps it to the first sigma > 0
        assert _first_local_minimum(self.GRID, np.array([1.0, 2.0, 3.0, 4.0])) == 1.0

    def test_decreasing_tail_selects_last(self):
        assert _first_local_minimum(self.GRID, np.array([4.0, 3.0, 2.0, 1.0])) == 20.0


class TestBalance:
    def test_constant_input(self):
        est = estimate_sigma_balance(np.full(24, 7.0), DEFAULT_SIGMA_GRID, SWEEP_SOLVER, h=1.0)
        assert est == 0.0

    def test_noisy_plateaus_land_on_grid(self):
        est = estimate_sigma_balance(square_wave(), DEFAULT_SIGMA_GRID, SWEEP_SOLVER, h=1.0)
        assert est in DEFAULT_SIGMA_GRID and est > 0.0

    def test_grid_validation(self):
        v = square_wave()
        for bad in [(1.0, 2.0, 3.0), (0.0, 1.0), (0.0, 2.0, 1.0)]:
            with pytest.raises(ValueError):
                estimate_sigma_balance(v, bad, SWEEP_SOLVER, h=1.0)


class TestCombined:
    def test_jump_rich_series_keeps_smaller_estimate(self):
        est = estimate_sigma(square_wave(), h=1.0)
        assert est.flags == ()
        assert est.sigma_best == min(est.sigma1, est.sigma2)
        assert est.sigma_best > 0.0
        assert len(est.tv_curve) == len(DEFAULT_SIGMA_GRID)
        assert len(est.delta_curve) == len(DEFAULT_SIGMA_GRID) - 1

    def test_constant_series_flags_no_noise(self):
        est = estimate_sigma(np.full(288, 12.0), h=1.0)
        assert est.flags == (FLAG_NO_NOISE,)
        assert est.sigma1 == est.sigma2 == est.sigma_best == 0.0

    def test_steep_ramp_flags_low_variation(self):
        # total variation of a monotone ramp equals its range, well below
        # 2.5x range, so no sigma can satisfy the floor
        rng = np.random.default_rng(2)
        v = np.arange(16.0) * 4.0 + rng.normal(0.0, 0.3, 16)
        est = estimate_sigma(v, h=1.0)
        assert est.sigma_best == 0.0
        assert est.sigma1 > 0.0
        assert FLAG_TV_BELOW_LOWER_BOUND in est.flags

    def test_oversmoothing_candidate_pulled_back_to_crossing(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 2.0 * np.pi, 144, endpoint=False)
        v = 10.0 * np.sin(x) + rng.normal(0.0, 3.0, 144)
        est = estimate_sigma(v, h=1.0)
        cand = min(est.sigma1, est.sigma2)
        assert 0.0 < est.sigma_best < cand
        res = denoise_values(v, dataclasses.replace(SWEEP_SOLVER, sigma=est.sigma_best), h=1.0)
        assert total_variation(res.denoised) >= est.tv_lower

    def test_tv_lower_matches_range(self):
        v = square_wave()
        est = estimate_sigma(v, h=1.0)
        assert est.tv_lower == 2.5 * (float(v.max()) - float(v.min()))

    def test_deterministic(self):
        v = square_wave()
        assert estimate_sigma(v, h=1.0) == estimate_sigma(v, h=1.0)

    def test_series_input_matches_array(self):
        v = square_wave()
        series = VelocitySeries("r", 1, v, h=1.0)
        assert estimate_sigma(series) == estimate_sigma(v, h=1.0)

    def test_combine_accepts_candidate_at_or_above_floor(self):
        v = square_wave()
        est = estimate_sigma(v, h=1.0)
        out = combine_estimates(est.sigma1, est.sigma2, est.sigma_floor)
        assert out == est.sigma_best

    @pytest.mark.parametrize("max_iters", [5000, 3])
    def test_grid_converged_reads_each_solve(self, max_iters):
        v = square_wave()
        solver = dataclasses.replace(SWEEP_SOLVER, max_iters=max_iters)
        est = estimate_sigma(v, solver=solver, h=1.0)
        lone = [denoise_values(v, dataclasses.replace(solver, sigma=s), h=1.0).converged
                for s in DEFAULT_SIGMA_GRID]
        assert est.grid_converged == tuple(lone)
        assert all(est.grid_converged) == (max_iters == 5000)

    def test_failed_grid_solve_raises(self, poison_rows):
        v = square_wave()
        poison_rows(v[0])
        with pytest.raises(FloatingPointError, match="non-finite iterate"):
            estimate_sigma(v, h=1.0)
        with pytest.raises(FloatingPointError, match="non-finite iterate"):
            estimate_sigma_balance(v, DEFAULT_SIGMA_GRID, SWEEP_SOLVER, h=1.0)


class TestSigmaFloor:
    """The grid walk goes on to where the denoised TV falls below TV_l and
    reports as sigma_floor a sigma whose lone solve keeps TV_l; the
    combination rule takes it with no solve."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=12).flatmap(
               lambda n: st.lists(st.floats(0.0, 60.0), min_size=4 * n, max_size=4 * n)),
           st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)), min_size=1, max_size=8),
           st.sampled_from([5000, 3]))
    # a solve at the rounded crossing 6.896129622736575 has TV
    # 82.49999999999999, below TV_l = 82.5, so sigma_floor steps one ulp
    # below it, where the solve has TV 82.5
    @example([0.0, 0.0, 0.0, 0.0, 26.0, 0.0, 33.0, 0.0], [0.0], 5000)
    # capped at 3 steps above the floor, with a candidate past sigma_max,
    # where the solve turns constant
    @example([10.0, 20.0, 10.0, 60.0, 0.0, 60.0, 0.0, 10.0], [0.0], 3)
    def test_floor_verdict_matches_lone_solves(self, values, sigmas, max_iters):
        v = np.asarray(values)
        solver = dataclasses.replace(SWEEP_SOLVER, max_iters=max_iters)
        est = estimate_sigma(v, solver=solver, h=1.0)

        def keeps(sigma):
            res = denoise_values(v, dataclasses.replace(solver, sigma=sigma), h=1.0)
            return total_variation(res.denoised) >= est.tv_lower

        for sigma in sigmas:
            if abs(sigma - est.sigma_floor) > 1e-9 * est.sigma_floor:
                assert (sigma <= est.sigma_floor) == keeps(sigma)
        assert est.sigma_best == min(min(est.sigma1, est.sigma2), est.sigma_floor)
        if est.sigma_floor > 0.0:
            assert keeps(est.sigma_best)

    def test_one_walk_per_estimate(self, monkeypatch):
        # the square wave's floor crossing lies past its candidate; the
        # short day's grid lies at or above its sigma_max of 1 past
        # sigma = 0, and the walk still runs to find sigma_floor
        days = [square_wave(), np.array([0.0, 1.0] * 4)]
        want = [estimate_sigma(v, h=1.0) for v in days]
        walks = []

        def spy(*args):
            walks.append(args)
            return walk(*args)

        def no_solve(*args, **kwargs):
            raise AssertionError("denoise_values called")

        walk = solver_module._walk
        monkeypatch.setattr(solver_module, "_walk", spy)
        monkeypatch.setattr(solver_module, "denoise_values", no_solve)
        monkeypatch.setattr(noise, "denoise_values", no_solve)
        for v, w in zip(days, want):
            walks.clear()
            assert estimate_sigma(v, h=1.0) == w
            assert len(walks) == 1
        assert walks[0][1] == []  # no grid budget below sigma_max
        assert want[1].sigma_floor > 0.0

    def test_balance_alone_seeks_no_floor(self, monkeypatch):
        floors = []
        walk = solver_module._walk
        monkeypatch.setattr(solver_module, "_walk",
                            lambda u0, budgets, max_iters, floor=0.0, h=1.0:
                            floors.append(floor) or walk(u0, budgets, max_iters, floor, h))
        estimate_sigma_balance(square_wave(), DEFAULT_SIGMA_GRID, SWEEP_SOLVER, h=1.0)
        assert floors == [0.0]

    def test_floor_of_special_days(self):
        # constant: every sigma keeps TV >= 0; a ramp's own TV is its
        # range, below TV_l; a capped walk that stops above the floor
        # keeps it below sigma_max, where the solve turns constant
        assert estimate_sigma(np.full(16, 3.0), h=1.0).sigma_floor == np.inf
        ramp = estimate_sigma(np.arange(16.0) * 4.0, h=1.0)
        assert ramp.sigma_floor == 0.0 and ramp.sigma_best == 0.0
        v = square_wave()
        capped = estimate_sigma(v, solver=dataclasses.replace(SWEEP_SOLVER, max_iters=3), h=1.0)
        spread = 0.5 * np.sum((v - v.mean()) ** 2)  # sigma_max^2
        s = capped.sigma_floor
        assert s * s < spread <= np.nextafter(s, np.inf) ** 2

    def test_min_rule_reads_the_floor(self):
        assert combine_estimates(4.0, 5.0, 7.3) == 4.0
        assert combine_estimates(9.0, 10.0, 7.3) == 7.3
        assert combine_estimates(2.0, 5.0, 0.0) == 0.0


@pytest.mark.parametrize("h", [-1.0, 0.0, np.inf, np.nan])
@pytest.mark.parametrize("entry", [estimate_sigma, estimate_sigma_multires, multires_bias,
                                   lambda v, h: estimate_sigma_balance(v, DEFAULT_SIGMA_GRID,
                                                                       SWEEP_SOLVER, h=h)],
                         ids=["estimate_sigma", "multires", "bias", "balance"])
def test_bad_h_rejected(entry, h):
    # h = -1 used to give sigma_best 0 with no flag, and h = 0 divided by 0
    with pytest.raises(ValueError, match="slice duration must be finite and positive"):
        entry(square_wave(), h=h)
