import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tvroad
from tvroad import solver
from tvroad.noise import DEFAULT_SIGMA_GRID, SWEEP_SOLVER
from tvroad.series import total_variation
from tvroad.solver import (
    DenoiseResult,
    SolverConfig,
    compute_gradient,
    denoise_values,
    smoothed_total_variation,
)
from tvroad.synth import two_regime_corpus

STEP = np.concatenate([np.full(20, 10.0), np.full(20, 40.0)])


def lagrangian(u, u0, lam, h, eps):
    return smoothed_total_variation(u, eps) + 0.5 * lam * h * float(np.sum((u - u0) ** 2))


class TestSmoothedTV:
    def test_below_exact_tv(self):
        v = [0.0, 3.0, 1.0, 1.0]
        assert smoothed_total_variation(v, 0.1) < total_variation(v)

    def test_approaches_exact_tv(self):
        v = [0.0, 3.0, 1.0, 1.0]
        assert smoothed_total_variation(v, 1e-9) == pytest.approx(total_variation(v), abs=1e-6)

    def test_constant_is_zero(self):
        assert smoothed_total_variation([4.0, 4.0, 4.0], 0.1) == 0.0


class TestLambdaAndGradient:
    def test_lambda_hand_value(self):
        # u0 = (0, 2, 0) keeps three one-sample segments with c = (1, -2, 1):
        # (1/2) lambda^2 (1 + 4 + 1) = sigma^2 = 1 gives lambda = 1/sqrt(3),
        # before the first merge at lambda = 2/3, so the walk takes one step
        res = denoise_values([0.0, 2.0, 0.0], SolverConfig(sigma=1.0))
        lam = 1.0 / np.sqrt(3.0)
        assert res.iterations == 1
        assert res.lambda_trace[0] == pytest.approx(lam, rel=1e-12)
        np.testing.assert_allclose(res.denoised, [lam, 2.0 - 2.0 * lam, lam], rtol=1e-12)

    def test_gradient_peak(self):
        # a unit peak has r = (1, -1): descending along -g flattens it
        g = compute_gradient([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], lam=0.0, h=1.0, epsilon=1e-9)
        np.testing.assert_allclose(g, [-1.0, 2.0, -1.0], atol=1e-8)

    @pytest.mark.parametrize("h", [1.0, 2.5])
    def test_gradient_matches_finite_differences(self, h):
        rng = np.random.default_rng(3)
        u0 = rng.normal(10.0, 3.0, 12)
        u = u0 + rng.normal(0.0, 1.0, 12)
        lam, eps = 0.7, 0.1
        grad = h * compute_gradient(u, u0, lam=lam, h=h, epsilon=eps)
        fd = np.empty_like(grad)
        step = 1e-6
        for i in range(u.size):
            up, dn = u.copy(), u.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (lagrangian(up, u0, lam, h, eps) - lagrangian(dn, u0, lam, h, eps)) / (2 * step)
        np.testing.assert_allclose(grad, fd, atol=1e-5)


class TestConfigValidation:
    def test_solver_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(sigma=-1.0)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(sigma=math.inf)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, rel_tol=0.0)

    @pytest.mark.parametrize("max_iters", [2.5, 0, -3, "40", None])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        # a float cap was never met by the integer step count: 2.5 walked
        # on to its budget and reported converged
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            SolverConfig(sigma=3.0, max_iters=max_iters)
        assert SolverConfig(sigma=3.0, max_iters=np.int64(2)).max_iters == 2

    @pytest.mark.parametrize("h", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_h_rejected(self, h):
        # a non-positive h used to flip the budget's sign, so the solve
        # returned the constant mean flagged saturated
        values = np.random.default_rng(0).normal(30.0, 5.0, 40)
        with pytest.raises(ValueError, match="slice duration must be finite and positive"):
            denoise_values(values, SolverConfig(sigma=3.0), h=h)
        with pytest.raises(ValueError, match="slice duration must be finite and positive"):
            stack_solve([values, values[::-1]], [3.0, 3.0], h=h)

    def test_sigma_whose_square_underflows_rejected(self):
        # h / (2 sigma^2) would divide by zero inside the solver
        values = np.random.default_rng(0).normal(size=50)
        with pytest.raises(ValueError, match="underflows"):
            denoise_values(values, SolverConfig(sigma=1e-200))
        assert SolverConfig(sigma=1e-150).sigma == 1e-150

    @pytest.mark.parametrize("sigma", [1e-160, 1e-155, 1e-154])
    def test_sigma_whose_square_is_subnormal_rejected(self, sigma):
        # a subnormal square overflows h / (2 sigma^2): the solve used to
        # report a stall after 1-3 iterations with a meaningless result
        values = np.random.default_rng(0).normal(size=50)
        with pytest.raises(ValueError, match="underflows"):
            denoise_values(values, SolverConfig(sigma=sigma, epsilon=0.1))

    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "numpy"])
    def test_sigma_whose_square_overflows_rejected(self, kind):
        # float ** 2 used to raise OverflowError, and a numpy sigma gave an
        # inf budget and an IndexError from the empty trace
        largest = math.sqrt(sys.float_info.max)  # its square is finite
        above = float(np.nextafter(largest, math.inf))
        values = [1.0, 5.0, 2.0]
        with pytest.raises(ValueError, match="too large: its square overflows"):
            SolverConfig(sigma=kind(above))
        with pytest.raises(ValueError, match="too large: its square overflows"):
            stack_solve([values, values], [1.0, kind(above)])
        config = SolverConfig(sigma=kind(largest))
        assert config.sigma == largest
        result = denoise_values(values, config)
        assert result.saturated and result.denoised.tolist() == [8.0 / 3.0] * 3
        assert_same_solve(stack_solve([values, values], [1.0, largest])[1], result)

    def test_result_checks_trace_length(self):
        with pytest.raises(ValueError):
            DenoiseResult(np.zeros(3), 0.0, 2, np.zeros(1), 0.0, True)


class TestDenoiseEdgeCases:
    def test_sigma_zero_is_identity(self):
        u0 = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        res = denoise_values(u0, SolverConfig(sigma=0.0))
        np.testing.assert_array_equal(res.denoised, u0)
        assert res.iterations == 0
        assert res.converged and not res.stalled
        assert res.constraint_residual == 0.0
        assert res.lambda_trace.size == 0

    def test_constant_input_returns_immediately(self):
        res = denoise_values(np.full(10, 6.0), SolverConfig(sigma=2.0, epsilon=0.1))
        np.testing.assert_array_equal(res.denoised, np.full(10, 6.0))
        assert res.iterations == 0
        assert res.final_tv == 0.0
        # u = u0 pins the fidelity term at zero, sigma^2 away from target
        assert res.constraint_residual == 4.0
        assert res.saturated and not res.converged


class TestPublicDenoise:
    @pytest.mark.parametrize("h", [1.0, 5.0, 0.5])
    def test_equals_denoise_values_of_the_series(self, h):
        # the package's denoise(series, config) is denoise_values on the
        # series' values at its slice length, in every field and bit
        noisy = STEP + np.random.default_rng(12).normal(0.0, 2.0, STEP.size)
        series = tvroad.VelocitySeries("road-1", 1, noisy, h=h)
        config = SolverConfig(sigma=4.0, epsilon=0.1)
        got = tvroad.denoise(series, config)
        assert got.iterations > 0 and not got.saturated
        assert_bit_identical(got, denoise_values(noisy, config, h=h))
        if h != 1.0:  # the slice length is passed on, not dropped
            assert not np.array_equal(got.denoised, denoise_values(noisy, config).denoised)


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(11)
    noisy = STEP + rng.normal(0.0, 2.0, STEP.size)
    sigma = float(np.sqrt(0.5 * np.sum((noisy - STEP) ** 2)))
    res = denoise_values(noisy, SolverConfig(sigma=sigma, epsilon=0.1))
    return noisy, sigma, res


class TestDenoiseStep:
    def test_converges(self, solved):
        _, _, res = solved
        assert res.converged and not res.stalled

    def test_constraint_residual_small(self, solved):
        _, sigma, res = solved
        assert res.constraint_residual <= SolverConfig(sigma=sigma).rel_tol * sigma**2

    def test_tv_not_increased(self, solved):
        noisy, _, res = solved
        assert res.final_tv <= total_variation(noisy)
        assert res.final_tv == total_variation(res.denoised)

    def test_jump_location_kept(self, solved):
        _, _, res = solved
        jump = int(np.argmax(np.abs(np.diff(res.denoised))))
        assert abs(jump - 19) <= 1

    def test_multipliers_nonnegative(self, solved):
        # the walk starts at lambda = 0 and never steps back
        _, _, res = solved
        assert res.lambda_trace[0] >= 0.0 and (np.diff(res.lambda_trace) >= 0.0).all()

    def test_trace_length_matches_iterations(self, solved):
        _, _, res = solved
        assert res.lambda_trace.size == res.iterations > 0

    def test_deterministic(self, solved):
        noisy, sigma, res = solved
        again = denoise_values(noisy, SolverConfig(sigma=sigma, epsilon=0.1))
        np.testing.assert_array_equal(res.denoised, again.denoised)
        np.testing.assert_array_equal(res.lambda_trace, again.lambda_trace)
        assert res.iterations == again.iterations


class TestDenoiseProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_result_invariants(self, data):
        n = data.draw(st.integers(min_value=4, max_value=24))
        values = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        sigma = data.draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        config = SolverConfig(sigma=sigma, epsilon=0.1, max_iters=300)
        res = denoise_values(np.asarray(values), config)
        u = res.denoised
        assert res.final_tv == total_variation(u)
        expected = abs(0.5 * float(np.sum((u - np.asarray(values)) ** 2)) - sigma**2)
        assert res.constraint_residual == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert res.lambda_trace.size == res.iterations <= 300
        assert (res.lambda_trace >= 0.0).all()
        assert np.isfinite(u).all()


def sigma_max(values, h=1.0) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(0.5 * h * np.sum((v - v.mean()) ** 2)))


def resolvable_sigma_max(values, h=1.0) -> float:
    """sigma_max of a series whose spread is well above its rounding (a
    budget of a few ulps cannot be met to rel_tol); other series are
    rejected from the property."""
    smax = sigma_max(values, h)
    assume(smax > 1e-6 * max(1.0, max(values)))
    return smax


def assert_kkt(values, res: DenoiseResult):
    """The optimality certificate of the result as the proximal point at
    its last weight, x = argmin (1/2)|x - y|^2 + lambda TV(x): z =
    cumsum(y - x) has |z_i| <= lambda, equals -lambda sign(x_{i+1} - x_i)
    at every jump, and ends at sum(y - x) = 0."""
    y, x, lam = np.asarray(values, dtype=float), res.denoised, res.lambda_trace[-1]
    z = np.cumsum(y - x)
    atol = 1e-9 * max(1.0, float(np.abs(y).max())) * y.size
    assert abs(z[-1]) <= atol
    assert (np.abs(z[:-1]) <= lam + atol).all()
    d = np.diff(x)
    jump = d != 0
    np.testing.assert_allclose(z[:-1][jump], -lam * np.sign(d[jump]), rtol=0, atol=atol)


def assert_solved(values, sigma, res: DenoiseResult, config: SolverConfig, h=1.0):
    """A solve below sigma_max meets its budget and carries the certificate;
    one at or above it is the constant mean."""
    if res.saturated:
        assert sigma >= sigma_max(values, h) * (1 - 1e-12)
        assert res.iterations == 0 and res.final_tv == 0.0
        assert (res.denoised == res.denoised[0]).all()
    else:
        assert res.converged and res.constraint_residual <= config.rel_tol * sigma ** 2
        assert_kkt(values, res)


def brute_force_prox(y: np.ndarray, lam: float) -> np.ndarray:
    """argmin (1/2)|x - y|^2 + lam TV(x) from its dual, min |y - D^T z|^2
    over |z_i| <= lam, by trying every active set: each z_i at -lam, at
    +lam or free, the free ones by least squares.  x = y - D^T z."""
    dt = np.diff(np.eye(y.size), axis=0).T
    best, best_x = np.inf, None
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=y.size - 1):
        z = lam * np.array(pattern)
        free = z == 0.0
        if free.any():
            rhs = y - dt[:, ~free] @ z[~free]
            z[free] = np.linalg.lstsq(dt[:, free], rhs, rcond=None)[0]
            if (np.abs(z[free]) > lam * (1 + 1e-12)).any():
                continue
        x = y - dt @ z
        if x @ x < best:
            best, best_x = x @ x, x
    return best_x


def assert_bit_identical(got: DenoiseResult, want: DenoiseResult):
    for f in dataclasses.fields(DenoiseResult):
        x, y = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


def series_values(n_min=2, n_max=40):
    """Strategy for a float series of n_min..n_max samples in 0..60."""
    return st.integers(min_value=n_min, max_value=n_max).flatmap(lambda n: st.lists(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False), min_size=n, max_size=n))


@pytest.fixture(scope="module")
def diurnal_days():
    road = two_regime_corpus(n_roads=1, n_days=3, seed=7, diurnal=True)[0]
    return [noisy.values for _, noisy in road]


class TestKernelMatchesReference:
    """Solves against references outside the solver: the optimality
    certificate of the final prox, the constant mean at sigma >= sigma_max,
    the short circuits, and lone solves."""

    @pytest.mark.parametrize("day", range(3))
    def test_default_grid_sweep(self, diurnal_days, day):
        values = diurnal_days[day]
        for sigma in DEFAULT_SIGMA_GRID[1:]:
            res = denoise_values(values, dataclasses.replace(SWEEP_SOLVER, sigma=sigma))
            # at most one merge per run of equal values, then lambda*
            assert res.iterations <= len(values)
            assert (np.diff(res.lambda_trace) >= 0.0).all()
            assert_solved(values, sigma, res, SWEEP_SOLVER)

    @pytest.mark.parametrize("cut", [7, 60, 200])
    def test_causal_prefix(self, diurnal_days, cut):
        prefix = np.concatenate([diurnal_days[1][:cut], [diurnal_days[1][cut - 1]]])
        config = dataclasses.replace(SWEEP_SOLVER, sigma=10.0)
        assert_solved(prefix, 10.0, denoise_values(prefix, config), config)

    @pytest.mark.parametrize("values,sigma", [(STEP, 0.0), (np.full(10, 6.0), 2.0),
                                              (np.full(3, 11.459316183391156), 2.0)])
    def test_short_circuits(self, values, sigma):
        config = SolverConfig(sigma=sigma, epsilon=0.1)
        # sigma = 0 leaves u0 on budget; flat u0 is already the constant mean,
        # even where its computed mean rounds off it
        want = DenoiseResult(values.copy(), total_variation(values), 0, np.empty(0),
                             sigma ** 2, sigma == 0.0, saturated=sigma > 0.0)
        assert_bit_identical(denoise_values(values, config), want)


class TestExactSolve:
    @settings(max_examples=60, deadline=None)
    @given(series_values(), st.floats(min_value=0.01, max_value=0.99), st.sampled_from([1.0, 2.5]))
    def test_kkt_certificate(self, values, fraction, h):
        sigma = fraction * resolvable_sigma_max(values, h)
        res = denoise_values(values, SolverConfig(sigma=sigma), h=h)
        assert not res.saturated and res.iterations > 0
        assert_kkt(values, res)

    @settings(max_examples=60, deadline=None)
    @given(series_values(), st.floats(min_value=0.01, max_value=0.999),
           st.sampled_from([1e-2, 1e-4, 1e-8]))
    def test_residual_within_tolerance(self, values, fraction, rel_tol):
        sigma = fraction * resolvable_sigma_max(values)
        config = SolverConfig(sigma=sigma, rel_tol=rel_tol)
        res = denoise_values(values, config)
        assert res.converged
        assert res.constraint_residual <= rel_tol * sigma ** 2

    @settings(max_examples=30, deadline=None)
    @given(series_values(n_min=8, n_max=80))
    def test_tv_non_increasing_over_default_grid(self, values):
        configs = [dataclasses.replace(SWEEP_SOLVER, sigma=sigma) for sigma in DEFAULT_SIGMA_GRID]
        tvs = np.array([denoise_values(values, config).final_tv for config in configs])
        assert (np.diff(tvs) <= 1e-9 * max(1.0, tvs[0])).all()

    @settings(max_examples=40, deadline=None)
    @given(series_values(n_min=2, n_max=6), st.floats(min_value=0.05, max_value=0.95))
    def test_brute_force_small(self, values, fraction):
        y = np.asarray(values)
        sigma = fraction * resolvable_sigma_max(values)
        config = SolverConfig(sigma=sigma)
        res = denoise_values(y, config)
        x = brute_force_prox(y, res.lambda_trace[-1])
        np.testing.assert_allclose(res.denoised, x, rtol=0, atol=1e-9 * max(1.0, y.max()))
        assert abs(0.5 * float(np.sum((x - y) ** 2)) - sigma ** 2) <= 2 * config.rel_tol * sigma ** 2

    @settings(max_examples=40, deadline=None)
    @given(series_values(), st.floats(min_value=1.0001, max_value=3.0))
    def test_saturated_at_sigma_max(self, values, factor):
        smax = resolvable_sigma_max(values)
        res = denoise_values(values, SolverConfig(sigma=factor * smax))
        assert res.saturated and res.iterations == 0 and res.final_tv == 0.0
        np.testing.assert_array_equal(res.denoised, np.full(len(values), np.mean(values)))
        below = denoise_values(values, SolverConfig(sigma=0.9 * smax))
        assert not below.saturated and below.converged


class TestPathWalk:
    """The walk lands on the budget up to rounding, stays on the solution
    path when capped, and returns the constant mean where rounding merges
    it down to one segment."""

    @pytest.mark.parametrize("day", range(3))
    def test_exact_on_default_grid(self, diurnal_days, day):
        values = diurnal_days[day]
        for sigma in DEFAULT_SIGMA_GRID:
            res = denoise_values(values, SolverConfig(sigma=sigma))
            assert res.constraint_residual <= 1e-9 * sigma ** 2

    @settings(max_examples=60, deadline=None)
    @given(series_values(), st.floats(min_value=0.01, max_value=0.99))
    def test_exact_below_sigma_max(self, values, fraction):
        sigma = fraction * resolvable_sigma_max(values)
        res = denoise_values(values, SolverConfig(sigma=sigma))
        assert res.constraint_residual <= 1e-9 * sigma ** 2

    @settings(max_examples=60, deadline=None)
    @given(series_values(), st.sampled_from([1e-15, 1e-12, 1e-9]))
    def test_just_below_sigma_max(self, values, eps):
        res = denoise_values(values, SolverConfig(sigma=resolvable_sigma_max(values) * (1 - eps)))
        if res.saturated:
            np.testing.assert_array_equal(res.denoised, np.full(len(values), np.mean(values)))
            assert res.final_tv == 0.0
        else:
            assert res.converged
            assert_kkt(values, res)

    def test_one_segment_walk_is_saturated(self):
        # a few ulps below sigma_max the walk merges all four samples
        values = np.array([40.6, 39.41, 41.24, 35.18])
        res = denoise_values(values, SolverConfig(sigma=sigma_max(values) * (1 - 2e-16)))
        assert res.saturated and res.iterations == 3 and res.final_tv == 0.0
        assert (np.diff(res.lambda_trace) >= 0.0).all()
        np.testing.assert_array_equal(res.denoised, np.full(4, values.mean()))

    @settings(max_examples=60, deadline=None)
    @given(series_values(), st.floats(min_value=0.01, max_value=0.99), st.integers(1, 5))
    def test_capped_walk_stays_on_the_path(self, values, fraction, max_iters):
        sigma = fraction * resolvable_sigma_max(values)
        res = denoise_values(values, SolverConfig(sigma=sigma, max_iters=max_iters))
        assert 1 <= res.iterations <= max_iters
        assert res.converged or res.iterations == max_iters
        assert (np.diff(res.lambda_trace) >= 0.0).all()
        assert_kkt(values, res)


def run_series():
    """Strategy for a series of 2..40 samples made of runs of 1..5 equal
    values from a few levels, so runs repeat and some series are flat."""
    runs = st.lists(st.tuples(st.sampled_from([0.0, 7.5, 12.25, 30.0, 59.0]), st.integers(1, 5)),
                    min_size=1, max_size=12)
    return runs.map(lambda rs: np.repeat([v for v, _ in rs], [k for _, k in rs])).filter(
        lambda v: v.size >= 2)


class TestSweep:
    """A sweep solves one series at a list of sigmas in one walk; each
    result is the lone solve at that sigma, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(run_series(), series_values()),
           st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.5),
                              st.sampled_from([1.0, 1 - 1e-15, 1 - 1e-12, 1 - 1e-9])),
                    min_size=1, max_size=12),
           st.sampled_from([1, 2, 3, 4, 5, 40, 5000]), st.sampled_from([1.0, 2.5]))
    def test_equals_lone_solves(self, values, fractions, max_iters, h):
        # grid points as fractions of sigma_max, some at or beyond it
        smax = sigma_max(values, h)
        scale = smax if smax > 1e-100 else 1.0  # flat series: any sigma saturates
        configs = [SolverConfig(sigma=f * scale, max_iters=max_iters) for f in sorted(fractions)]
        swept = solver._sweep(values, configs, h)[0]
        assert len(swept) == len(configs)
        for config, res in zip(configs, swept):
            assert_bit_identical(res, denoise_values(values, config, h))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(run_series(), series_values()),
           st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=12),
           st.one_of(st.floats(min_value=0.0, max_value=1.2), st.sampled_from([1.0, 1e-9])),
           st.sampled_from([1, 2, 3, 40, 5000]), st.sampled_from([1.0, 2.5]))
    def test_floor_crossing_matches_lone_solves(self, values, fractions, floor, max_iters, h):
        # a floor as a fraction of TV(u0): the walk that seeks it gives
        # the same solves, and a lone solve keeps TV >= floor exactly at
        # the sigmas up to sigma_floor, outside a band of rounding (in
        # sigma around sigma_floor, and in TV around the floor, which a
        # tiny sigma leaves unchanged when TV(u0) is the floor)
        values = np.asarray(values, dtype=float)
        smax = sigma_max(values, h)
        assume(smax > 1e-100 and smax ** 2 > 1e-290)
        tv_floor = floor * total_variation(values)
        configs = [SolverConfig(sigma=f * smax, max_iters=max_iters) for f in sorted(fractions)
                   if f * smax == 0.0 or (f * smax) ** 2 > 1e-300]
        assume(configs)
        swept, sigma_floor = solver._sweep(values, configs, h, tv_floor)
        assert swept == [] or len(swept) == len(configs)
        for config, res in zip(configs, swept):
            assert_bit_identical(res, denoise_values(values, config, h))
            if (tv_floor > 0.0 and abs(config.sigma - sigma_floor) > 1e-9 * sigma_floor
                    and abs(res.final_tv - tv_floor) > 1e-12 * tv_floor):
                assert (config.sigma <= sigma_floor) == (res.final_tv >= tv_floor)
        if tv_floor == 0.0:  # also flat input, whose mean may round off u0
            assert sigma_floor == math.inf
        elif floor > 1.0:
            assert sigma_floor == 0.0
        else:
            assert 0.0 <= sigma_floor <= smax * (1 + 1e-12)

    def test_collapse_saturates_every_later_walked_sigma(self):
        # one and two ulps below sigma_max the walk merges all four samples
        values = np.array([40.6, 39.41, 41.24, 35.18])
        smax = sigma_max(values)
        below = np.nextafter(smax, 0.0)
        sigmas = [0.5 * smax, float(np.nextafter(below, 0.0)), float(below), smax]
        configs = [SolverConfig(sigma=s) for s in sigmas]
        swept = solver._sweep(values, configs)[0]
        assert [(r.saturated, r.iterations) for r in swept] == [(False, 3), (True, 3), (True, 3),
                                                                (True, 0)]
        for config, res in zip(configs, swept):
            assert_bit_identical(res, denoise_values(values, config))

    def test_walks_only_for_a_budget_or_a_floor(self, monkeypatch):
        # sigma 0 and sigma >= sigma_max need no walk; a floor still does
        values = np.array([3.0, 9.0, 1.0, 7.0, 2.0])
        configs = [SolverConfig(sigma=0.0), SolverConfig(sigma=2.0 * sigma_max(values))]
        walks = []
        walk = solver._walk
        monkeypatch.setattr(solver, "_walk", lambda *args: walks.append(args) or walk(*args))
        for config in configs:
            denoise_values(values, config)
        assert solver._sweep(values, configs)[1] == math.inf
        assert walks == []
        assert 0.0 < solver._sweep(values, configs, tv_floor=1.0)[1] < math.inf
        assert len(walks) == 1 and walks[0][1] == []

    @pytest.mark.parametrize("max_iters", [5000, 150, 40])
    @pytest.mark.parametrize("day", range(3))
    def test_default_grid_equals_lone_solves(self, diurnal_days, day, max_iters):
        values = diurnal_days[day]
        configs = [SolverConfig(sigma=s, max_iters=max_iters) for s in DEFAULT_SIGMA_GRID]
        for config, res in zip(configs, solver._sweep(values, configs)[0]):
            assert_bit_identical(res, denoise_values(values, config))


def mirrored(values: np.ndarray) -> np.ndarray:
    """values followed by their reverse: its pairs meet in mirrored pairs,
    at one weight."""
    return np.concatenate([values, values[::-1]])


def laid_end_to_end(series):
    """(u, heads): a list of series as one stack, series r at
    u[heads[r]:heads[r + 1]]."""
    return np.concatenate(series).astype(float), np.cumsum([0] + [len(v) for v in series])


def stack_solve(series, sigmas, max_iters=5000, h=1.0) -> list:
    """(x, iterations, saturated) of each series at its sigma, from one
    ``_denoise_stack`` call; the first failing series' error is raised."""
    u, heads = laid_end_to_end(series)
    x, iterations, saturated, errors = solver._denoise_stack(
        u, heads, np.asarray(sigmas, dtype=float), SolverConfig(sigma=0.0, max_iters=max_iters), h)
    if errors:
        raise errors[min(errors)]
    assert (x.shape, iterations.shape, saturated.shape) == (u.shape,) + ((len(series),),) * 2
    return [(x[a:b], int(i), bool(sat))
            for a, b, i, sat in zip(heads[:-1], heads[1:], iterations, saturated)]


def assert_same_solve(row, want: DenoiseResult):
    """A row of ``stack_solve`` against a lone solve: x, iterations and
    saturated bit for bit."""
    x, iterations, saturated = row
    assert (x.dtype, x.shape, x.tobytes()) == (want.denoised.dtype, want.denoised.shape,
                                               want.denoised.tobytes())
    assert (iterations, saturated) == (want.iterations, want.saturated)


def assert_same_walk(stack, r, want):
    """Row r of a ``_walk_stack`` result against ``_walk``'s (x, trace):
    x bit for bit, the trace's length and last weight, and collapsed where
    x is None."""
    x, iterations, collapsed, last = stack
    x0, trace0 = want
    assert (iterations[r], last[r].tobytes()) == (len(trace0), np.float64(trace0[-1]).tobytes())
    assert collapsed[r] == (x0 is None)
    if x0 is not None:
        assert (x[r].dtype, x[r].shape, x[r].tobytes()) == (x0.dtype, x0.shape, x0.tobytes())


def walk_stack(series, budgets, max_iters):
    """``_walk_stack`` of a list of series, its x split back into rows."""
    u, heads = laid_end_to_end(series)
    x, iterations, collapsed, last = solver._walk_stack(u, heads, budgets, max_iters)
    assert (x.shape, iterations.shape, collapsed.shape, last.shape) == (u.shape,) + (
        (len(series),),) * 3
    return np.split(x, heads[1:-1]), iterations, collapsed, last


def _ulp_step(x: float, k: int) -> float:
    """x moved k steps of the float spacing, up for k > 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else 0.0))
    return x


class TestWalkStack:
    """A stack of series walked in lockstep: each row is the heap walk of
    its series to its budget alone, bit for bit in x, the trace's length
    and last weight, and collapsed where that walk merged down to one
    segment."""

    FRACTIONS = st.one_of(st.floats(min_value=1e-6, max_value=1.0),
                          st.sampled_from([1 - 1e-15, 1 - 1e-12, 1 - 1e-9, 1.0, 1.5]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.one_of(run_series(), run_series().map(mirrored), series_values()),
                              FRACTIONS), min_size=1, max_size=8),
           st.sampled_from([1, 2, 3, 4, 5, 40, 5000]), st.sampled_from([1.0, 2.5]))
    # two pairs meet at one weight, and the lower index merges first
    @example([(np.array([30.0, 7.5, 0.0, 0.0, 0.0, 0.0, 0.0, 7.5, 7.5, 30.0]), 0.9)], 5000, 1.0)
    def test_rows_equal_lone_walks(self, rows, max_iters, h):
        # a flat series has no walk: its solve returns it as it is
        rows = [(np.asarray(v, dtype=float), f) for v, f in rows if min(v) != max(v)]
        assume(rows)
        series = [v for v, _ in rows]
        # sigma a fraction of sigma_max, some a few ulps below it, at it or
        # beyond it, and the budget 2 sigma^2 / h of a solve
        budgets = [2.0 * (f * sigma_max(v, h)) ** 2 / h for v, f in rows]
        stack = walk_stack(series, budgets, max_iters)
        for r, (u0, budget) in enumerate(zip(series, budgets)):
            assert_same_walk(stack, r, solver._walk(u0, [budget], max_iters)[0][0])

    @pytest.mark.parametrize("max_iters", [5000, 40])
    def test_causal_prefixes_equal_lone_walks(self, diurnal_days, max_iters):
        # a day's causal prefixes, each with its last slice repeated as
        # the boundary, at a sigma scaled to the observed fraction
        day = diurnal_days[2]
        series = [np.append(day[:n], day[n - 1]) for n in range(4, 286, 3)]
        budgets = [2.0 * min(25.0 ** 2 * (v.size / 288), 0.9 * sigma_max(v) ** 2) for v in series]
        stack = walk_stack(series, budgets, max_iters)
        for r, (u0, budget) in enumerate(zip(series, budgets)):
            assert_same_walk(stack, r, solver._walk(u0, [budget], max_iters)[0][0])

    def test_stack_solve_equals_lone_solves(self):
        # the short circuits (sigma 0, flat rows, sigma >= sigma_max) and
        # the walked rows, at sigmas in no order along the stack
        rng = np.random.default_rng(11)
        series = [rng.normal(30.0, 5.0, n) for n in (5, 40, 12, 3, 288)]
        series += [np.full(7, 4.0), np.zeros(9), np.array([40.6, 39.41, 41.24, 35.18])]
        sigmas = [2.0, 0.0, 50.0, 1.0, 25.0, 3.0, 0.5, sigma_max(series[-1]) * (1 - 2e-16)]
        stacked = stack_solve(series, sigmas)
        # the last row merges down to one segment a few ulps below sigma_max
        assert [sat for _, _, sat in stacked] == [False] * 2 + [True] + [False] * 2 + [True] * 3
        assert stacked[-1][1] == 3
        for values, sigma, row in zip(series, sigmas, stacked):
            assert_same_solve(row, denoise_values(values, SolverConfig(sigma=sigma)))

    @pytest.mark.parametrize("h", [1.0, 2.5])
    @pytest.mark.parametrize("max_iters", [5000, 3])
    def test_rows_at_sigma_max_equal_lone_solves(self, h, max_iters):
        # sigma^2 within a few ulps of sigma_max^2: sigma_max^2 summed over
        # the stack differs from a lone np.sum in its last bits, so such a
        # row decides by its lone sum
        rng = np.random.default_rng(19)
        series = [rng.normal(30.0, 5.0, n) for n in (6, 31, 64, 127, 200, 289)]
        series += [np.append(rng.normal(30.0, 5.0, n), 1e3) for n in (50, 288)]
        ulps = range(-12, 13)
        sigmas = [_ulp_step(sigma_max(v, h), k) for v in series for k in ulps]
        rows = [v for v in series for _ in ulps]
        u, heads = laid_end_to_end(rows)
        stacked_spread = 0.5 * h * np.add.reduceat(
            (u - np.repeat(np.add.reduceat(u, heads[:-1]) / np.diff(heads), np.diff(heads))) ** 2,
            heads[:-1])
        lone_spread = np.array([sigma_max(v, h) ** 2 for v in rows])
        sq = np.square(sigmas)
        # some rows lie between the two sums, where they would decide apart
        between = (np.minimum(stacked_spread, lone_spread) <= sq) & (
            sq < np.maximum(stacked_spread, lone_spread))
        assert between.sum() >= 3
        for values, sigma, row in zip(rows, sigmas, stack_solve(rows, sigmas, max_iters, h)):
            assert_same_solve(row, denoise_values(values, SolverConfig(sigma=sigma,
                                                                       max_iters=max_iters), h))

    def test_one_walking_row_takes_the_heap_walk(self, monkeypatch):
        # a lone prefix costs a dozen times more in lockstep; the short
        # circuits around it leave one row to walk
        def no_stack(*args):
            raise AssertionError("lockstep walk for one row")

        rng = np.random.default_rng(12)
        series = [rng.normal(30.0, 5.0, 288), np.full(7, 4.0), rng.normal(30.0, 5.0, 9)]
        sigmas = [20.0, 2.0, 0.0]
        want = [denoise_values(values, SolverConfig(sigma=s)) for values, s in zip(series, sigmas)]
        monkeypatch.setattr(solver, "_walk_stack", no_stack)
        for values, sigma, w in zip(series, sigmas, want):
            assert_same_solve(stack_solve([values], [sigma])[0], w)
        for row, w in zip(stack_solve(series, sigmas), want):
            assert_same_solve(row, w)

    @pytest.mark.parametrize("order", ["rising", "falling", "mixed"])
    @pytest.mark.parametrize("max_iters", [5000, 3])
    def test_walked_rows_in_several_blocks_equal_lone_solves(self, order, max_iters,
                                                             poison_rows, monkeypatch):
        # a budget of three 100-sample rows: walked rows of 5 to 288
        # samples fall into blocks of one to a dozen rows, the 288-sample
        # row alone (a heap walk), between rows that walk no path
        rng = np.random.default_rng(29)
        lengths = [5, 9, 14, 20, 40, 64, 100, 150, 288]
        lengths = {"rising": lengths, "falling": lengths[::-1],
                   "mixed": [40, 288, 5, 100, 14, 150, 9, 64, 20]}[order]
        walked = [(rng.normal(30.0, 5.0, n), 2.0) for n in lengths]
        collapse = np.array([40.6, 39.41, 41.24, 35.18])
        poisoned = np.append(77.125, rng.normal(30.0, 5.0, 30))
        others = [(rng.normal(30.0, 5.0, 12), 0.0), (np.full(9, 4.0), 2.0),
                  (rng.normal(30.0, 0.1, 16), 50.0), (collapse, sigma_max(collapse) * (1 - 2e-16)),
                  (poisoned, 2.0)]
        rows = [row for pair in itertools.zip_longest(walked, others) for row in pair if row]
        poison_rows(77.125)
        budget = 3 * 101 * solver._STACK_ENTRY_BYTES
        monkeypatch.setattr(solver, "_STACK_BYTES", budget)
        calls, walk_stack = [], solver._walk_stack

        def spy(u, heads, budgets, max_iters):
            calls.append((heads.size - 1) * (np.diff(heads).max() + 1) * solver._STACK_ENTRY_BYTES)
            return walk_stack(u, heads, budgets, max_iters)

        monkeypatch.setattr(solver, "_walk_stack", spy)
        series, sigmas = [v for v, _ in rows], [s for _, s in rows]
        u, heads = laid_end_to_end(series)
        x, iterations, saturated, errors = solver._denoise_stack(
            u, heads, sigmas, SolverConfig(sigma=0.0, max_iters=max_iters))
        assert len(calls) > 1 and max(calls) <= budget
        position = {id(v): r for r, v in enumerate(series)}
        assert sorted(errors) == [position[id(poisoned)]]
        for r, (values, sigma) in enumerate(rows):
            try:
                want = denoise_values(values, SolverConfig(sigma=sigma, max_iters=max_iters))
            except FloatingPointError as exc:
                assert (type(errors[r]), str(errors[r])) == (type(exc), str(exc))
            else:
                assert_same_solve((x[heads[r]:heads[r + 1]], int(iterations[r]),
                                   bool(saturated[r])), want)
        if max_iters == 3:  # the longer rows stop at the cap, short of the budget
            assert iterations[position[id(max(series, key=len))]] == 3

    # rows a solve takes: varied, in runs, flat; and sigma 0, a fraction
    # of sigma_max, or a few ulps either side of it
    GOOD = st.tuples(
        st.one_of(series_values().map(np.array), run_series(),
                  st.tuples(st.integers(2, 9), st.floats(0.0, 60.0)).map(lambda t: np.full(*t))),
        st.one_of(st.just(("at", 0.0)), st.tuples(st.just("fraction"), st.floats(1e-3, 1.5)),
                  st.tuples(st.just("ulps"), st.integers(-3, 3))))
    # rows a solve rejects: too short, a NaN sample, a spread whose squares
    # overflow; or a sigma that is negative, NaN or whose square underflows
    # or overflows
    BAD = st.one_of(
        st.tuples(st.one_of(
            st.lists(st.floats(0.0, 60.0), max_size=1).map(np.array),
            series_values().flatmap(lambda v: st.integers(0, len(v) - 1).map(
                lambda i: np.where(np.arange(len(v)) == i, np.nan, v))),
            series_values().map(lambda v: 1e200 * (np.array(v) + 1.0))), GOOD.map(lambda g: g[1])),
        st.tuples(GOOD.map(lambda g: g[0]),
                  st.tuples(st.just("at"), st.sampled_from([-1.0, math.nan, 1e-170, 1e160]))))

    @staticmethod
    def _sigma(values, spec, h) -> float:
        """("at", s) is s; ("fraction", f) and ("ulps", k) are f sigma_max
        and sigma_max moved k ulps, with 3 standing in for a sigma_max of 0
        or one that is not finite."""
        kind, k = spec
        if kind == "at":
            return k
        with np.errstate(over="ignore", invalid="ignore"):
            smax = sigma_max(values, h) if len(values) else math.nan
        smax = smax if math.isfinite(smax) and smax > 0.0 else 3.0
        return k * smax if kind == "fraction" else _ulp_step(smax, k)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(GOOD, min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 6), BAD), max_size=2),
           st.sampled_from([3, 5000]), st.sampled_from([1.0, 2.5]))
    # a NaN sample in the first row and a negative sigma in the second
    @example([], [(0, (np.array([1.0, np.nan, 3.0, 4.0]), ("at", 1.0))),
                  (1, (np.array([1.0, 2.0, 3.0, 4.0]), ("at", -1.0)))], 5000, 1.0)
    def test_stack_equals_lone_solves_or_raises_their_first_error(self, good, bad, max_iters, h):
        # each row on its own: its lone solve's result bit for bit, or the
        # error its lone solve raises, whatever the other rows do
        entries = list(good)
        for at, entry in bad:
            entries.insert(at, entry)
        series = [values for values, _ in entries]
        sigmas = [self._sigma(values, spec, h) for values, spec in entries]
        u, heads = laid_end_to_end(series)
        x, iterations, saturated, errors = solver._denoise_stack(
            u, heads, sigmas, SolverConfig(sigma=0.0, max_iters=max_iters), h)
        for r, (values, sigma) in enumerate(zip(series, sigmas)):
            try:
                want = denoise_values(values, SolverConfig(sigma=sigma, max_iters=max_iters), h)
            except (ValueError, FloatingPointError) as exc:
                assert (type(errors.get(r)), str(errors.get(r))) == (type(exc), str(exc))
            else:
                assert r not in errors
                assert_same_solve((x[heads[r]:heads[r + 1]], int(iterations[r]),
                                   bool(saturated[r])), want)


class TestSolveFailures:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite sample in values at index 1"):
            denoise_values([1.0, np.nan], SWEEP_SOLVER)
        with pytest.raises(ValueError, match="one-dimensional"):
            denoise_values(np.zeros((2, 10)), SWEEP_SOLVER)
        with pytest.raises(ValueError, match="at least two samples"):
            denoise_values([1.0], SWEEP_SOLVER)

    def test_poisoned_prox_raises_non_finite_iterate(self, poison_rows):
        values = np.random.default_rng(5).normal(30.0, 5.0, 40)
        values[0] = 77.125
        poison_rows(77.125)
        with pytest.raises(FloatingPointError, match="non-finite iterate"):
            denoise_values(values, SolverConfig(sigma=3.0, epsilon=0.1))

    def test_overflowing_spread_raises_non_finite_fidelity(self):
        # deviations near 1e199 square past the float range
        values = 1e200 * np.random.default_rng(5).normal(1.0, 0.1, 40)
        with pytest.raises(FloatingPointError, match="non-finite fidelity"):
            denoise_values(values, SolverConfig(sigma=3.0))
        with pytest.raises(FloatingPointError, match="non-finite fidelity"):
            solver._sweep(values, [SolverConfig(sigma=0.0), SolverConfig(sigma=3.0)])
        # sigma 0 needs no sigma_max^2: a lone solve, a sweep and a stack row
        # return the values as they are
        zero = SolverConfig(sigma=0.0)
        lone = denoise_values(values, zero)
        assert lone.denoised.tolist() == values.tolist() and not lone.saturated
        for res in solver._sweep(values, [zero, zero])[0]:
            assert res.denoised.tolist() == values.tolist() and not res.saturated
        x, iterations, saturated, errors = solver._denoise_stack(
            values, np.array([0, values.size]), [0.0], zero)
        assert x.tolist() == values.tolist() and errors == {}
        assert iterations.tolist() == [0] and saturated.tolist() == [False]
