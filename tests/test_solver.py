import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvroad import solver as solver_module
from tvroad.noise import DEFAULT_SIGMA_GRID, SWEEP_SOLVER
from tvroad.series import total_variation
from tvroad.solver import (
    DenoiseResult,
    LineSearchParams,
    SolverConfig,
    compute_gradient,
    compute_lambda,
    denoise_sweep,
    denoise_values,
    smoothed_total_variation,
    sweep_config,
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
    def test_lambda_zero_at_fixed_input(self):
        u0 = np.array([1.0, 5.0, 2.0, 8.0])
        assert compute_lambda(u0, u0, sigma=1.0, h=1.0, epsilon=0.1) == 0.0

    def test_lambda_hand_value(self):
        # d = (1, -1), d0 = (2, -2), r = (1, -1)/(1 + eps):
        # lambda = (h / 2 sigma^2) * 2 / (1 + eps) -> 1
        lam = compute_lambda([0.0, 1.0, 0.0], [0.0, 2.0, 0.0], sigma=1.0, h=1.0, epsilon=1e-9)
        assert lam == pytest.approx(1.0, abs=1e-8)

    def test_lambda_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            compute_lambda([0.0, 1.0], [0.0, 1.0], sigma=0.0, h=1.0, epsilon=0.1)

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
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0, rel_tol=0.0)

    def test_sigma_whose_square_underflows_rejected(self):
        # h / (2 sigma^2) would divide by zero inside the solver
        values = np.random.default_rng(0).normal(size=50)
        with pytest.raises(ValueError, match="underflows"):
            denoise_values(values, SolverConfig(sigma=1e-200))
        with pytest.raises(ValueError, match="underflows"):
            denoise_sweep(np.stack([values, values]), [1.0, 1e-200], SWEEP_SOLVER)
        assert SolverConfig(sigma=1e-150).sigma == 1e-150

    @pytest.mark.parametrize("sigma", [1e-160, 1e-155, 1e-154])
    def test_sigma_whose_square_is_subnormal_rejected(self, sigma):
        # a subnormal square overflows h / (2 sigma^2): the solve used to
        # report a stall after 1-3 iterations with a meaningless result
        values = np.random.default_rng(0).normal(size=50)
        with pytest.raises(ValueError, match="underflows"):
            denoise_values(values, SolverConfig(sigma=sigma, epsilon=0.1))

    def test_line_search_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LineSearchParams(initial_step=0.0)
        with pytest.raises(ValueError):
            LineSearchParams(shrink=1.0)
        with pytest.raises(ValueError):
            LineSearchParams(max_backtracks=-1)

    def test_result_checks_trace_length(self):
        with pytest.raises(ValueError):
            DenoiseResult(np.zeros(3), 0.0, 2, np.zeros(1), 0.0, True)

    def test_sweep_config_replaces_sigma_only(self):
        template = SolverConfig(sigma=0.0, epsilon=0.1, max_iters=123)
        out = sweep_config(template, 7.0)
        assert out.sigma == 7.0
        assert out.epsilon == 0.1 and out.max_iters == 123


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

    def test_stall_reported(self):
        ls = LineSearchParams(initial_step=1e12, max_backtracks=0)
        config = SolverConfig(sigma=2.0, epsilon=0.1, line_search=ls)
        res = denoise_values(STEP, config)
        assert res.stalled and not res.converged
        assert res.iterations == 1
        assert res.lambda_trace.size == 1


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
        assert res.constraint_residual <= 0.15 * sigma**2

    def test_tv_not_increased(self, solved):
        noisy, _, res = solved
        assert res.final_tv <= total_variation(noisy)
        assert res.final_tv == total_variation(res.denoised)

    def test_jump_location_kept(self, solved):
        _, _, res = solved
        jump = int(np.argmax(np.abs(np.diff(res.denoised))))
        assert abs(jump - 19) <= 1

    def test_multipliers_nonnegative(self, solved):
        # a negative multiplier would make the frozen-multiplier merit
        # unbounded below, so the loop clamps at zero
        _, _, res = solved
        assert (res.lambda_trace >= 0.0).all()

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


def _reference_denoise(values, config: SolverConfig, h: float = 1.0) -> DenoiseResult:
    """The solver as a plain one-solve loop: every quantity recomputed from
    the iterate each time and one Armijo trial at a time.  Oracle for the
    batched kernel, which must reproduce it bit for bit."""
    u0 = np.asarray(values, dtype=float)
    v0 = total_variation(u0)
    if config.sigma == 0.0:
        return DenoiseResult(u0.copy(), v0, 0, np.empty(0), 0.0, True)
    if v0 == 0.0:
        return DenoiseResult(u0.copy(), v0, 0, np.empty(0), config.sigma ** 2, True)

    sigma, eps, ls = config.sigma, config.epsilon, config.line_search
    du0 = np.diff(u0)
    u = u0.copy()
    trace = []
    converged = stalled = False
    iterations = config.max_iters
    backtracks = 0
    for n in range(config.max_iters):
        du = np.diff(u)
        r = du / (np.abs(du) + eps)
        lam = (h / (2.0 * sigma ** 2)) * float(np.sum(r * (du0 - du)))
        if lam < 0.0:
            lam = 0.0
        trace.append(lam)
        rpad = np.concatenate(([0.0], r, [0.0]))
        g = -((np.diff(rpad) / h) - lam * (u - u0))

        merit0 = smoothed_total_variation(u, eps) + 0.5 * lam * h * float(np.sum((u - u0) ** 2))
        gg = h * float(np.sum(g * g))
        t = ls.initial_step
        accepted = False
        for _ in range(ls.max_backtracks):
            u_new = u - t * g
            merit = smoothed_total_variation(u_new, eps) + 0.5 * lam * h * float(
                np.sum((u_new - u0) ** 2)
            )
            if merit <= merit0 - ls.sufficient_decrease * t * gg:
                accepted = True
                break
            t *= ls.shrink
            backtracks += 1
        if not accepted:
            stalled = True
            iterations = n + 1
            break
        if not np.isfinite(u_new).all():
            raise FloatingPointError(
                f"non-finite iterate at iteration {n} (step {t}); bad step size"
            )
        u = u_new
        if np.max(np.abs(g)) / v0 <= config.rel_tol:
            converged = True
            iterations = n + 1
            break

    residual = abs(0.5 * h * float(np.sum((u - u0) ** 2)) - sigma ** 2)
    return DenoiseResult(u, total_variation(u), iterations, np.array(trace[:iterations]),
                         residual, converged, stalled, backtracks)


def assert_bit_identical(got: DenoiseResult, want: DenoiseResult):
    for f in dataclasses.fields(DenoiseResult):
        x, y = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


@pytest.fixture(scope="module")
def diurnal_days():
    road = two_regime_corpus(n_roads=1, n_days=3, seed=7, diurnal=True)[0]
    return [noisy.values for _, noisy in road]


class TestKernelMatchesReference:
    @pytest.mark.parametrize("day", range(3))
    def test_default_grid_sweep(self, diurnal_days, day):
        values = diurnal_days[day]
        grid = DEFAULT_SIGMA_GRID
        sweep = denoise_sweep(np.tile(values, (len(grid), 1)), grid, SWEEP_SOLVER)
        capped = [s for s, res in zip(DEFAULT_SIGMA_GRID, sweep)
                  if res.iterations == SWEEP_SOLVER.max_iters]
        if day == 0:
            # the grid's ends run to the iteration cap on this day
            assert capped[0] == 1.0 and capped[-1] == 50.0
        for sigma, res in zip(DEFAULT_SIGMA_GRID, sweep):
            assert_bit_identical(res, _reference_denoise(values, sweep_config(SWEEP_SOLVER, sigma)))

    @pytest.mark.parametrize("cut", [7, 60, 200])
    def test_causal_prefix(self, diurnal_days, cut):
        prefix = np.concatenate([diurnal_days[1][:cut], [diurnal_days[1][cut - 1]]])
        config = sweep_config(SWEEP_SOLVER, 10.0)
        assert_bit_identical(denoise_values(prefix, config), _reference_denoise(prefix, config))

    def test_stall(self):
        ls = LineSearchParams(initial_step=1e12, max_backtracks=0)
        config = SolverConfig(sigma=2.0, epsilon=0.1, line_search=ls)
        res = denoise_values(STEP, config)
        assert res.stalled and res.backtracks == 0
        assert_bit_identical(res, _reference_denoise(STEP, config))

    @pytest.mark.parametrize("values,sigma", [(STEP, 0.0), (np.full(10, 6.0), 2.0)])
    def test_short_circuits(self, values, sigma):
        config = SolverConfig(sigma=sigma, epsilon=0.1)
        assert_bit_identical(denoise_values(values, config), _reference_denoise(values, config))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sweep_rows_equal_lone_solves(self, data):
        n = data.draw(st.integers(min_value=2, max_value=40))
        values = np.asarray(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False), min_size=n, max_size=n)))
        sigmas = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=8.0)),
            min_size=1, max_size=5))
        shrink = data.draw(st.floats(min_value=0.05, max_value=0.95).filter(lambda s: s != 0.5))
        ls = LineSearchParams(shrink=shrink, max_backtracks=data.draw(st.integers(0, 12)))
        template = SolverConfig(sigma=0.0, epsilon=0.1, max_iters=150, line_search=ls)
        sweep = denoise_sweep(np.tile(values, (len(sigmas), 1)), sigmas, template)
        for sigma, res in zip(sigmas, sweep):
            assert_bit_identical(res, denoise_values(values, sweep_config(template, sigma)))


class TestStackedEntry:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_stacked_rows_equal_lone_solves(self, data):
        n = data.draw(st.integers(min_value=2, max_value=30))
        rows, sigmas = [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=9))):
            if data.draw(st.booleans()):
                row = np.full(n, data.draw(st.floats(min_value=0.0, max_value=60.0)))
            else:
                row = np.asarray(data.draw(st.lists(
                    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                    min_size=n, max_size=n)))
            rows.append(row)
            sigmas.append(data.draw(st.one_of(st.just(0.0), st.floats(min_value=0.01,
                                                                      max_value=8.0))))
        template = SolverConfig(sigma=0.0, epsilon=0.1, max_iters=150)
        # Blocks of one row up to the whole stack, and budgets that are
        # not a whole number of rows.
        budget = data.draw(st.integers(min_value=1, max_value=8 * n * (len(rows) + 1)))
        with mock.patch.object(solver_module, "_BLOCK_BYTES", budget):
            stacked = denoise_sweep(np.array(rows), sigmas, template)
        assert len(stacked) == len(rows)
        for row, sigma, res in zip(rows, sigmas, stacked):
            assert_bit_identical(res, denoise_values(row, sweep_config(template, sigma)))

    def test_road_days_across_blocks(self, diurnal_days):
        # three 288-sample days at two sigmas each, in blocks of 4 rows
        stack = np.repeat(np.array(diurnal_days), 2, axis=0)
        sigmas = [10.0, 20.0] * 3
        with mock.patch.object(solver_module, "_BLOCK_BYTES", 4 * 288 * 8):
            stacked = denoise_sweep(stack, sigmas, SWEEP_SOLVER)
        for row, sigma, res in zip(stack, sigmas, stacked):
            assert_bit_identical(res, _reference_denoise(row, sweep_config(SWEEP_SOLVER, sigma)))

    def test_failing_row_fails_alone(self, poison_rows):
        rng = np.random.default_rng(5)
        stack = rng.normal(30.0, 5.0, (4, 40))
        stack[2, 0] = 77.125
        config = SolverConfig(sigma=3.0, epsilon=0.1)
        want = [denoise_values(row, config) for row in np.delete(stack, 2, axis=0)]
        poison_rows(77.125)
        stacked = denoise_sweep(stack, [3.0] * 4, config)
        with pytest.raises(FloatingPointError, match="non-finite iterate"):
            denoise_values(stack[2], config)
        assert isinstance(stacked[2], FloatingPointError)
        for res, lone in zip(stacked[:2] + stacked[3:], want):
            assert_bit_identical(res, lone)

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="stack"):
            denoise_sweep(np.zeros(10), [1.0], SWEEP_SOLVER)
        with pytest.raises(ValueError, match="one sigma per row"):
            denoise_sweep(np.zeros((2, 10)), [1.0], SWEEP_SOLVER)
        with pytest.raises(ValueError, match="non-finite"):
            denoise_sweep(np.array([[1.0, np.nan]]), [1.0], SWEEP_SOLVER)
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            denoise_sweep(np.zeros((2, 10)), [1.0, -1.0], SWEEP_SOLVER)
