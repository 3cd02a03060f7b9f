import math

import numpy as np
import pytest

from tvroad import forecast
from tvroad.cluster import FLAG_DEGENERATE_DC, delta_neighbors, local_density, select_centers
from tvroad.forecast import (
    BOUNDARY_OFFSET,
    LABEL_OFFSET,
    WINDOW,
    HistorySet,
    _GoalMatcher,
    _weighted_label,
    boundary_forecast,
    build_history,
    causal_denoise_window,
    compare_pipelines,
    fit_boundary,
    mape,
    predict,
    rmae,
)
from tvroad.noise import SWEEP_SOLVER, estimate_sigma
from tvroad.series import VelocitySeries
from tvroad.solver import SolverConfig, denoise_values, sweep_config
from tvroad.synth import two_regime_corpus

RAMP = np.arange(288.0)


def family_history(level, labels, n=8):
    windows = np.full((n, WINDOW), float(level))
    return HistorySet(windows, np.asarray(labels, dtype=float), tuple((None, i) for i in range(n)))


def _reference_match(windows, labels, d_c, k, goal):
    """Full-matrix goal matcher: the bit-identity oracle for _GoalMatcher.

    Borders the history distance matrix with the goal's row and column,
    runs delta_neighbors over the whole (m+1)-square matrix and walks the
    density order.  Returns (value, fell_back, path), path naming the
    branches taken.
    """
    m = windows.shape[0]
    base = np.sqrt(((windows[:, None, :] - windows[None, :, :]) ** 2).sum(axis=-1))
    rho_base = local_density(base, d_c)
    dist = np.zeros((m + 1, m + 1))
    dist[:m, :m] = base
    d_goal = np.sqrt(((windows - goal) ** 2).sum(axis=-1))
    dist[m, :m] = d_goal
    dist[:m, m] = d_goal
    w_goal = np.exp(-((d_goal / d_c) ** 2))
    rho = np.concatenate([rho_base + w_goal, [w_goal.sum()]])
    delta, nn, order = delta_neighbors(dist, rho)
    centers = select_centers(rho, delta, k)
    label = np.zeros(m + 1, dtype=np.int64)
    for cid, c in enumerate(centers, start=1):
        label[c] = cid
    for i in order:
        if label[i] == 0:
            label[i] = label[nn[i]]
    path = {"goal-densest": order[0] == m, "densest-not-center": order[0] not in centers}
    if (label == 0).any():
        for i in np.flatnonzero(label == 0):
            label[i] = 1 + int(np.argmin(dist[i, centers]))
    members = np.flatnonzero(label == label[m])
    members = members[members < m]
    path["fallback"] = members.size == 0
    if members.size == 0:
        return _weighted_label(w_goal, labels), True, path
    return _weighted_label(w_goal[members], labels[members]), False, path


def tie_heavy_history():
    """One flat day plus two days rounded to whole units: many exact ties."""
    rng = np.random.default_rng(9)
    rounded = [np.round(np.clip(rng.normal(30.0, 1.5, 288), 0.0, None)) for _ in range(2)]
    return build_history([np.full(288, 30.0), *rounded])


class TestBuildHistory:
    def test_ramp_windows_and_labels(self):
        hs = build_history([RAMP])
        assert len(hs) == 282
        np.testing.assert_array_equal(hs.windows[0], [0.0, 1.0, 2.0, 3.0])
        assert hs.labels[0] == 6.0
        np.testing.assert_array_equal(hs.windows[-1], [281.0, 282.0, 283.0, 284.0])
        assert hs.labels[-1] == 287.0
        assert hs.provenance[0] == (None, 1)
        assert hs.provenance[-1] == (None, 282)

    def test_boundary_offset_keeps_window_set(self):
        near = build_history([RAMP], label_offset=BOUNDARY_OFFSET)
        far = build_history([RAMP])
        np.testing.assert_array_equal(near.windows, far.windows)
        assert near.labels[0] == 4.0

    def test_days_concatenate(self):
        assert len(build_history([RAMP] * 7)) == 7 * 282

    def test_series_day_recorded(self):
        hs = build_history([VelocitySeries("r", 3, RAMP, h=1.0)])
        assert hs.provenance[0] == (3, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_history([RAMP[:100]])
        with pytest.raises(ValueError):
            build_history([RAMP], label_offset=3)
        with pytest.raises(ValueError):
            build_history([RAMP], label_offset=7)

    def test_history_set_validation(self):
        with pytest.raises(ValueError):
            HistorySet(np.zeros((5, 3)), np.zeros(5), tuple([None] * 5))
        with pytest.raises(ValueError):
            HistorySet(np.zeros((5, 4)), np.zeros(4), tuple([None] * 5))
        with pytest.raises(ValueError):
            HistorySet(np.zeros((5, 4)), np.zeros(5), (None,))


class TestBoundaryModel:
    def test_recovers_exact_linear_rule(self):
        rng = np.random.default_rng(0)
        windows = rng.normal(30.0, 5.0, (50, WINDOW))
        true_coef = np.array([2.0, 0.5, 0.0, -0.25, 1.0])
        labels = np.hstack([np.ones((50, 1)), windows]) @ true_coef
        model = fit_boundary(HistorySet(windows, labels, tuple([None] * 50)))
        assert not model.used_fallback
        np.testing.assert_allclose(model.coef, true_coef, atol=1e-8)
        assert model.predict_next([1.0, 2.0, 3.0, 4.0]) == pytest.approx(5.75)

    def test_constant_day_falls_back_to_persistence(self):
        model = fit_boundary(build_history([np.full(288, 20.0)], label_offset=BOUNDARY_OFFSET))
        assert model.used_fallback
        assert model.predict_next([1.0, 2.0, 3.0, 4.0]) == 4.0

    def test_fit_never_worse_than_persistence_in_sample(self):
        rng = np.random.default_rng(1)
        day = np.clip(30.0 + np.cumsum(rng.normal(0.0, 1.5, 288)), 0.0, None)
        hs = build_history([day], label_offset=BOUNDARY_OFFSET)
        model = fit_boundary(hs)
        fitted = np.array([model.predict_next(w) for w in hs.windows])
        persistence = hs.windows[:, -1]
        assert np.sum((fitted - hs.labels) ** 2) <= np.sum((persistence - hs.labels) ** 2)

    def test_requires_enough_pairs(self):
        with pytest.raises(ValueError):
            fit_boundary(family_history(10.0, np.zeros(5), n=5))

    def test_forecast_helper_matches_model(self):
        rng = np.random.default_rng(2)
        day = rng.normal(25.0, 4.0, 288)
        hs = build_history([day], label_offset=BOUNDARY_OFFSET)
        goal = [20.0, 21.0, 22.0, 23.0]
        assert boundary_forecast(hs, goal) == fit_boundary(hs).predict_next(goal)


class TestCausalWindow:
    def test_matches_manual_assembly(self):
        rng = np.random.default_rng(3)
        prefix = rng.normal(30.0, 3.0, 40)
        series = np.concatenate([prefix, [25.3]])
        expected = denoise_values(series, sweep_config(SWEEP_SOLVER, 3.0), h=1.0).denoised[-5:-1]
        out = causal_denoise_window(prefix, 25.3, 3.0, SWEEP_SOLVER)
        np.testing.assert_array_equal(out, expected)
        assert out.shape == (WINDOW,)

    def test_needs_full_window(self):
        with pytest.raises(ValueError):
            causal_denoise_window([1.0, 2.0, 3.0], 4.0, 1.0, SWEEP_SOLVER)


class TestMetrics:
    def test_rmae(self):
        assert rmae([10.0, 10.0], [9.0, 11.0]) == pytest.approx(0.1)

    def test_rmae_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rmae([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            rmae([0.0, 0.0], [1.0, 1.0])

    def test_mape_excludes_stopped_traffic(self):
        value, count = mape([0.5, 2.0, 4.0], [1.0, 1.0, 2.0])
        assert (value, count) == (0.5, 2)

    def test_mape_threshold_is_strict(self):
        value, count = mape([1.0, 2.0], [0.0, 1.0])
        assert (value, count) == (0.5, 1)

    def test_mape_needs_moving_traffic(self):
        with pytest.raises(ValueError):
            mape([0.5, 1.0], [1.0, 1.0])


class TestPredict:
    def test_follows_matching_family(self):
        rng = np.random.default_rng(4)
        slow = rng.normal(10.0, 0.3, (20, WINDOW))
        fast = rng.normal(40.0, 0.3, (20, WINDOW))
        hs = HistorySet(
            np.vstack([slow, fast]),
            np.array([10.0] * 20 + [40.0] * 20),
            tuple([None] * 40),
        )
        assert predict(hs, [40.0, 40.1, 39.9, 40.0], d_c=2.0) == pytest.approx(40.0)
        assert predict(hs, [10.0, 10.1, 9.9, 10.0], d_c=2.0) == pytest.approx(10.0)

    def test_isolated_goal_becomes_its_own_center(self):
        # the goal ends up a center with no other member, so the answer
        # falls back to the kernel average over every window; equal
        # distances make that the plain label mean
        hs = family_history(10.0, np.arange(8.0))
        assert predict(hs, [11.5] * 4, d_c=2.0) == pytest.approx(3.5)

    def test_forced_single_cluster_averages_everything(self):
        hs = family_history(10.0, np.arange(8.0))
        assert predict(hs, [10.0] * 4, d_c=2.0, k=1) == pytest.approx(3.5)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            predict(HistorySet(np.zeros((0, 4)), np.zeros(0), ()), [1.0] * 4, d_c=1.0)


class TestGoalMatcher:
    def test_matches_reference_predict(self):
        rng = np.random.default_rng(5)
        days = [np.clip(rng.normal(30.0, 6.0, 288), 0.0, None) for _ in range(2)]
        hs = build_history(days)
        base = np.linalg.norm(hs.windows[:, None, :] - hs.windows[None, :, :], axis=-1)
        iu = np.triu_indices(len(hs), 1)
        d_c = float(np.percentile(base[iu], 2.0))
        matcher = _GoalMatcher(hs.windows, hs.labels, d_c, None)
        for _ in range(15):
            goal = rng.normal(30.0, 6.0, WINDOW)
            value, fell_back = matcher.predict(goal)
            assert (value, fell_back) == _reference_match(hs.windows, hs.labels, d_c, None, goal)[:2]
            assert value == predict(hs, goal, d_c)
            assert isinstance(fell_back, bool)

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 5])
    def test_tie_heavy_histories_match_reference(self, k):
        rng = np.random.default_rng(11)
        hs = tie_heavy_history()
        # eight windows on the axes around the origin, every pair tied;
        # a goal at the origin is denser than each of them
        axes = 0.6 * np.vstack([np.eye(WINDOW), -np.eye(WINDOW)])
        family = family_history(10.0, np.arange(8.0))
        cases = [
            (hs, [hs.windows[i] for i in range(0, len(hs), 29)]
                 + [np.round(rng.normal(30.0, 1.5, WINDOW)) for _ in range(15)]
                 + [np.full(WINDOW, 30.0), np.full(WINDOW, 45.0)]),
            (HistorySet(axes, np.arange(8.0), tuple([None] * 8)),
             [np.zeros(WINDOW), *axes, np.full(WINDOW, 0.3), np.full(WINDOW, 5.0)]),
            (family, [np.full(WINDOW, 11.5), np.full(WINDOW, 10.0), np.full(WINDOW, 10.7)]),
        ]
        seen = {"goal-densest": False, "fallback": False}
        for history, goals in cases:
            matcher = _GoalMatcher(history.windows, history.labels, 1.0, k)
            for goal in goals:
                value, fell_back, path = _reference_match(history.windows, history.labels, 1.0, k, goal)
                assert matcher.predict(goal) == (value, fell_back)
                for name in seen:
                    seen[name] |= bool(path[name])
        assert seen["goal-densest"]
        # one cluster always holds some window besides the goal
        assert seen["fallback"] == (k != 1)

    def test_densest_item_outside_centers_matches_reference(self):
        # at this scale every product rho * delta underflows to 0, so the
        # single center is item 0 while the goal, the sum of all kernel
        # weights, is the densest item: it and its followers take their
        # nearest center
        d_c = 1e-150
        windows = 25.0 * d_c * np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
            dtype=float,
        ) * np.array([1.0, 1.01, 1.02, 1.03, 1.04, 1.05])[:, None]
        labels = np.arange(6.0)
        goal = np.zeros(WINDOW)
        value, fell_back, path = _reference_match(windows, labels, d_c, None, goal)
        assert path["goal-densest"] and path["densest-not-center"]
        assert _GoalMatcher(windows, labels, d_c, None).predict(goal) == (value, fell_back)

    def test_identical_windows(self):
        hs = build_history([np.full(288, 20.0)])
        matcher = _GoalMatcher(hs.windows, hs.labels, 1.0, None)
        for goal in (np.full(WINDOW, 20.0), np.full(WINDOW, 20.5), np.full(WINDOW, 40.0)):
            ref = _reference_match(hs.windows, hs.labels, 1.0, None, goal)[:2]
            assert matcher.predict(goal) == ref
            assert ref[0] == pytest.approx(20.0)


class TestComparePipelines:
    def test_raw_only_run(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        history, target = road[0][1], road[1][1]
        cp = compare_pipelines([history], target, sigma=2.5, include_denoised=False)
        assert cp.denoised is None
        assert cp.sigma == 2.5 and cp.d_c > 0
        assert not cp.boundary_fallback
        r = cp.raw
        assert r.predictions.shape == (282,)
        np.testing.assert_array_equal(r.slices, np.arange(7, 289))
        assert 0.0 < r.rmae < 1.0
        assert r.mape > 0.0 and 0 < r.mape_retained_count <= 282
        assert r.fallback_count >= 0
        truth = target.values[LABEL_OFFSET:]
        assert r.rmae == rmae(truth, r.predictions)

    def test_denoised_goal_only_sees_the_past(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        history, target = road[0][1], road[1][1]
        altered = target.values.copy()
        altered[100:] += 7.0
        target_b = VelocitySeries(target.road_id, target.day, altered, h=target.h)
        kw = dict(sigma=2.5, include_raw=False)
        a = compare_pipelines([history], target, **kw).denoised.predictions
        b = compare_pipelines([history], target_b, **kw).denoised.predictions
        # goals through start 96 read slices 1..100 only
        np.testing.assert_array_equal(a[:97], b[:97])
        assert not np.array_equal(a, b)

    def test_flat_history_day_falls_back_to_unit_dc(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        target = road[1][1]
        flat = VelocitySeries(target.road_id, 0, np.full(288, 30.0), h=target.h)
        cp = compare_pipelines([flat], target, sigma=2.5, include_denoised=False)
        assert cp.d_c == 1.0
        assert cp.flags == (FLAG_DEGENERATE_DC,)
        # 282 identical windows, all labelled by the flat day's value
        np.testing.assert_allclose(cp.raw.predictions, 30.0, rtol=1e-12)

    def test_no_flags_on_ordinary_history(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        cp = compare_pipelines([road[0][1]], road[1][1], sigma=2.5, include_denoised=False)
        assert cp.flags == ()

    def test_all_slow_target_reports_nan_mape(self):
        road = two_regime_corpus(n_roads=1, n_days=4, seed=3)[0]
        days = [noisy for _, noisy in road]
        target = days[-1]
        slow = VelocitySeries(target.road_id, target.day, np.minimum(target.values, 0.9),
                              h=target.h)
        # a capped solver keeps the causal solves short
        solver = SolverConfig(sigma=0.0, epsilon=0.1, max_iters=40)
        cp = compare_pipelines(days[:-1], slow, sigma=2.5, solver=solver)
        assert cp.flags == ("no-moving-traffic",)
        truth = slow.values[LABEL_OFFSET:]
        for report in (cp.raw, cp.denoised):
            assert math.isnan(report.mape) and report.mape_retained_count == 0
            assert report.rmae == rmae(truth, report.predictions)

    def test_closed_road_target_reports_nan_rmae(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        target = road[1][1]
        closed = VelocitySeries(target.road_id, target.day, np.zeros(288), h=target.h)
        cp = compare_pipelines([road[0][1]], closed, sigma=2.5, include_denoised=False)
        assert cp.flags == ("no-moving-traffic",)
        assert math.isnan(cp.raw.rmae) and math.isnan(cp.raw.mape)
        assert cp.raw.mape_retained_count == 0
        assert np.isfinite(cp.raw.predictions).all()
        with pytest.raises(ValueError, match="all-zero truth"):
            rmae(closed.values[LABEL_OFFSET:], cp.raw.predictions)

    def test_stacked_history_matches_lone_solves(self, monkeypatch):
        # days of two slice lengths: each length is its own stack, and the
        # results come back in day order
        road = two_regime_corpus(n_roads=1, n_days=4, seed=3)[0]
        days = [noisy for _, noisy in road]
        history = [days[0], VelocitySeries("r", 2, days[1].values, h=2.0), days[2]]
        solver = SolverConfig(sigma=0.0, epsilon=0.1, max_iters=40)
        grid = (0.0, 1.0, 5.0, 10.0)
        built = []
        real = forecast.build_history

        def spy(days_, *args, **kwargs):
            built.append(list(days_))
            return real(days_, *args, **kwargs)

        monkeypatch.setattr(forecast, "build_history", spy)
        cp = compare_pipelines(history, days[3], solver=solver, sigma_grid=grid,
                               include_raw=False)
        per_day = [estimate_sigma(d.values, sigma_grid=grid, solver=solver, h=d.h)
                   for d in history]
        assert cp.sigma == float(np.mean([est.sigma_best for est in per_day]))
        lone = [denoise_values(d.values, sweep_config(solver, cp.sigma), h=d.h).denoised
                for d in history]
        denoised_days = built[-1]
        assert len(denoised_days) == 3
        for got, want in zip(denoised_days, lone):
            np.testing.assert_array_equal(got, want)

    def test_input_validation(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        target = road[1][1]
        with pytest.raises(ValueError):
            compare_pipelines([], target, sigma=1.0)
        short = VelocitySeries("r", 1, np.ones(100), h=1.0)
        with pytest.raises(ValueError):
            compare_pipelines([road[0][1]], short, sigma=1.0)
