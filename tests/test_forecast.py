import dataclasses
import functools
import importlib
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvroad import forecast
from tvroad.cluster import FLAG_DEGENERATE_DC, delta_neighbors, local_density, select_centers
from tvroad.forecast import (
    BOUNDARY_OFFSET,
    LABEL_OFFSET,
    WINDOW,
    HistorySet,
    _GoalMatcher,
    _weighted_label,
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
from tvroad.solver import SolverConfig, denoise_values
from tvroad.synth import two_regime_corpus

RAMP = np.arange(288.0)
cluster_module = importlib.import_module("tvroad.cluster")


def family_history(level, labels, n=8):
    windows = np.full((n, WINDOW), float(level))
    return HistorySet(windows, np.asarray(labels, dtype=float), tuple((None, i) for i in range(n)))


def _reference_match(windows, labels, d_c, k, goal):
    """Full-matrix goal matcher: the bit-identity oracle for _GoalMatcher.

    Borders the history distance matrix with the goal's row and column,
    runs delta_neighbors over the whole (m+1)-square matrix and walks the
    order of a stable argsort of -rho.  Returns (value, fell_back, path),
    path naming the branches taken.
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
    delta, nn = delta_neighbors(dist, rho)
    order = np.argsort(-rho, kind="stable")
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


def causal_prefix():
    """Strategy for a prefix of 4..30 slices: noisy, in runs of a few
    levels, flat, or all zero."""
    sizes = st.integers(WINDOW, 30)
    return st.one_of(
        sizes.flatmap(lambda n: st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n)),
        st.lists(st.tuples(st.sampled_from([0.0, 7.5, 30.0]), st.integers(1, 6)),
                 min_size=1, max_size=6).map(lambda rs: [v for v, k in rs for _ in range(k)])
                                          .filter(lambda v: len(v) >= WINDOW),
        st.tuples(st.floats(0.0, 60.0), sizes).map(lambda t: [t[0]] * t[1]),
        sizes.map(lambda n: [0.0] * n),
    ).map(lambda v: np.asarray(v, dtype=float))


class TestCausalWindow:
    def test_matches_manual_assembly(self):
        rng = np.random.default_rng(3)
        prefix = rng.normal(30.0, 3.0, 40)
        series = np.concatenate([prefix, [25.3]])
        config = dataclasses.replace(SWEEP_SOLVER, sigma=3.0)
        expected = denoise_values(series, config, h=1.0).denoised[-5:-1]
        out = causal_denoise_window(prefix, 25.3, 3.0, SWEEP_SOLVER)
        np.testing.assert_array_equal(out, expected)
        assert out.shape == (WINDOW,)

    def test_needs_full_window(self):
        with pytest.raises(ValueError):
            causal_denoise_window([1.0, 2.0, 3.0], 4.0, 1.0, SWEEP_SOLVER)
        with pytest.raises(ValueError, match="need at least 4 past slices"):
            causal_denoise_window([RAMP[:9], RAMP[:3]], [4.0, 4.0], [1.0, 1.0], SWEEP_SOLVER)

    def test_needs_one_boundary_and_sigma_per_prefix(self):
        with pytest.raises(ValueError, match="one boundary and one sigma per prefix"):
            causal_denoise_window([RAMP[:9], RAMP[:7]], [4.0], [1.0, 1.0], SWEEP_SOLVER)
        with pytest.raises(ValueError, match="one boundary and one sigma per prefix"):
            causal_denoise_window([RAMP[:9], RAMP[:7]], [4.0, 5.0], [1.0], SWEEP_SOLVER)

    @pytest.mark.parametrize("h", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_bad_h(self, h):
        with pytest.raises(ValueError, match="slice duration must be finite and positive"):
            causal_denoise_window(RAMP[:9] % 5.0, 4.0, 1.0, SWEEP_SOLVER, h=h)
        with pytest.raises(ValueError, match="slice duration must be finite and positive"):
            causal_denoise_window([RAMP[:9] % 5.0] * 2, [4.0] * 2, [1.0] * 2, SWEEP_SOLVER, h=h)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(causal_prefix(), st.one_of(st.none(), st.floats(0.0, 60.0)),
                              st.one_of(st.just(0.0), st.floats(0.01, 30.0), st.just(1e6))),
                    min_size=1, max_size=8),
           st.sampled_from([1.0, 2.5]), st.sampled_from([3, 5000]))
    def test_stack_equals_goals_one_by_one(self, goals, h, max_iters):
        # a boundary of None repeats the prefix's last slice, so a flat
        # prefix stays flat; sigma 1e6 is beyond every sigma_max
        goals = [(p, p[-1] if b is None else b, s) for p, b, s in goals]
        solver = dataclasses.replace(SWEEP_SOLVER, max_iters=max_iters)
        prefixes, boundaries, sigmas = zip(*goals)
        stacked = causal_denoise_window(list(prefixes), np.array(boundaries), np.array(sigmas),
                                        solver, h=h)
        assert stacked.shape == (len(goals), WINDOW)
        for row, (prefix, boundary, sigma) in zip(stacked, goals):
            one = causal_denoise_window(prefix, boundary, sigma, solver, h=h)
            config = dataclasses.replace(solver, sigma=sigma)
            lone = denoise_values(np.append(prefix, boundary), config, h=h).denoised[-5:-1]
            assert row.tobytes() == one.tobytes() == lone.tobytes()

    def test_poisoned_goal_fails_the_stack(self, poison_rows):
        rng = np.random.default_rng(4)
        prefixes = [rng.normal(30.0, 5.0, n) for n in (6, 20, 50)]
        prefixes[1][0] = 77.125
        poison_rows(77.125)
        with pytest.raises(FloatingPointError, match="non-finite iterate"):
            causal_denoise_window(prefixes, [30.0] * 3, [3.0] * 3, SWEEP_SOLVER)


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

    def test_rejects_goal_shape(self):
        hs = family_history(10.0, np.arange(8.0))
        for goal in ([1.0] * 3, np.zeros((2, 3)), np.zeros((1, 2, 4))):
            with pytest.raises(ValueError, match="goal must be"):
                predict(hs, goal, d_c=2.0)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["tie-heavy", "axes", "family"]),
           k=st.sampled_from([None, 1, 2]), data=st.data())
    def test_stack_equals_goals_one_by_one(self, case, k, data):
        history, pool = GOAL_POOLS[case]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6),
                          label="goals")
        goals = np.array([pool[i] for i in picks])
        values = predict(history, goals, 1.0, k)
        assert isinstance(values, np.ndarray) and values.shape == (len(goals),)
        lone = [predict(history, goal, 1.0, k) for goal in goals]
        assert all(type(v) is float for v in lone)
        np.testing.assert_array_equal(values, lone)


def axes_history():
    """Eight windows on the axes around the origin, every pair tied; a
    goal at the origin is denser than each of them."""
    axes = 0.6 * np.vstack([np.eye(WINDOW), -np.eye(WINDOW)])
    return HistorySet(axes, np.arange(8.0), tuple([None] * 8))


def _goal_pools():
    """(history, goals) cases rich in exact distance and density ties."""
    rng = np.random.default_rng(11)
    hs = tie_heavy_history()
    axes = axes_history()
    return {
        "tie-heavy": (hs, [hs.windows[i] for i in range(0, len(hs), 29)]
                      + [np.round(rng.normal(30.0, 1.5, WINDOW)) for _ in range(15)]
                      + [np.full(WINDOW, 30.0), np.full(WINDOW, 45.0)]),
        "axes": (axes, [np.zeros(WINDOW), *axes.windows, np.full(WINDOW, 0.3),
                        np.full(WINDOW, 5.0)]),
        "family": (family_history(10.0, np.arange(8.0)),
                   [np.full(WINDOW, 11.5), np.full(WINDOW, 10.0), np.full(WINDOW, 10.7)]),
        "identical": (build_history([np.full(288, 20.0)]),
                      [np.full(WINDOW, 20.0), np.full(WINDOW, 20.5), np.full(WINDOW, 40.0)]),
    }


GOAL_POOLS = _goal_pools()


@functools.lru_cache(maxsize=None)
def _pool_reference(case, k, index):
    history, goals = GOAL_POOLS[case]
    return _reference_match(history.windows, history.labels, 1.0, k, goals[index])


@functools.lru_cache(maxsize=None)
def _pool_matcher(case, k):
    history = GOAL_POOLS[case][0]
    return _GoalMatcher(history.windows, history.labels, 1.0, k)


class TestGoalMatcher:
    def test_matches_reference_predict(self):
        rng = np.random.default_rng(5)
        days = [np.clip(rng.normal(30.0, 6.0, 288), 0.0, None) for _ in range(2)]
        hs = build_history(days)
        base = np.linalg.norm(hs.windows[:, None, :] - hs.windows[None, :, :], axis=-1)
        iu = np.triu_indices(len(hs), 1)
        d_c = float(np.percentile(base[iu], 2.0))
        matcher = _GoalMatcher(hs.windows, hs.labels, d_c, None)
        goals = rng.normal(30.0, 6.0, (15, WINDOW))
        values, fell_back = matcher.predict(goals)
        assert values.shape == fell_back.shape == (15,) and fell_back.dtype == bool
        for goal, value, flag in zip(goals, values, fell_back):
            assert (value, flag) == _reference_match(hs.windows, hs.labels, d_c, None, goal)[:2]
            assert value == predict(hs, goal, d_c)

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 5])
    def test_tie_heavy_histories_match_reference(self, k):
        seen = {"goal-densest": False, "fallback": False}
        for case in ("tie-heavy", "axes", "family"):
            goals = GOAL_POOLS[case][1]
            values, fell_back = _pool_matcher(case, k).predict(np.array(goals))
            for index in range(len(goals)):
                value, flag, path = _pool_reference(case, k, index)
                assert (values[index], fell_back[index]) == (value, flag)
                for name in seen:
                    seen[name] |= bool(path[name])
        assert seen["goal-densest"]
        # one cluster always holds some window besides the goal
        assert seen["fallback"] == (k != 1)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(sorted(GOAL_POOLS)), k=st.sampled_from([None, 1, 2, 3]),
           per_block=st.sampled_from([1, 2, 3, 1000]), data=st.data())
    def test_stack_matches_reference_in_any_block_layout(self, case, k, per_block, data):
        # goal blocks of 1, 2 or 3 goals (a partial last block, many
        # blocks) or one block for the whole stack; a small block budget
        # also splits the whole-row scans of delta_neighbors
        history, pool = GOAL_POOLS[case]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7),
                          label="goals")
        goals = np.array([pool[i] for i in picks])
        matcher = _pool_matcher(case, k)
        layouts = []
        real_blocks = forecast._row_blocks

        def spy(n, row_bytes):
            layouts.append([len(range(n)[b]) for b in real_blocks(n, row_bytes)])
            return real_blocks(n, row_bytes)

        budget = per_block * 96 * len(history)  # a goal takes 96 bytes per window of a block
        with mock.patch.object(cluster_module, "_BLOCK_BYTES", budget), \
                mock.patch.object(forecast, "_row_blocks", spy):
            values, fell_back = matcher.predict(goals)
        assert layouts == [[min(per_block, len(goals) - lo)
                            for lo in range(0, len(goals), per_block)]]
        for goal, index, value, flag in zip(goals, picks, values, fell_back):
            assert (value, flag) == _pool_reference(case, k, index)[:2]
            assert predict(history, goal, 1.0, k) == value
            assert (value, flag) == tuple(x[0] for x in matcher.predict(goal[None]))

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
        values, flags = _GoalMatcher(windows, labels, d_c, None).predict(goal[None])
        assert (values[0], flags[0]) == (value, fell_back)

    def test_identical_windows(self):
        values, fell_back = _pool_matcher("identical", None).predict(
            np.array(GOAL_POOLS["identical"][1]))
        for index in range(3):
            ref = _pool_reference("identical", None, index)[:2]
            assert (values[index], fell_back[index]) == ref
            assert ref[0] == pytest.approx(20.0)

    def test_pipeline_road_matches_full_matrix_search(self, monkeypatch):
        # road 1 of a pipeline corpus at a seed the benchmark does not use;
        # TV denoising leaves runs of equal slices, so its denoised history
        # holds many equal windows and tied densities
        road = two_regime_corpus(n_roads=6, n_days=8, seed=5, diurnal=True)[0]
        history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
        raw_goals = np.lib.stride_tricks.sliding_window_view(target.values, WINDOW)[:282]
        seen = {}
        real = _GoalMatcher.predict

        def spy(matcher, goals):
            seen["raw" if np.array_equal(goals, raw_goals) else "denoised"] = (matcher, goals)
            return real(matcher, goals)

        monkeypatch.setattr(_GoalMatcher, "predict", spy)
        compare_pipelines(history, target)
        matcher, goals = seen["denoised"]
        m = matcher.columns.shape[1]
        assert len(goals) == 282 and len(np.unique(matcher.columns.T, axis=0)) < 0.65 * m
        full = np.zeros((m + 1, m + 1))
        full[:m, :m] = matcher.peaks.d
        for goal in goals[::10]:
            d_goal = forecast._column_distances(goal[None], matcher.columns)
            w_goal = np.exp(-((d_goal[0] / matcher.d_c) ** 2))
            rho = np.append(matcher.rho_base + w_goal, w_goal.sum())
            full[m, :m] = full[:m, m] = d_goal[0]
            delta, nn = matcher.peaks.delta_neighbors(d_goal, rho[None])
            want_delta, want_nn = delta_neighbors(full, rho)
            np.testing.assert_array_equal(delta[0], want_delta)
            np.testing.assert_array_equal(nn[0], want_nn)
        matcher, goals = seen["raw"]
        values, fell_back = real(matcher, goals[::10])
        for goal, value, flag in zip(goals[::10], values, fell_back):
            assert (value, flag) == _reference_match(matcher.columns.T, matcher.labels,
                                                     matcher.d_c, None, goal)[:2]


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

    @pytest.fixture(scope="class")
    def causal_case(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        history, target = road[0][1], road[1][1]
        run = compare_pipelines([history], target, sigma=2.5, include_raw=False)
        return history, target, run.denoised.predictions

    @settings(max_examples=8, deadline=None)
    @given(cut=st.integers(min_value=WINDOW, max_value=284),
           shift=st.floats(min_value=-20.0, max_value=20.0).filter(lambda x: abs(x) >= 1.0))
    def test_denoised_goals_see_no_slice_past_any_cut(self, causal_case, cut, shift):
        history, target, before = causal_case
        altered = target.values.copy()
        altered[cut:] = np.maximum(altered[cut:] + shift, 0.0)
        target_b = VelocitySeries(target.road_id, target.day, altered, h=target.h)
        after = compare_pipelines([history], target_b, sigma=2.5,
                                  include_raw=False).denoised.predictions
        # the goal at 0-based start s0 reads slices s0 + 1 .. s0 + 4
        np.testing.assert_array_equal(before[:cut - WINDOW + 1], after[:cut - WINDOW + 1])
        assert not np.array_equal(before, after)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 50), k=st.sampled_from([None, 1, 3]))
    def test_runs_are_deterministic_and_variants_independent(self, seed, k):
        # the shared goal stacks couple neither run to run nor variant to
        # variant: a lone raw or denoised run gives that variant's report
        road = two_regime_corpus(n_roads=1, n_days=2, seed=seed)[0]
        history, target = [road[0][1]], road[1][1]
        runs = [compare_pipelines(history, target, sigma=2.5, k=k) for _ in range(2)]
        raw_only = compare_pipelines(history, target, sigma=2.5, k=k, include_denoised=False)
        denoised_only = compare_pipelines(history, target, sigma=2.5, k=k, include_raw=False)
        assert runs[0].flags == runs[1].flags == raw_only.flags == denoised_only.flags
        for a, b in ((runs[0].raw, runs[1].raw), (runs[0].denoised, runs[1].denoised),
                     (runs[0].raw, raw_only.raw), (runs[0].denoised, denoised_only.denoised)):
            np.testing.assert_array_equal(a.predictions, b.predictions)
            np.testing.assert_array_equal(a.slices, b.slices)
            assert (a.fallback_count, a.mape_retained_count) == (b.fallback_count,
                                                                 b.mape_retained_count)
            assert repr((a.rmae, a.mape)) == repr((b.rmae, b.mape))

    def test_flat_history_day_falls_back_to_unit_dc(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        target = road[1][1]
        flat = VelocitySeries(target.road_id, 0, np.full(288, 30.0), h=target.h)
        cp = compare_pipelines([flat], target, sigma=2.5)
        assert cp.d_c == 1.0
        assert cp.flags == (FLAG_DEGENERATE_DC,)
        # 282 identical windows, all labelled by the flat day's value; the
        # denoised day is flat too, and 76 denoised goals fall back
        np.testing.assert_allclose(cp.raw.predictions, 30.0, rtol=1e-12)
        np.testing.assert_allclose(cp.denoised.predictions, 30.0, rtol=1e-12)
        assert cp.denoised.fallback_count == 76

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
        cp = compare_pipelines(days[:-1], slow, sigma=2.5)
        assert cp.flags == ("no-moving-traffic",)
        truth = slow.values[LABEL_OFFSET:]
        for report in (cp.raw, cp.denoised):
            assert math.isnan(report.mape) and report.mape_retained_count == 0
            assert report.rmae == rmae(truth, report.predictions)

    def test_closed_road_target_reports_nan_rmae(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        target = road[1][1]
        closed = VelocitySeries(target.road_id, target.day, np.zeros(288), h=target.h)
        cp = compare_pipelines([road[0][1]], closed, sigma=2.5)
        assert cp.flags == ("no-moving-traffic",)
        for report in (cp.raw, cp.denoised):
            assert math.isnan(report.rmae) and math.isnan(report.mape)
            assert report.mape_retained_count == 0
            assert np.isfinite(report.predictions).all()
            with pytest.raises(ValueError, match="all-zero truth"):
                rmae(closed.values[LABEL_OFFSET:], report.predictions)

    @pytest.fixture(scope="class")
    def short_road(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        return [road[0][1]], road[1][1]

    def test_denoised_matcher_runs_under_the_callers_errstate(self, short_road, monkeypatch):
        # the denoised variant matches on a worker thread, in a copy of the
        # caller's context: a plain thread would see the default "warn"
        seen = []
        real = _GoalMatcher.predict

        def spy(matcher, goals):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return real(matcher, goals)

        monkeypatch.setattr(_GoalMatcher, "predict", spy)
        with np.errstate(divide="raise"):
            compare_pipelines(*short_road, sigma=2.5)
        assert len(seen) == 2 and len({ident for ident, _ in seen}) == 2
        assert threading.get_ident() in {ident for ident, _ in seen}
        assert [mode for _, mode in seen] == ["raise", "raise"]

    @pytest.mark.parametrize("failing, raised", [
        ({"raw"}, "raw"), ({"denoised"}, "denoised"), ({"raw", "denoised"}, "raw")],
        ids=["raw", "denoised", "both"])
    def test_matcher_error_surfaces_after_both_variants_end(self, short_road, monkeypatch,
                                                            failing, raised):
        history, target = short_road
        raw_goals = np.lib.stride_tricks.sliding_window_view(target.values, WINDOW)[:282]
        ended = []
        real = _GoalMatcher.predict

        def predict_or_fail(matcher, goals):
            tag = "raw" if np.array_equal(goals, raw_goals) else "denoised"
            try:
                if tag in failing:
                    raise RuntimeError(f"{tag} matcher failed")
                return real(matcher, goals)
            finally:
                ended.append(tag)

        monkeypatch.setattr(_GoalMatcher, "predict", predict_or_fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{raised} matcher failed$"):
            compare_pipelines(history, target, sigma=2.5)
        assert sorted(ended) == ["denoised", "raw"]
        assert threading.active_count() == threads

    def test_worker_thread_is_joined(self, short_road):
        threads = threading.active_count()
        cp = compare_pipelines(*short_road, sigma=2.5)
        assert cp.raw is not None and cp.denoised is not None
        assert threading.active_count() == threads

    def test_solves_end_on_the_calling_thread_before_any_thread_starts(self, short_road,
                                                                        monkeypatch):
        # a one-stack span tracer must see every wrapped solve alone: the
        # sigma estimates and the history denoise end before a worker starts
        events = []
        for name in ("denoise_values", "estimate_sigma"):
            def spy(*args, _real=getattr(forecast, name), _name=name, **kwargs):
                result = _real(*args, **kwargs)
                events.append((_name, threading.get_ident()))
                return result

            monkeypatch.setattr(forecast, name, spy)
        real_start = threading.Thread.start

        def start(thread):
            events.append(("start", None))
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        compare_pipelines(*short_road)
        names = [name for name, _ in events]
        assert {"denoise_values", "estimate_sigma"} <= set(names)
        assert names.count("start") == 2
        first_start = names.index("start")
        assert "start" not in names[:first_start]
        assert all(name == "start" for name in names[first_start:])
        assert {ident for name, ident in events if name != "start"} == {threading.get_ident()}

    def test_causal_stack_runs_on_a_worker_under_the_callers_errstate(self, short_road,
                                                                       monkeypatch):
        seen = []
        real = forecast.causal_denoise_window

        def spy(*args, **kwargs):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(forecast, "causal_denoise_window", spy)
        with np.errstate(divide="raise"):
            compare_pipelines(*short_road, sigma=2.5)
        assert len(seen) == 1
        ident, mode = seen[0]
        assert ident != threading.get_ident() and mode == "raise"

    def test_causal_error_surfaces_after_the_matrix_builds_end(self, short_road, monkeypatch):
        built = []
        real = forecast._day_pair_distances

        def build(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            finally:
                built.append(threading.get_ident())

        def fail(*args, **kwargs):
            raise RuntimeError("causal stack failed")

        monkeypatch.setattr(forecast, "_day_pair_distances", build)
        monkeypatch.setattr(forecast, "causal_denoise_window", fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^causal stack failed$"):
            compare_pipelines(*short_road, sigma=2.5)
        # the raw and the denoised matrix, both on the calling thread
        assert built == [threading.get_ident()] * 2
        assert threading.active_count() == threads

    def test_matrix_build_error_wins_over_causal_error(self, short_road, monkeypatch):
        failed = []

        def fail(what):
            def raise_it(*args, **kwargs):
                failed.append(what)
                raise RuntimeError(f"{what} failed")

            return raise_it

        monkeypatch.setattr(forecast, "_day_pair_distances", fail("matrix build"))
        monkeypatch.setattr(forecast, "causal_denoise_window", fail("causal stack"))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^matrix build failed$"):
            compare_pipelines(*short_road, sigma=2.5)
        assert sorted(failed) == ["causal stack", "matrix build"]
        assert threading.active_count() == threads

    def test_run_with_no_variant_is_rejected_before_any_solve(self, short_road, monkeypatch):
        calls = []
        for name in ("denoise_values", "estimate_sigma", "causal_denoise_window"):
            def spy(*args, _real=getattr(forecast, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(forecast, name, spy)
        with pytest.raises(ValueError, match="include_raw and include_denoised"):
            compare_pipelines(*short_road, include_raw=False, include_denoised=False)
        assert calls == []

    def test_history_days_denoised_at_their_own_slice_length(self, monkeypatch):
        # days of two slice lengths: each day is solved at its own h, and
        # the results come back in day order
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
        config = dataclasses.replace(solver, sigma=cp.sigma)
        lone = [denoise_values(d.values, config, h=d.h).denoised for d in history]
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
