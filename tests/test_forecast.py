import dataclasses
import functools
import importlib
import itertools
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvroad import forecast
from tvroad.cluster import (
    FLAG_DEGENERATE_DC,
    auto_select_k,
    delta_neighbors,
    local_density,
    pairwise_distances,
    select_centers,
)
from tvroad.forecast import (
    BOUNDARY_OFFSET,
    LABEL_OFFSET,
    WINDOW,
    HistorySet,
    _GoalMatcher,
    _weighted_label,
    _weighted_labels,
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
    return HistorySet(windows, np.asarray(labels, dtype=float))


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

    def test_boundary_offset_keeps_window_set(self):
        near = build_history([RAMP], label_offset=BOUNDARY_OFFSET)
        far = build_history([RAMP])
        np.testing.assert_array_equal(near.windows, far.windows)
        assert near.labels[0] == 4.0

    def test_days_concatenate(self):
        assert len(build_history([RAMP] * 7)) == 7 * 282

    @pytest.mark.parametrize("label_offset", [BOUNDARY_OFFSET, LABEL_OFFSET])
    def test_days_window_in_order(self, label_offset):
        days = [VelocitySeries("r", 5, 1000.0 + RAMP, h=1.0), 2000.0 + RAMP,
                VelocitySeries("r", 2, 3000.0 + RAMP, h=1.0)]
        hs = build_history(days, label_offset=label_offset)
        for index, base in enumerate((1000.0, 2000.0, 3000.0)):
            for start in (1, 150, 282):
                row = index * 282 + start - 1
                np.testing.assert_array_equal(hs.windows[row], base + start - 1 + np.arange(4.0))
                assert hs.labels[row] == base + start - 1 + label_offset

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_history([RAMP[:100]])
        with pytest.raises(ValueError):
            build_history([RAMP], label_offset=3)
        with pytest.raises(ValueError):
            build_history([RAMP], label_offset=7)

    def test_history_set_validation(self):
        with pytest.raises(ValueError):
            HistorySet(np.zeros((5, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            HistorySet(np.zeros((5, 4)), np.zeros(4))


class TestBoundaryModel:
    def test_recovers_exact_linear_rule(self):
        rng = np.random.default_rng(0)
        windows = rng.normal(30.0, 5.0, (50, WINDOW))
        true_coef = np.array([2.0, 0.5, 0.0, -0.25, 1.0])
        labels = np.hstack([np.ones((50, 1)), windows]) @ true_coef
        model = fit_boundary(HistorySet(windows, labels))
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

    @pytest.mark.parametrize("h", [1.0, 2.5])
    @pytest.mark.parametrize("max_iters", [5000, 3])
    def test_goals_at_sigma_max_equal_goals_one_by_one(self, h, max_iters):
        # sigma^2 within a few ulps of sigma_max^2 of the prefix with its
        # boundary, and sigma exactly sigma_max
        rng = np.random.default_rng(23)
        goals = []
        for n in (4, 17, 60, 140, 284):
            series = np.append(rng.normal(30.0, 5.0, n), 28.0)
            sigma = float(np.sqrt(0.5 * h * np.sum((series - series.mean()) ** 2)))
            for _ in range(6):
                sigma = float(np.nextafter(sigma, 0.0))
            for _ in range(13):
                goals.append((series[:-1], series[-1], sigma))
                sigma = float(np.nextafter(sigma, np.inf))
        solver = dataclasses.replace(SWEEP_SOLVER, max_iters=max_iters)
        prefixes, boundaries, sigmas = zip(*goals)
        stacked = causal_denoise_window(list(prefixes), np.array(boundaries), np.array(sigmas),
                                        solver, h=h)
        for row, (prefix, boundary, sigma) in zip(stacked, goals):
            config = dataclasses.replace(solver, sigma=sigma)
            lone = denoise_values(np.append(prefix, boundary), config, h=h).denoised[-5:-1]
            assert row.tobytes() == lone.tobytes()

    def test_huge_goal_fails_the_stack_as_alone(self):
        # deviations near 1e199 square past the float range
        rng = np.random.default_rng(6)
        prefixes = [rng.normal(30.0, 5.0, n) for n in (6, 20, 50)]
        prefixes[1] = 1e200 * rng.normal(1.0, 0.1, 20)
        with pytest.raises(FloatingPointError, match="non-finite fidelity") as alone:
            causal_denoise_window(prefixes[1], 30.0, 3.0, SWEEP_SOLVER)
        with pytest.raises(FloatingPointError) as stacked:
            causal_denoise_window(prefixes, [30.0] * 3, [3.0] * 3, SWEEP_SOLVER)
        assert str(stacked.value) == str(alone.value)
        # at sigma 0 it is returned as it is, and the other goals are solved
        sigmas = [3.0, 0.0, 3.0]
        stacked = causal_denoise_window(prefixes, [30.0] * 3, sigmas, SWEEP_SOLVER)
        for row, prefix, sigma in zip(stacked, prefixes, sigmas):
            one = causal_denoise_window(prefix, 30.0, sigma, SWEEP_SOLVER)
            assert row.tobytes() == one.tobytes()
        assert (stacked[1] == prefixes[1][-4:]).all()

    def test_poisoned_goal_fails_the_stack(self, poison_rows):
        rng = np.random.default_rng(4)
        prefixes = [rng.normal(30.0, 5.0, n) for n in (6, 20, 50)]
        prefixes[1][0] = 77.125
        poison_rows(77.125)
        with pytest.raises(FloatingPointError, match="non-finite iterate") as alone:
            causal_denoise_window(prefixes[1], 30.0, 3.0, SWEEP_SOLVER)
        with pytest.raises(FloatingPointError) as stacked:
            causal_denoise_window(prefixes, [30.0] * 3, [3.0] * 3, SWEEP_SOLVER)
        assert str(stacked.value) == str(alone.value)

    def test_walked_goal_fails_before_a_later_bad_sigma(self, poison_rows):
        # the poisoned row's error, met only after the walk, is raised before
        # the later row's bad sigma, as the two solves alone fail in that order
        prefixes, boundaries = [[77.125, 3.0, 9.0, 1.0], [1.0, 2.0, 5.0, 3.0]], [2.0, 2.0]
        poison_rows(77.125)
        with pytest.raises(FloatingPointError, match="non-finite iterate") as alone:
            causal_denoise_window(prefixes[0], 2.0, 1.0, SWEEP_SOLVER)
        with pytest.raises(FloatingPointError) as stacked:
            causal_denoise_window(prefixes, boundaries, [1.0, -1.0], SWEEP_SOLVER)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValueError, match="sigma must be finite"):
            causal_denoise_window(prefixes[::-1], boundaries, [-1.0, 1.0], SWEEP_SOLVER)


def pipeline_causal_stack():
    """The arguments of the causal stack of the pipeline workload's road 1
    at seed 7: its 282 prefixes of 4 to 285 slices, their boundaries and
    sigma 2.5 scaled by the observed fraction, as compare_pipelines has
    them."""
    road = two_regime_corpus(n_roads=6, n_days=8, seed=7, diurnal=True)[0]
    history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
    model = fit_boundary(build_history(history, label_offset=BOUNDARY_OFFSET))
    seen = np.arange(WINDOW, WINDOW + 282)
    tv = target.values
    goals = np.lib.stride_tricks.sliding_window_view(tv, WINDOW)[:282]
    return ([tv[:n] for n in seen], [model.predict_next(window) for window in goals],
            2.5 * np.sqrt((seen + 1) / 288), SWEEP_SOLVER)


class TestCausalStackBlocks:
    """The pipeline's causal stack walks its prefixes in row blocks whose
    padded state stays within the solver's byte budget."""

    def test_walks_several_blocks_within_the_budget(self, monkeypatch):
        solver_module = importlib.import_module("tvroad.solver")
        calls, walk_stack = [], solver_module._walk_stack

        def spy(u, heads, budgets, max_iters):
            calls.append((heads.size - 1) * (np.diff(heads).max() + 1)
                         * solver_module._STACK_ENTRY_BYTES)
            return walk_stack(u, heads, budgets, max_iters)

        args = pipeline_causal_stack()
        want = causal_denoise_window(*args)
        monkeypatch.setattr(solver_module, "_walk_stack", spy)
        got = causal_denoise_window(*args)
        assert len(calls) > 1 and max(calls) <= solver_module._STACK_BYTES
        assert got.tobytes() == want.tobytes()

    def test_peaks_below_four_and_a_half_megabytes(self):
        # one walk of all 282 prefixes held a (282, 287) padded state and
        # peaked at 9.8 MB
        args = pipeline_causal_stack()
        tracemalloc.start()
        try:
            causal_denoise_window(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6


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
            predict(HistorySet(np.zeros((0, 4)), np.zeros(0)), [1.0] * 4, d_c=1.0)

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
    return HistorySet(axes, np.arange(8.0))


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
        real_block = _GoalMatcher.predict_block
        real = _GoalMatcher.predict

        def spy(matcher, goals, *args):
            seen["raw" if np.array_equal(goals, raw_goals) else "denoised"] = (matcher, goals)
            return real_block(matcher, goals, *args)

        monkeypatch.setattr(_GoalMatcher, "predict_block", spy)
        compare_pipelines(history, target)
        monkeypatch.undo()
        matcher, goals = seen["denoised"]
        m = matcher.columns.shape[1]
        assert len(goals) == 282 and len(np.unique(matcher.columns.T, axis=0)) < 0.65 * m
        full = np.zeros((m + 1, m + 1))
        full[:m, :m] = pairwise_distances(matcher.columns.T).d
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


    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(1, 40), m=st.integers(1, 6000), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["kernel", "some-zero", "all-zero", "subnormal"]),
                          min_size=40, max_size=40))
    def test_single_center_rows_equal_weighted_label(self, g, m, seed, kinds):
        # a goal with one center averages over every window, all its rows
        # at once: each row equals that goal's own weighted average
        rng = np.random.default_rng(seed)
        labels = rng.uniform(0.0, 80.0, m)
        weights = np.exp(-(rng.exponential(2.0, (g, m)) ** 2))
        for row, kind in zip(weights, kinds):
            if kind == "some-zero":
                row[rng.random(m) < 0.5] = 0.0
            elif kind in ("all-zero", "subnormal"):
                row[:] = 0.0
                if kind == "subnormal":
                    row[rng.integers(0, m, 3)] = 5e-324
        got = _weighted_labels(weights, labels)
        want = np.array([_weighted_label(row, labels) for row in weights])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        for value, row in zip(got, weights):
            if not row.any():
                assert value == labels.mean()

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           offsets=st.lists(st.sampled_from([0.0, 0.5, 3.0, 13.642, 40.0]), min_size=1,
                            max_size=12))
    def test_forced_single_center_takes_every_window(self, m, seed, offsets):
        # windows near the origin and d_c = 1: a goal at 13.642 on every
        # slice lies some 27.28 away, where the kernel weights turn
        # subnormal, and one at 40 weighs every window 0
        rng = np.random.default_rng(seed)
        windows = rng.normal(0.0, 0.3, (m, WINDOW))
        labels = rng.uniform(0.0, 80.0, m)
        goals = np.array(offsets)[:, None] + rng.normal(0.0, 0.3, (len(offsets), WINDOW))
        values, fell_back = _GoalMatcher(windows, labels, 1.0, 1).predict(goals)
        assert not fell_back.any()
        w_goal = np.exp(-(forecast._column_distances(goals, windows.T) ** 2))
        for goal, row, value in zip(goals, w_goal, values):
            assert value == _weighted_label(row, labels)
            assert (value, False) == _reference_match(windows, labels, 1.0, 1, goal)[:2]

    def test_single_center_goals_pick_no_centers_and_follow_no_neighbors(self, monkeypatch):
        # road 1 of a pipeline corpus at a seed the benchmark does not use:
        # under auto-k every raw goal has one center, so each takes every
        # window and the raw matcher runs no center pick and no label walk
        road = two_regime_corpus(n_roads=6, n_days=8, seed=4, diurnal=True)[0]
        history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
        raw_goals = np.lib.stride_tricks.sliding_window_view(target.values, WINDOW)[:282]
        seen = {}
        real_block = _GoalMatcher.predict_block
        real = _GoalMatcher.predict

        def spy(matcher, goals, *args):
            if np.array_equal(goals, raw_goals):
                seen["raw"] = matcher
            return real_block(matcher, goals, *args)

        monkeypatch.setattr(_GoalMatcher, "predict_block", spy)
        cp = compare_pipelines(history, target)
        monkeypatch.undo()
        matcher = seen["raw"]
        ks, w_goal = _goal_ks(matcher, raw_goals)
        assert (ks == 1).all()
        calls = []

        def counted(name):
            wrapped = getattr(forecast, name)

            def call(*args):
                calls.append(name)
                return wrapped(*args)
            return call

        for name in ("select_centers", "follow_neighbors"):
            monkeypatch.setattr(forecast, name, counted(name))
        values, fell_back = real(matcher, raw_goals)
        assert calls == [] and not fell_back.any()
        np.testing.assert_array_equal(values, cp.raw.predictions)
        np.testing.assert_array_equal(values, [_weighted_label(w, matcher.labels) for w in w_goal])
        for goal, value in zip(raw_goals[::94], values[::94]):
            assert (value, False) == _reference_match(matcher.columns.T, matcher.labels,
                                                      matcher.d_c, None, goal)[:2]

    def test_fixed_k_of_one_builds_no_history_peaks(self, monkeypatch):
        # predict() reads no neighbours at a fixed k of 1, so the build
        # runs neither the history-only nearest-denser pass nor the peaks
        rng = np.random.default_rng(21)
        windows = rng.normal(30.0, 2.0, (300, WINDOW))
        windows[:40] = np.round(windows[:40])  # exact ties
        labels = rng.uniform(0.0, 80.0, 300)
        goals = np.vstack([windows[:5], rng.normal(30.0, 2.0, (6, WINDOW)), np.full((1, 4), 90.0)])
        calls = []

        def refused(name):
            return lambda *args: calls.append(name)

        monkeypatch.setattr(forecast, "delta_neighbors", refused("delta_neighbors"))
        monkeypatch.setattr(forecast, "HistoryPeaks", refused("HistoryPeaks"))
        matcher = _GoalMatcher(windows, labels, 1.5, 1)
        values, fell_back = matcher.predict(goals)
        assert calls == [] and matcher.peaks is None and not fell_back.any()
        monkeypatch.undo()
        for goal, value in zip(goals, values):
            assert np.float64(value).tobytes() == np.float64(
                _reference_match(windows, labels, 1.5, 1, goal)[0]).tobytes()

    @pytest.mark.parametrize("case", ["axes", "family", "identical"])
    def test_block_mixing_one_and_many_centers_matches_reference(self, case):
        goals = np.array(GOAL_POOLS[case][1])
        matcher = _pool_matcher(case, None)
        m = matcher.columns.shape[1]
        assert len(list(forecast._row_blocks(len(goals), 96 * m))) == 1
        ks = _goal_ks(matcher, goals)[0]
        assert (ks == 1).any() and (ks > 1).any()
        values, fell_back = matcher.predict(goals)
        assert not fell_back[ks == 1].any()
        for index in range(len(goals)):
            assert (values[index], fell_back[index]) == _pool_reference(case, None, index)[:2]

    def test_k_outside_one_to_m_plus_one_rejected(self):
        hs = family_history(10.0, np.arange(8.0))
        for goal in ([10.0] * WINDOW, np.full((3, WINDOW), 10.0)):
            for k in (0, len(hs) + 2):
                with pytest.raises(ValueError, match=r"k must lie in 1\.\.9"):
                    predict(hs, goal, d_c=2.0, k=k)
        # every item a center: the goal, the densest, is alone in its cluster
        assert predict(hs, [10.0] * WINDOW, d_c=2.0, k=len(hs) + 1) == pytest.approx(3.5)


def _goal_ks(matcher, goals):
    """(auto-k of each goal, its kernel weights), from the densities and
    separations a matcher's predict() uses."""
    d_goal = forecast._column_distances(goals, matcher.columns)
    w_goal = np.exp(-((d_goal / matcher.d_c) ** 2))
    rho = np.column_stack([matcher.rho_base + w_goal, w_goal.sum(axis=1)])
    delta = matcher.peaks.delta_neighbors(d_goal, rho)[0]
    return auto_select_k(rho * delta)[0], w_goal


def _bounded(call, timeout=60):
    """(what call() raised, the ident of the thread it ran on): call runs
    on a thread of its own, so that a lane left waiting fails the test
    instead of hanging it."""
    outcome = {}

    def run():
        outcome["ident"] = threading.get_ident()
        try:
            call()
        except Exception as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "a lane is still waiting"
    return outcome.get("error"), outcome["ident"]


def _drain_layout(layout: str):
    """(a _Drain subclass, the list of what it hands out): every task to
    the calling thread ("caller"), every task to the worker ("worker"),
    each stage's tasks last first ("reversed"), or the schedule itself
    ("shared").  The list holds (stage, the task's last argument, taken on
    the calling thread, the one that made the drain)."""
    taken = []

    class Drain(forecast._Drain):
        def __init__(self):
            super().__init__()
            self.caller = threading.get_ident()

        def add(self, name, tasks, *after):
            super().add(name, tasks[::-1] if layout == "reversed" else tasks, *after)

        def take(self):
            on_caller = threading.get_ident() == self.caller
            if layout == "caller" and not on_caller or layout == "worker" and on_caller:
                return None
            with self._cond:  # so that taken keeps the order of the takes
                task = super().take()
                if task is not None:
                    stage, run = task
                    args = getattr(run, "args", ())
                    taken.append((stage, args[-1] if args else None, on_caller))
            return task

    return Drain, taken


class TestPredictionClaim:
    """The paper's claim that denoising improves prediction, at seeds held
    out from those the sigma rule was tuned on: road 2 of each corpus,
    days 1-7 as history and day 8 as the target, library defaults."""

    def test_denoised_mean_rmae_below_raw_at_held_out_seeds(self):
        raw, denoised = [], []
        for seed in range(20, 28):
            days = [noisy for _, noisy in two_regime_corpus(6, 8, seed, diurnal=True)[1]]
            cp = compare_pipelines(days[:7], days[7])
            raw.append(cp.raw.rmae)
            denoised.append(cp.denoised.rmae)
        assert np.mean(denoised) < np.mean(raw)


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
        kw = dict(sigma=2.5)
        a = compare_pipelines([history], target, **kw).denoised.predictions
        b = compare_pipelines([history], target_b, **kw).denoised.predictions
        # goals through start 96 read slices 1..100 only
        np.testing.assert_array_equal(a[:97], b[:97])
        assert not np.array_equal(a, b)

    @pytest.fixture(scope="class")
    def causal_case(self):
        road = two_regime_corpus(n_roads=1, n_days=2, seed=3)[0]
        history, target = road[0][1], road[1][1]
        run = compare_pipelines([history], target, sigma=2.5)
        return history, target, run.denoised.predictions

    @settings(max_examples=8, deadline=None)
    @given(cut=st.integers(min_value=WINDOW, max_value=284),
           shift=st.floats(min_value=-20.0, max_value=20.0).filter(lambda x: abs(x) >= 1.0))
    def test_denoised_goals_see_no_slice_past_any_cut(self, causal_case, cut, shift):
        history, target, before = causal_case
        altered = target.values.copy()
        altered[cut:] = np.maximum(altered[cut:] + shift, 0.0)
        target_b = VelocitySeries(target.road_id, target.day, altered, h=target.h)
        after = compare_pipelines([history], target_b, sigma=2.5).denoised.predictions
        # the goal at 0-based start s0 reads slices s0 + 1 .. s0 + 4
        np.testing.assert_array_equal(before[:cut - WINDOW + 1], after[:cut - WINDOW + 1])
        assert not np.array_equal(before, after)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 50), k=st.sampled_from([None, 1, 3]))
    def test_runs_are_deterministic_and_variants_independent(self, seed, k):
        # the shared goal stacks couple neither run to run nor variant to
        # variant: a run without the denoised variant gives the raw report
        road = two_regime_corpus(n_roads=1, n_days=2, seed=seed)[0]
        history, target = [road[0][1]], road[1][1]
        runs = [compare_pipelines(history, target, sigma=2.5, k=k) for _ in range(2)]
        raw_only = compare_pipelines(history, target, sigma=2.5, k=k, include_denoised=False)
        assert runs[0].flags == runs[1].flags == raw_only.flags
        for a, b in ((runs[0].raw, runs[1].raw), (runs[0].denoised, runs[1].denoised),
                     (runs[0].raw, raw_only.raw)):
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
        # every task, the matcher builds and the goal blocks among them,
        # runs in a copy of the caller's context on either thread (a plain
        # thread would see the default "warn"), with or without the
        # denoised variant; with every task on the worker, every matcher is
        # built there
        builds, blocks = [], []
        real_init, real_block = _GoalMatcher.__init__, _GoalMatcher.predict_block

        def init(matcher, *args, **kwargs):
            builds.append((threading.get_ident(), np.geterr()["divide"]))
            return real_init(matcher, *args, **kwargs)

        def block(matcher, *args):
            blocks.append(np.geterr()["divide"])
            return real_block(matcher, *args)

        monkeypatch.setattr(_GoalMatcher, "__init__", init)
        monkeypatch.setattr(_GoalMatcher, "predict_block", block)
        for include_denoised, layout in itertools.product((True, False), ("shared", "worker")):
            builds.clear()
            blocks.clear()
            monkeypatch.setattr(forecast, "_Drain", _drain_layout(layout)[0])

            def call():
                with np.errstate(divide="raise"):
                    compare_pipelines(*short_road, sigma=2.5, include_denoised=include_denoised)

            error, caller = _bounded(call)
            assert error is None
            variants = 2 if include_denoised else 1
            assert [mode for _, mode in builds] == ["raise"] * variants
            if layout == "worker":
                assert not any(ident == caller for ident, _ in builds)
            assert blocks == ["raise"] * variants * len(list(forecast._goal_blocks(282, 282)))

    @pytest.mark.parametrize("failing, raised", [
        ({"raw"}, "raw"), ({"denoised"}, "denoised"), ({"raw", "denoised"}, "raw")],
        ids=["raw", "denoised", "both"])
    def test_matcher_error_surfaces_after_both_variants_end(self, short_road, monkeypatch,
                                                            failing, raised):
        # a failing goal block stops both lanes: its error is raised once
        # every block a lane had started has ended and the worker is joined
        history, target = short_road
        raw_goals = np.lib.stride_tricks.sliding_window_view(target.values, WINDOW)[:282]
        started, ended = [], []
        real = _GoalMatcher.predict_block

        def block_or_fail(matcher, goals, block, *args):
            tag = "raw" if np.array_equal(goals, raw_goals) else "denoised"
            started.append(tag)
            try:
                if tag in failing:
                    raise RuntimeError(f"{tag} matcher failed")
                return real(matcher, goals, block, *args)
            finally:
                ended.append(tag)

        monkeypatch.setattr(_GoalMatcher, "predict_block", block_or_fail)
        threads = threading.active_count()
        error, _ = _bounded(lambda: compare_pipelines(history, target, sigma=2.5))
        assert isinstance(error, RuntimeError) and str(error) == f"{raised} matcher failed"
        assert sorted(started) == sorted(ended) and raised in ended
        assert threading.active_count() == threads

    @pytest.mark.parametrize("include_denoised", [True, False])
    def test_worker_thread_is_joined(self, short_road, monkeypatch, include_denoised):
        # a run with or without the denoised variant starts one worker and
        # joins it before it returns
        started = []  # (the starting thread's ident, the thread started)
        real_start = threading.Thread.start

        def start(thread):
            started.append((threading.get_ident(), thread))
            return real_start(thread)

        got = {}
        threads = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", start)
        error, caller = _bounded(lambda: got.update(cp=compare_pipelines(
            *short_road, sigma=2.5, include_denoised=include_denoised)))
        assert error is None
        assert got["cp"].raw is not None and (got["cp"].denoised is not None) == include_denoised
        workers = [thread for ident, thread in started if ident == caller]
        assert len(workers) == 1 and not workers[0].is_alive()
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
        assert names.count("start") == 1
        first_start = names.index("start")
        assert "start" not in names[:first_start]
        assert all(name == "start" for name in names[first_start:])
        assert {ident for name, ident in events if name != "start"} == {threading.get_ident()}

    def test_causal_stack_runs_on_a_worker_under_the_callers_errstate(self, short_road,
                                                                       monkeypatch):
        # the causal stack is one task of the shared list, taken by either
        # thread; with every task on the worker it runs there
        seen = []
        real = forecast.causal_denoise_window

        def spy(*args, **kwargs):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(forecast, "causal_denoise_window", spy)
        for layout in ("shared", "worker"):
            seen.clear()
            monkeypatch.setattr(forecast, "_Drain", _drain_layout(layout)[0])
            with np.errstate(divide="raise"):
                compare_pipelines(*short_road, sigma=2.5)
            assert len(seen) == 1
            ident, mode = seen[0]
            assert mode == "raise" and (layout == "shared" or ident != threading.get_ident())

    def test_causal_error_surfaces_after_the_matrix_builds_end(self, short_road, monkeypatch):
        # the two halves of the raw matrix come before the causal stack in
        # the task list, so a causal error is raised once both have ended,
        # and the denoised matrix, which waits for the raw passes, is never
        # built
        raw_days = np.array([d.values for d in short_road[0]])
        built = []
        real = forecast._day_pair_distances

        def build(days, *args, **kwargs):
            try:
                return real(days, *args, **kwargs)
            finally:
                built.append(np.array_equal(days, raw_days))

        def fail(*args, **kwargs):
            raise RuntimeError("causal stack failed")

        monkeypatch.setattr(forecast, "_day_pair_distances", build)
        monkeypatch.setattr(forecast, "causal_denoise_window", fail)
        threads = threading.active_count()
        error, _ = _bounded(lambda: compare_pipelines(*short_road, sigma=2.5))
        assert isinstance(error, RuntimeError) and str(error) == "causal stack failed"
        assert built == [True, True]
        assert threading.active_count() == threads

    def test_matrix_build_error_wins_over_causal_error(self, short_road, monkeypatch):
        # both threads fail in their half of the raw matrix, the first tasks
        # of the list, so the causal stack never starts; of the two errors
        # the calling thread's is raised
        caller = threading.get_ident()
        both = threading.Barrier(2, timeout=30)
        failed = []

        def fill_fails(*args, **kwargs):
            on_caller = threading.get_ident() == caller
            failed.append("matrix build")
            both.wait()  # each thread holds one half when it fails
            raise RuntimeError(f"matrix build failed on the {'calling' if on_caller else 'worker'}"
                               " thread")

        def causal_fails(*args, **kwargs):
            failed.append("causal stack")
            raise RuntimeError("causal stack failed")

        monkeypatch.setattr(forecast, "_day_pair_distances", fill_fails)
        monkeypatch.setattr(forecast, "causal_denoise_window", causal_fails)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^matrix build failed on the calling thread$"):
            compare_pipelines(*short_road, sigma=2.5)
        assert failed == ["matrix build"] * 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("layout, include_denoised", [
        (layout, include_denoised) for include_denoised in (True, False)
        for layout in ("caller", "worker", "reversed")],
        ids=[f"{layout}{suffix}" for suffix in ("", "-raw-only")
             for layout in ("caller", "worker", "reversed")])
    def test_drained_blocks_equal_each_variants_predict(self, short_road, monkeypatch, layout,
                                                        include_denoised, k):
        # the goal blocks land where they belong however the threads share
        # the task list, with or without the denoised variant: every task on
        # the calling thread, every task on the worker, or each stage's tasks
        # taken last first
        tags = ("raw", "denoised") if include_denoised else ("raw",)
        Drain, taken = _drain_layout(layout)
        seen = {}
        real = _GoalMatcher.predict_block

        def spy(matcher, goals, *args):
            seen[id(matcher)] = (matcher, goals)
            return real(matcher, goals, *args)

        monkeypatch.setattr(forecast, "_Drain", Drain)
        monkeypatch.setattr(_GoalMatcher, "predict_block", spy)
        # goal blocks of 7 goals, 41 blocks per variant
        monkeypatch.setattr(cluster_module, "_BLOCK_BYTES", 7 * 96 * 282)
        got = {}
        error, _ = _bounded(lambda: got.update(cp=compare_pipelines(
            *short_road, sigma=2.5, k=k, include_denoised=include_denoised)))
        monkeypatch.undo()
        assert error is None
        cp = got["cp"]
        starts = list(range(0, 282, 7))
        for tag in tags:
            blocks = [block.start for stage, block, _ in taken if stage == f"{tag} blocks"]
            assert blocks == (starts[::-1] if layout == "reversed" else starts)
        if layout != "reversed":
            assert {on_caller for *_, on_caller in taken} == {layout == "caller"}
        raw_goals = np.lib.stride_tricks.sliding_window_view(short_road[1].values, WINDOW)[:282]
        assert len(seen) == len(tags)
        for matcher, goals in seen.values():
            report = cp.raw if np.array_equal(goals, raw_goals) else cp.denoised
            values, fell_back = matcher.predict(goals)
            np.testing.assert_array_equal(values.view(np.int64),
                                          report.predictions.view(np.int64))
            assert int(fell_back.sum()) == report.fallback_count
        if include_denoised:
            assert not np.array_equal(cp.raw.predictions, cp.denoised.predictions)
        else:
            assert cp.denoised is None

    @pytest.mark.parametrize("stage", [
        "raw matrix", "d_c", "causal stack", "denoised matrix", "raw matcher build",
        "denoised matcher build", "first raw block", "last denoised block", "raw density",
        "denoised separation"])
    def test_failing_stage_raises_its_own_error_and_releases_the_other_lane(
            self, short_road, monkeypatch, stage):
        history, target = short_road
        raw_days = np.array([d.values for d in history])
        raw_windows = build_history(history).windows

        def fail_when(real, failing):
            def call(*args, **kwargs):
                if failing(*args):
                    raise RuntimeError(f"{stage} failed")
                return real(*args, **kwargs)
            return call

        def is_raw_days(days, *_):
            return np.array_equal(days, raw_days) == (stage == "raw matrix")

        def is_raw_build(matcher, windows, *_):
            return np.array_equal(windows, raw_windows) == (stage == "raw matcher build")

        def is_block(matcher, goals, block, *_):
            raw = np.array_equal(goals[0], target.values[:WINDOW])
            if stage == "first raw block":
                return raw and block.start == 0
            return not raw and block.stop >= 282

        calls = {"local_density": 0, "delta_neighbors": 0}
        lock = threading.Lock()

        def nth_call(name, first):
            # calls 0 and 1 are the raw pass's halves, 2 and 3 the denoised
            # pass's, which waits for the raw one to end
            def failing(*_):
                with lock:
                    calls[name] += 1
                    return (calls[name] <= 2) == first
            return failing

        patches = {
            "raw density": (forecast, "local_density", nth_call("local_density", True)),
            "denoised separation": (forecast, "delta_neighbors", nth_call("delta_neighbors", False)),
            "raw matrix": (forecast, "_day_pair_distances", is_raw_days),
            "denoised matrix": (forecast, "_day_pair_distances", is_raw_days),
            "d_c": (forecast, "_percentile_cutoff", lambda *_: True),
            "causal stack": (forecast, "causal_denoise_window", lambda *_: True),
            "raw matcher build": (_GoalMatcher, "__init__", is_raw_build),
            "denoised matcher build": (_GoalMatcher, "__init__", is_raw_build),
            "first raw block": (_GoalMatcher, "predict_block", is_block),
            "last denoised block": (_GoalMatcher, "predict_block", is_block),
        }
        owner, name, failing = patches[stage]
        monkeypatch.setattr(owner, name, fail_when(getattr(owner, name), failing))
        threads = threading.active_count()
        error, _ = _bounded(lambda: compare_pipelines(history, target, sigma=2.5))
        assert isinstance(error, RuntimeError) and str(error) == f"{stage} failed"
        assert threading.active_count() == threads

    def test_concurrent_calls_under_fast_switching_equal_a_serial_run(self, short_road,
                                                                      monkeypatch):
        # three calls at once, six lanes on fewer cores, switching threads
        # every microsecond over blocks of 3 goals: a block taken twice or
        # never, or written into another call's arrays, changes a result
        want = compare_pipelines(*short_road, sigma=2.5)
        monkeypatch.setattr(cluster_module, "_BLOCK_BYTES", 3 * 96 * 282)
        results = [None] * 3

        def call(i):
            results[i] = compare_pipelines(*short_road, sigma=2.5)

        callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got in results:
            for a, b in ((got.raw, want.raw), (got.denoised, want.denoised)):
                np.testing.assert_array_equal(a.predictions.view(np.int64),
                                              b.predictions.view(np.int64))
                assert a.fallback_count == b.fallback_count

    def test_pipeline_road_peaks_below_one_and_a_half_distance_matrices(self, monkeypatch):
        # road 1 of the pipeline workload's corpus: 7 history days, 1974
        # windows.  A call fills one (1974, 1974) float64 buffer with the
        # raw and then the denoised distances; all else it holds at once
        # stays below half that buffer, and the matchers it builds keep no
        # (m, m) array
        road = two_regime_corpus(n_roads=6, n_days=8, seed=7, diurnal=True)[0]
        history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
        matrix_bytes = 1974 * 1974 * 8
        matchers = {}
        real = _GoalMatcher.predict_block

        def spy(matcher, *args):
            matchers[id(matcher)] = matcher
            return real(matcher, *args)

        monkeypatch.setattr(_GoalMatcher, "predict_block", spy)
        tracemalloc.start()
        try:
            compare_pipelines(history, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix_bytes
        assert len(matchers) == 2
        for matcher in matchers.values():
            arrays = [*vars(matcher).values(), *vars(matcher.peaks).values()]
            assert not any(isinstance(a, np.ndarray) and a.size >= 1974 ** 2 for a in arrays)

    def test_pipeline_road_peaks_below_one_distance_matrix(self):
        # the same road: a call keeps only the upper day-pair blocks of the
        # distances, 28 blocks of (282, 282) for 7 days, and reads whole
        # rows a block at a time, so all it holds at once stays below one
        # (1974, 1974) float64 matrix
        road = two_regime_corpus(n_roads=6, n_days=8, seed=7, diurnal=True)[0]
        history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
        tracemalloc.start()
        try:
            compare_pipelines(history, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1974 * 1974 * 8

    def test_pipeline_road_peaks_below_four_fifths_of_a_distance_matrix(self):
        # the same road: the causal stack, walked in row blocks, no longer
        # adds its whole padded state to what the fills hold
        road = two_regime_corpus(n_roads=6, n_days=8, seed=7, diurnal=True)[0]
        history, target = [noisy for _, noisy in road[:-1]], road[-1][1]
        tracemalloc.start()
        try:
            compare_pipelines(history, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 1974 * 1974 * 8

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
        cp = compare_pipelines(history, days[3], solver=solver, sigma_grid=grid)
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
