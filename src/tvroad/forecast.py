"""History-matching velocity prediction with causal denoising.

The predictor breaks multi-day history into length-4 windows paired
with the velocity 15 minutes (3 slices) past each window.  At run time
the current 4-slice window is clustered together with all history
windows; the prediction is the Gaussian-weighted average of the labels
in the window's cluster, weighted by distance from the current window.
The history side of that clustering (distances, densities and each
window's neighbours sorted by distance) is built once per history, so
each goal costs a search along those sorted lists rather than a scan of
the whole (m+1)-square distance matrix.

Denoising the target day causally needs one future boundary value, so a
small least-squares model trained on 5-minute-ahead labels supplies the
velocity for the next slice; the denoiser then runs on the observed
prefix plus that boundary and only the last four denoised slices are
kept.  No slice beyond the boundary is ever read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import (
    FLAG_DEGENERATE_DC,
    SortedNeighbors,
    delta_neighbors,  # noqa: F401  (unused here; bench/tracing.py wraps this name)
    follow_neighbors,
    local_density,
    pairwise_distances,
    select_centers,
)
from .noise import DEFAULT_SIGMA_GRID, SWEEP_SOLVER, estimate_sigma
from .series import DEFAULT_SLICES, VelocitySeries
from .solver import SolverConfig, denoise_sweep, denoise_values, sweep_config

WINDOW = 4
LABEL_OFFSET = 6  # slices from window start to the 15-minute label
BOUNDARY_OFFSET = 4  # 5-minute label used to train the boundary model
# PipelineComparison flag: no target slice is above 1, so MAPE is undefined
_FLAG_NO_MOVING_TRAFFIC = "no-moving-traffic"


@dataclass(frozen=True, eq=False)
class HistorySet:
    """Length-4 input windows with scalar labels and their origins.

    provenance holds one (day, start) pair per window, start being the
    1-based slice index of the window's first sample.
    """

    windows: np.ndarray
    labels: np.ndarray
    provenance: tuple

    def __post_init__(self):
        w = np.asarray(self.windows, dtype=float)
        l = np.asarray(self.labels, dtype=float)
        if w.ndim != 2 or w.shape[1] != WINDOW:
            raise ValueError(f"windows must be (m, {WINDOW})")
        if l.shape != (w.shape[0],) or len(self.provenance) != w.shape[0]:
            raise ValueError("labels and provenance must match window count")
        w.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "windows", w)
        object.__setattr__(self, "labels", l)

    def __len__(self) -> int:
        return self.windows.shape[0]


@dataclass(frozen=True, eq=False)
class PredictionReport:
    """Per-slice predictions for one target day plus error summary."""

    predictions: np.ndarray
    slices: np.ndarray  # 1-based slice numbers the predictions refer to
    rmae: float
    mape: float
    mape_retained_count: int
    fallback_count: int = 0  # goals that fell back to the global average


@dataclass(frozen=True)
class BoundaryModel:
    """One-slice-ahead linear predictor [1, w1..w4] -> velocity.

    Falls back to persistence (repeat the window's last value) when the
    training design is rank deficient."""

    coef: tuple
    used_fallback: bool

    def predict_next(self, window) -> float:
        w = np.asarray(window, dtype=float)
        if self.used_fallback:
            return float(w[-1])
        return float(np.asarray(self.coef) @ np.concatenate(([1.0], w)))


def build_history(days, label_offset: int = LABEL_OFFSET) -> HistorySet:
    """Window every day into 282 (start, start+3) vectors with labels.

    Window starts run over slices 1..282 regardless of the label offset
    so the window set is identical for the 15-minute labels (offset 6)
    and the 5-minute boundary labels (offset 4).
    """
    if not (WINDOW <= label_offset <= LABEL_OFFSET):
        raise ValueError(f"label_offset must lie in {WINDOW}..{LABEL_OFFSET}")
    windows, labels, prov = [], [], []
    for day in days:
        v = day.values if isinstance(day, VelocitySeries) else np.asarray(day, dtype=float)
        day_id = day.day if isinstance(day, VelocitySeries) else None
        if v.size != DEFAULT_SLICES:
            raise ValueError(f"day must have {DEFAULT_SLICES} slices, got {v.size}")
        for start0 in range(DEFAULT_SLICES - LABEL_OFFSET):
            windows.append(v[start0 : start0 + WINDOW])
            labels.append(v[start0 + label_offset])
            prov.append((day_id, start0 + 1))
    return HistorySet(np.array(windows), np.array(labels), tuple(prov))


def fit_boundary(history: HistorySet) -> BoundaryModel:
    m = len(history)
    if m < 8:
        raise ValueError(f"need at least 8 training pairs, got {m}")
    x = np.hstack([np.ones((m, 1)), history.windows])
    coef, _, rank, _ = np.linalg.lstsq(x, history.labels, rcond=None)
    if rank < x.shape[1]:
        return BoundaryModel(coef=tuple(coef), used_fallback=True)
    return BoundaryModel(coef=tuple(coef), used_fallback=False)


def boundary_forecast(history: HistorySet, goal_window) -> float:
    """One-slice-ahead forecast for the slice following goal_window."""
    return fit_boundary(history).predict_next(goal_window)


def causal_denoise_window(
    day_so_far, boundary: float, sigma: float, solver: SolverConfig, h: float = 1.0
) -> np.ndarray:
    """Denoised last-4-slices window using only the past and one boundary.

    Appends the boundary as slice K+1, denoises slices 1..K+1, and
    returns the denoised slices K-3..K.
    """
    prefix = np.asarray(day_so_far, dtype=float)
    if prefix.size < WINDOW:
        raise ValueError(f"need at least {WINDOW} past slices")
    series = np.concatenate([prefix, [float(boundary)]])
    res = denoise_values(series, sweep_config(solver, sigma), h=h)
    return res.denoised[-(WINDOW + 1) : -1]


def _weighted_label(weights: np.ndarray, labels: np.ndarray) -> float:
    sw = float(weights.sum())
    if sw > 0:
        return float((weights * labels).sum() / sw)
    return float(labels.mean())


def predict(history: HistorySet, goal, d_c: float, k: int | None = None) -> float:
    """Cluster the goal window with the history and average its cluster.

    One goal through the same matcher the pipeline uses.  A goal alone
    in its cluster falls back to the Gaussian-weighted average over all
    windows.
    """
    if len(history) == 0:
        raise ValueError("empty history")
    matcher = _GoalMatcher(history.windows, history.labels, d_c, k)
    return matcher.predict(np.asarray(goal, dtype=float))[0]


def rmae(truth, pred) -> float:
    """Sum of absolute errors over sum of absolute true values."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise ValueError("length mismatch")
    denom = float(np.abs(t).sum())
    if denom == 0:
        raise ValueError("all-zero truth")
    return float(np.abs(t - p).sum() / denom)


def mape(truth, pred) -> tuple[float, int]:
    """Mean absolute percentage error over components with truth > 1.

    Returns (value, retained count)."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise ValueError("length mismatch")
    keep = t > 1.0
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("no component with truth > 1")
    value = float((np.abs(t - p)[keep] / np.abs(t)[keep]).mean())
    return value, n_keep


class _GoalMatcher:
    """Per-goal clustering against a fixed window set.

    Builds the history distance matrix (or takes it as ``base``), its
    kernel densities and its sorted neighbour lists once.  Each
    predict() computes the goal's distances and the densities with the
    goal added, finds every item's nearest denser neighbour from the
    sorted lists, picks the centers and follows the neighbour chains to
    the goal's cluster; no (m+1)-square matrix is built.  Clustering the
    goal with the windows from scratch gives the same delta, neighbours
    and labels, except that summing a whole density row can differ from
    ``rho_base + w_goal`` in the last bit and so reorder exact ties.
    """

    def __init__(
        self,
        windows: np.ndarray,
        labels: np.ndarray,
        d_c: float,
        k: int | None,
        base: np.ndarray | None = None,
    ):
        self.labels = labels
        self.d_c = d_c
        self.k = k
        self.windows = windows
        if base is None:
            base = pairwise_distances(windows).d if len(windows) > 1 else np.zeros((1, 1))
        self.rho_base = local_density(base, d_c)
        self.neighbors = SortedNeighbors(base)

    def predict(self, goal: np.ndarray) -> tuple[float, bool]:
        m = self.windows.shape[0]
        d_goal = np.sqrt(((self.windows - goal) ** 2).sum(axis=-1))
        w_goal = np.exp(-((d_goal / self.d_c) ** 2))
        rho = np.concatenate([self.rho_base + w_goal, [w_goal.sum()]])
        delta, nn = self.neighbors.delta_neighbors(d_goal, rho)
        centers = select_centers(rho, delta, self.k)
        label = follow_neighbors(
            nn, centers, lambda items: self.neighbors.bordered(d_goal, items, centers)
        )
        members = np.flatnonzero(label[:m] == label[m])
        if members.size == 0:
            return _weighted_label(w_goal, self.labels), True
        return _weighted_label(w_goal[members], self.labels[members]), False


@dataclass(frozen=True, eq=False)
class PipelineComparison:
    """Raw and denoised prediction runs over the same target day."""

    raw: PredictionReport | None
    denoised: PredictionReport | None
    sigma: float
    d_c: float
    boundary_fallback: bool
    flags: tuple[str, ...] = ()  # cluster.FLAG_DEGENERATE_DC, "no-moving-traffic"


def _denoise_days(days, sigma: float, solver: SolverConfig) -> list:
    """The days' denoised values at one sigma, in day order: one stacked
    solve over the days sharing each slice length h.  A row that failed
    raises its error."""
    denoised = [None] * len(days)
    for h in dict.fromkeys(d.h for d in days):
        idx = [i for i, d in enumerate(days) if d.h == h]
        stack = np.array([days[i].values for i in idx])
        for i, res in zip(idx, denoise_sweep(stack, [sigma] * len(idx), solver, h=h)):
            if isinstance(res, FloatingPointError):
                raise res
            denoised[i] = res.denoised
    return denoised


def compare_pipelines(
    history_days,
    target: VelocitySeries,
    *,
    sigma: float | None = None,
    solver: SolverConfig = SWEEP_SOLVER,
    sigma_grid=DEFAULT_SIGMA_GRID,
    dc_percentile: float = 2.0,
    k: int | None = None,
    include_raw: bool = True,
    include_denoised: bool = True,
) -> PipelineComparison:
    """Run the prediction pipeline on a target day, raw and denoised.

    The noise strength defaults to the mean of the per-day combined
    estimates over the history.  The cutoff distance d_c comes from the
    raw-window distances and is shared by both variants, as is the
    boundary model (trained on raw windows with 5-minute labels); the
    denoised variant clusters denoised history windows and matches them
    with a causally denoised goal window whose sigma is scaled down by
    the square root of the observed fraction of the day.  When the
    distance percentile is 0, as for a flat history, d_c falls back to
    1.0 and ``flags`` holds ``cluster.FLAG_DEGENERATE_DC``.  When no
    target slice is above 1, MAPE has nothing to average: both reports
    carry ``mape`` NaN and ``mape_retained_count`` 0, and ``flags``
    holds ``"no-moving-traffic"``; when every target slice is 0 (a closed
    road), ``rmae`` is NaN too.  The history days are denoised as
    one stacked solve.
    """
    days = list(history_days)
    if not days:
        raise ValueError("empty history")
    h = target.h
    if target.n_slices != DEFAULT_SLICES:
        raise ValueError(f"target must have {DEFAULT_SLICES} slices")

    hist_raw = build_history(days)
    if sigma is None:
        per_day = [
            estimate_sigma(d.values, sigma_grid=sigma_grid, solver=solver, h=d.h).sigma_best
            for d in days
        ]
        sigma = float(np.mean(per_day))

    model = fit_boundary(build_history(days, label_offset=BOUNDARY_OFFSET))

    base = pairwise_distances(hist_raw.windows).d
    d_c = float(np.percentile(base[np.triu_indices(len(base), 1)], dc_percentile))
    flags = []
    if not d_c > 0:
        d_c = 1.0
        flags.append(FLAG_DEGENERATE_DC)

    variants: dict[str, _GoalMatcher] = {}
    if include_raw:
        variants["raw"] = _GoalMatcher(hist_raw.windows, hist_raw.labels, d_c, k, base=base)
    if include_denoised:
        hist_den = build_history(_denoise_days(days, sigma, solver))
        variants["denoised"] = _GoalMatcher(hist_den.windows, hist_den.labels, d_c, k)

    n_goals = DEFAULT_SLICES - LABEL_OFFSET
    preds = {tag: np.empty(n_goals) for tag in variants}
    fallbacks = {tag: 0 for tag in variants}
    tv = target.values
    for s0 in range(n_goals):
        goal_raw = tv[s0 : s0 + WINDOW]
        goal = {"raw": goal_raw}
        if "denoised" in variants:
            boundary = model.predict_next(goal_raw)
            observed = s0 + WINDOW + 1
            sigma_k = sigma * np.sqrt(observed / DEFAULT_SLICES)
            goal["denoised"] = causal_denoise_window(
                tv[: s0 + WINDOW], boundary, sigma_k, solver, h=h
            )
        for tag, matcher in variants.items():
            value, fell_back = matcher.predict(goal[tag])
            preds[tag][s0] = value
            fallbacks[tag] += fell_back

    truth = tv[LABEL_OFFSET:]
    slices = np.arange(LABEL_OFFSET + 1, DEFAULT_SLICES + 1)
    moving = bool((truth > 1.0).any())
    if not moving:
        flags.append(_FLAG_NO_MOVING_TRAFFIC)
    reports = {}
    for tag in variants:
        m_value, m_count = mape(truth, preds[tag]) if moving else (float("nan"), 0)
        reports[tag] = PredictionReport(
            predictions=preds[tag],
            slices=slices,
            rmae=rmae(truth, preds[tag]) if truth.any() else float("nan"),
            mape=m_value,
            mape_retained_count=m_count,
            fallback_count=fallbacks[tag],
        )
    return PipelineComparison(
        raw=reports.get("raw"),
        denoised=reports.get("denoised"),
        sigma=float(sigma),
        d_c=d_c,
        boundary_fallback=model.used_fallback,
        flags=tuple(flags),
    )
