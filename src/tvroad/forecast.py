"""History-matching velocity prediction with causal denoising.

The predictor breaks multi-day history into length-4 windows paired
with the velocity 15 minutes (3 slices) past each window.  At run time
the current 4-slice window is clustered together with all history
windows; the prediction is the Gaussian-weighted average of the labels
in the window's cluster, weighted by distance from the current window.
The history side of that clustering is built once per history: the
distances, the densities and the history's own density peaks (each
window's nearest denser window), plus the few window pairs whose order
a goal's kernel weights, each in [0, 1], can flip.  A day's goals are
then matched as one stack, in goal blocks: each block corrects the
history's neighbours where a flip pair turned or a window lost its
neighbour, adds the goal's own column, and follows the neighbour chains
in one pointer-jumping pass, rather than searching the whole
(m+1)-square distance matrix per goal.

Denoising the target day causally needs one future boundary value, so a
small least-squares model trained on 5-minute-ahead labels supplies the
velocity for the next slice; the denoiser then runs on the observed
prefix plus that boundary and only the last four denoised slices are
kept.  No slice beyond the boundary is ever read.  A day's 282 prefixes
are denoised as one stack before the matchers are built: the prefixes
walk the TV solution path in lockstep, one merge per prefix per numpy
step, and each window is that of its prefix solved alone.

``compare_pipelines`` matches the raw and the denoised goal stacks on
two threads.  Every solve, both history distance matrices and d_c come
first, on the calling thread; then a worker thread builds the denoised
matcher and matches its goals while the calling thread does the raw
ones, and numpy releases the interpreter lock in those passes.  The
worker makes no large allocation, only block temporaries, which the
matcher passes keep small: glibc gives each thread its own malloc
arena, and an arena keeps what its thread allocated.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cluster import (
    HistoryPeaks,
    _column_distances,
    _percentile_cutoff,
    _row_blocks,
    delta_neighbors,
    follow_neighbors,
    local_density,
    pairwise_distances,
    select_centers,
)
from .noise import DEFAULT_SIGMA_GRID, SWEEP_SOLVER, estimate_sigma
from .series import DEFAULT_SLICES, VelocitySeries
from .solver import SolverConfig, _denoise_stack, denoise_values

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


def causal_denoise_window(
    day_so_far, boundary, sigma, solver: SolverConfig, h: float = 1.0
) -> np.ndarray:
    """Denoised last-4-slices window using only the past and one boundary.

    Appends the boundary as slice K+1, denoises slices 1..K+1 at sigma,
    and returns the denoised slices K-3..K.  A 1-D prefix with a scalar
    boundary and sigma gives a (4,) window; a sequence of G prefixes with
    (G,) boundaries and sigmas gives a (G, 4) stack, each row that of its
    prefix alone.  Both forms take one stacked solve, in which the
    prefixes that need a walk share one lockstep path walk.
    """
    one = np.ndim(boundary) == 0
    prefixes = [day_so_far] if one else list(day_so_far)
    boundaries, sigmas = np.atleast_1d(boundary), np.atleast_1d(sigma)
    if not (len(prefixes) == boundaries.shape[0] == sigmas.shape[0]):
        raise ValueError("need one boundary and one sigma per prefix")
    series = []
    for prefix, value in zip(prefixes, boundaries):
        prefix = np.asarray(prefix, dtype=float)
        if prefix.size < WINDOW:
            raise ValueError(f"need at least {WINDOW} past slices")
        series.append(np.concatenate([prefix, [float(value)]]))
    solves = _denoise_stack(series, [replace(solver, sigma=s) for s in sigmas], h)
    windows = np.array([res.denoised[-(WINDOW + 1) : -1] for res in solves])
    return windows[0] if one else windows


def _weighted_label(weights: np.ndarray, labels: np.ndarray) -> float:
    sw = float(weights.sum())
    if sw > 0:
        return float((weights * labels).sum() / sw)
    return float(labels.mean())


def predict(history: HistorySet, goal, d_c: float, k: int | None = None) -> float | np.ndarray:
    """Cluster each goal window with the history and average its cluster.

    A (4,) goal gives a float and a (G, 4) stack an array of G values,
    each that of its goal alone; the stack shares one matcher build, as
    in the pipeline.  A goal alone in its cluster falls back to the
    Gaussian-weighted average over all windows.
    """
    if len(history) == 0:
        raise ValueError("empty history")
    goals = np.asarray(goal, dtype=float)
    if goals.ndim not in (1, 2) or goals.shape[-1] != WINDOW:
        raise ValueError(f"goal must be ({WINDOW},) or (G, {WINDOW}), got {goals.shape}")
    values = _GoalMatcher(history.windows, history.labels, d_c, k).predict(np.atleast_2d(goals))[0]
    return float(values[0]) if goals.ndim == 1 else values


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
    """Goal clustering against a fixed window set, a stack of goals at once.

    The build is history first: the history distance matrix (or ``base``),
    its kernel densities rho_base, the history-only ``delta_neighbors``
    pass, and from those a ``cluster.HistoryPeaks`` holding the window
    pairs a goal can flip and the windows whose neighbour it can take
    away.  predict() takes a (G, 4) goal stack and works through it in
    goal blocks: for a block it computes the goals' distances and the
    densities rho_base + w with each goal added, corrects each window's
    history neighbour only where a flip pair turned denser or its
    neighbour stopped being denser (a whole-row search for those few),
    adds the goal's own column, picks each goal's centers and follows the
    neighbour chains to each goal's cluster; no (m+1)-square matrix is
    built and no goal's densities are sorted.  Only the rare lost-item
    fallback and the weighted average over the goal's cluster run goal by
    goal.
    Clustering a goal with the windows from scratch gives the same
    delta, neighbours and labels, except that summing a whole density
    row can differ from ``rho_base + w_goal`` in the last bit and so
    reorder exact ties.
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
        self.columns = np.ascontiguousarray(windows.T)  # (4, m)
        if base is None:
            base = pairwise_distances(windows).d if len(windows) > 1 else np.zeros((1, 1))
        self.rho_base = local_density(base, d_c)
        self.peaks = HistoryPeaks(base, self.rho_base, *delta_neighbors(base, self.rho_base))

    def predict(self, goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, fell_back) of a (G, 4) goal stack, one entry per goal;
        a goal alone in its cluster falls back to the Gaussian-weighted
        average over all windows."""
        m = self.columns.shape[1]
        values = np.empty(len(goals))
        fell_back = np.zeros(len(goals), dtype=bool)
        # a block's temporaries peak at 92 bytes per goal and window
        # (tracemalloc, 1974 windows), about twelve (g, m) arrays of 8-byte
        # items
        for block in _row_blocks(len(goals), 96 * m):
            d_goal = _column_distances(goals[block], self.columns)
            w_goal = np.exp(-((d_goal / self.d_c) ** 2))
            rho = np.empty((len(d_goal), m + 1))
            np.add(self.rho_base, w_goal, out=rho[:, :m])
            rho[:, m] = w_goal.sum(axis=1)
            delta, nn = self.peaks.delta_neighbors(d_goal, rho)
            centers = select_centers(rho, delta, self.k)
            label = follow_neighbors(
                nn, centers,
                lambda r, items: self.peaks.bordered(d_goal[r], items, centers[r]),
            )
            same = label[:, :m] == label[:, m:]
            for r, goal in enumerate(range(len(goals))[block]):
                members = np.flatnonzero(same[r])
                if members.size == 0:
                    values[goal] = _weighted_label(w_goal[r], self.labels)
                    fell_back[goal] = True
                else:
                    values[goal] = _weighted_label(w_goal[r, members], self.labels[members])
        return values, fell_back


def _on_two_threads(first, second):
    """(first(), second()), second called on a worker thread meanwhile.

    The worker runs in a copy of the caller's context, so a caller's
    ``np.errstate`` holds on both threads.  The worker is joined before
    anything is returned or raised; an error of ``first`` wins over one
    of ``second``.
    """
    outcome = {}

    def work():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # handed to the calling thread below
            outcome["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        value = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return value, outcome["value"]


@dataclass(frozen=True, eq=False)
class PipelineComparison:
    """Raw and denoised prediction runs over the same target day."""

    raw: PredictionReport | None
    denoised: PredictionReport | None
    sigma: float
    d_c: float
    boundary_fallback: bool
    flags: tuple[str, ...] = ()  # cluster.FLAG_DEGENERATE_DC, "no-moving-traffic"


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
    road), ``rmae`` is NaN too.  Each history day is denoised in one
    solve at its own slice length.

    Every solve (the sigma estimates, the causal goal stack, the history
    denoise), both history distance matrices and d_c run on the calling
    thread, before any matching.  Then, when both variants run, a worker
    thread builds the denoised variant's matcher and matches its goals
    while the calling thread does the raw variant's.  The worker
    allocates only block temporaries, as a thread's malloc arena (glibc)
    keeps what the thread allocated, and a span tracer that keeps one
    stack (``bench/tracing.py``) still sees every solve on one thread.
    The worker runs in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in both variants.  A variant's error is raised
    once both have ended, the raw variant's when both fail.  A run with
    one variant starts no thread.
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

    # both goal stacks before the matchers: the denoised goals read only
    # the target and the boundary model, never a prediction, and their
    # solve's arrays are gone before the distance matrices are built
    n_goals = DEFAULT_SLICES - LABEL_OFFSET
    tv = target.values
    goals = {"raw": np.lib.stride_tricks.sliding_window_view(tv, WINDOW)[:n_goals]}
    if include_denoised:
        seen = np.arange(WINDOW, WINDOW + n_goals)  # slices observed at each goal
        goals["denoised"] = causal_denoise_window(
            [tv[:n] for n in seen],
            [model.predict_next(window) for window in goals["raw"]],
            sigma * np.sqrt((seen + 1) / DEFAULT_SLICES),  # observed fraction
            solver,
            h=h,
        )

    base = pairwise_distances(hist_raw.windows).d
    d_c, flags = _percentile_cutoff(base, dc_percentile)

    def match(history: HistorySet, distances: np.ndarray, goal_stack: np.ndarray):
        matcher = _GoalMatcher(history.windows, history.labels, d_c, k, base=distances)
        return matcher.predict(goal_stack)

    jobs = {}
    if include_raw:
        jobs["raw"] = partial(match, hist_raw, base, goals["raw"])
    if include_denoised:
        config = replace(solver, sigma=sigma)
        hist_den = build_history([denoise_values(d.values, config, h=d.h).denoised for d in days])
        jobs["denoised"] = partial(match, hist_den, pairwise_distances(hist_den.windows).d,
                                   goals["denoised"])
    if len(jobs) == 2:
        matched = dict(zip(jobs, _on_two_threads(jobs["raw"], jobs["denoised"])))
    else:
        matched = {tag: job() for tag, job in jobs.items()}

    truth = tv[LABEL_OFFSET:]
    slices = np.arange(LABEL_OFFSET + 1, DEFAULT_SLICES + 1)
    moving = bool((truth > 1.0).any())
    if not moving:
        flags.append(_FLAG_NO_MOVING_TRAFFIC)
    reports = {}
    for tag, (values, fell_back) in matched.items():
        m_value, m_count = mape(truth, values) if moving else (float("nan"), 0)
        reports[tag] = PredictionReport(
            predictions=values,
            slices=slices,
            rmae=rmae(truth, values) if truth.any() else float("nan"),
            mape=m_value,
            mape_retained_count=m_count,
            fallback_count=int(fell_back.sum()),
        )
    return PipelineComparison(
        raw=reports.get("raw"),
        denoised=reports.get("denoised"),
        sigma=float(sigma),
        d_c=d_c,
        boundary_fallback=model.used_fallback,
        flags=tuple(flags),
    )
