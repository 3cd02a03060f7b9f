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
neighbour, adds the goal's own column, and reads each goal's cluster
count first.  A goal with one center shares it with every window, so
its prediction is the weighted average over the whole history, taken
for all such goals of a block at once; only the goals with more centers
have their centers picked and their neighbour chains followed, in one
pointer-jumping pass.  No goal searches the whole (m+1)-square distance
matrix.

Denoising the target day causally needs one future boundary value, so a
small least-squares model trained on 5-minute-ahead labels supplies the
velocity for the next slice; the denoiser then runs on the observed
prefix plus that boundary and only the last four denoised slices are
kept.  No slice beyond the boundary is ever read.  A day's 282 prefixes
are denoised as one stack: laid end to end, each taking its short
circuits as it would alone, the prefixes walk the TV solution path in
lockstep, one merge per prefix per numpy step, and each window is that
of its prefix solved alone.

``compare_pipelines`` runs on the calling thread and one worker thread.
Its results do not depend on which thread runs what, a caller's
``np.errstate`` holds on both threads, and a failing step raises its
own error, the calling thread's when both threads fail.
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
    _day_pair_distances,
    _day_pairs,
    _kernel,
    _percentile_cutoff,
    _row_blocks,
    auto_select_k,
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
    """Length-4 input windows with scalar labels."""

    windows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.windows, dtype=float)
        l = np.asarray(self.labels, dtype=float)
        if w.ndim != 2 or w.shape[1] != WINDOW:
            raise ValueError(f"windows must be (m, {WINDOW})")
        if l.shape != (w.shape[0],):
            raise ValueError("labels must match window count")
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
    values = []
    for day in days:
        v = day.values if isinstance(day, VelocitySeries) else np.asarray(day, dtype=float)
        if v.size != DEFAULT_SLICES:
            raise ValueError(f"day must have {DEFAULT_SLICES} slices, got {v.size}")
        values.append(v)
    n = DEFAULT_SLICES - LABEL_OFFSET
    x = np.array(values).reshape(len(values), DEFAULT_SLICES)
    windows = np.lib.stride_tricks.sliding_window_view(x, WINDOW, axis=1)[:, :n]
    return HistorySet(windows.reshape(-1, WINDOW),
                      x[:, label_offset : label_offset + n].reshape(-1))


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
    prefix alone, bit for bit.  Both forms take one stacked solve
    (``solver._denoise_stack``) of the prefixes laid end to end with
    their boundaries: each prefix takes its short circuits as it would
    alone, the prefixes that need a walk are walked in lockstep in
    consecutive row blocks, each within the solver's byte budget for the
    padded state (the 282 prefixes of a target day take two walks), and
    the windows are gathered by index from the stack's solution.
    The first prefix that fails raises the error it raises alone, as the
    stack gives each prefix its lone error.
    """
    one = np.ndim(boundary) == 0
    prefixes = [day_so_far] if one else list(day_so_far)
    boundaries, sigmas = np.atleast_1d(boundary), np.atleast_1d(sigma)
    if not (len(prefixes) == boundaries.shape[0] == sigmas.shape[0]):
        raise ValueError("need one boundary and one sigma per prefix")
    pieces = []  # each prefix, then its boundary as a 1-element row
    for prefix, value in zip(prefixes, boundaries.astype(float)[:, None]):
        prefix = np.asarray(prefix, dtype=float)
        if prefix.size < WINDOW:
            raise ValueError(f"need at least {WINDOW} past slices")
        pieces += (prefix, value)
    u = np.concatenate(pieces)
    heads = np.cumsum([0] + [prefix.size + 1 for prefix in pieces[::2]])
    x, _, _, errors = _denoise_stack(u, heads, sigmas, solver, h)
    if errors:
        raise errors[min(errors)]
    windows = x[heads[1:, None] + np.arange(-(WINDOW + 1), -1)]
    return windows[0] if one else windows


def _weighted_label(weights: np.ndarray, labels: np.ndarray) -> float:
    sw = float(weights.sum())
    if sw > 0:
        return float((weights * labels).sum() / sw)
    return float(labels.mean())


def _weighted_labels(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``_weighted_label`` of each row of a (g, m) weight stack, bit for bit."""
    sw = weights.sum(axis=1)
    return np.divide((weights * labels).sum(axis=1), sw, out=np.full(len(sw), labels.mean()),
                     where=sw > 0)


def predict(history: HistorySet, goal, d_c: float, k: int | None = None) -> float | np.ndarray:
    """Cluster each goal window with the history and average its cluster.

    A (4,) goal gives a float and a (G, 4) stack an array of G values,
    each that of its goal alone; the stack shares one matcher build, as
    in the pipeline.  A goal alone in its cluster falls back to the
    Gaussian-weighted average over all windows.  A goal whose distance to
    some window is not finite (squares that overflow too) raises
    ValueError("non-finite distance"); a d_c that is not positive and
    finite raises ValueError too (``cluster.local_density``).
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

    The build is history first: the history distance matrix, its kernel
    densities rho_base, the history-only ``delta_neighbors`` pass, and
    from those a ``cluster.HistoryPeaks`` holding the window pairs a goal
    can flip and the windows whose neighbour it can take away; a fixed k
    of 1 needs no neighbours, so its build stops at rho_base, and it
    rejects a k outside 1..m+1.  rho_base and the history pass's
    ``separation`` (delta, nn) can come built already, as
    ``compare_pipelines`` builds them; the matrix is then not built at
    all.  Either way no (m, m) matrix is kept: the peaks recompute from
    the windows' columns the few rows a goal reads.  predict() takes a
    (G, 4) goal stack and works through it in goal blocks, one
    predict_block() call each: for a block it computes the goals'
    distances and the densities rho_base + w with each goal added,
    corrects each window's history neighbour only where a flip pair
    turned denser or its neighbour stopped being denser (a whole-row
    search for those few), adds the goal's own column and reads each
    goal's k, the fixed k or ``auto_select_k`` of its gamma (with a fixed
    k of 1 it needs no neighbours at all).  A goal with k = 1 is in the
    one cluster with every window: each chain ends at the center or at
    the densest item, which takes its nearest center, the only one.  Its
    value is the weighted average over all windows, for the block's such
    goals at once, and it never falls back.  Only the goals with k > 1
    have their centers picked and their neighbour chains followed to
    their clusters; no (m+1)-square matrix is built and no goal's
    densities are sorted.  The weighted average over such a goal's
    cluster, or over all windows when it is alone in its cluster, runs
    goal by goal.  Clustering a goal with the windows from scratch gives
    the same delta, neighbours and labels, except that summing a whole
    density row can differ from ``rho_base + w_goal`` in the last bit and
    so reorder exact ties.
    """

    def __init__(
        self,
        windows: np.ndarray,
        labels: np.ndarray,
        d_c: float,
        k: int | None,
        rho_base: np.ndarray | None = None,
        separation: tuple | None = None,
    ):
        if k is not None and not 1 <= k <= len(windows) + 1:
            raise ValueError(f"k must lie in 1..{len(windows) + 1}")
        self.labels = labels
        self.d_c = d_c
        self.k = k
        self.columns = np.ascontiguousarray(windows.T)  # (4, m)
        if rho_base is None:
            base = pairwise_distances(windows).d if len(windows) > 1 else np.zeros((1, 1))
            rho_base = local_density(base, d_c)
            if k != 1:
                separation = delta_neighbors(base, rho_base)
        self.rho_base = rho_base
        self.peaks = None if k == 1 else HistoryPeaks(self.columns, rho_base, *separation)

    def predict(self, goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, fell_back) of a (G, 4) goal stack, one entry per goal;
        a goal alone in its cluster falls back to the Gaussian-weighted
        average over all windows."""
        values = np.empty(len(goals))
        fell_back = np.zeros(len(goals), dtype=bool)
        for block in _goal_blocks(len(goals), self.columns.shape[1]):
            self.predict_block(goals, block, values, fell_back)
        return values, fell_back

    def predict_block(self, goals: np.ndarray, block: slice, values: np.ndarray,
                      fell_back: np.ndarray) -> None:
        """Write values[block] and fell_back[block], those of goals[block];
        a block's entries depend on its goals alone.  A goal distance that
        is not finite raises ValueError, with no overflow warning, as in
        ``pairwise_distances``."""
        m = self.columns.shape[1]
        with np.errstate(over="ignore"):  # an overflow is the ValueError below
            d_goal = _column_distances(goals[block], self.columns)
        if not np.isfinite(d_goal.max()):
            raise ValueError("non-finite distance")
        w_goal = _kernel(d_goal, self.d_c)
        rho = np.empty((len(d_goal), m + 1))
        np.add(self.rho_base, w_goal, out=rho[:, :m])
        rho[:, m] = w_goal.sum(axis=1)
        many = np.arange(0)  # the goals with more than one center
        if self.k != 1:
            delta, nn = self.peaks.delta_neighbors(d_goal, rho)
            ks = auto_select_k(rho * delta)[0] if self.k is None else np.full(len(rho), self.k)
            many = np.flatnonzero(ks > 1)
        if many.size < len(rho):
            # a goal with one center shares it with every window: the
            # weighted average over all of them (rows of many are
            # overwritten below)
            values[block] = _weighted_labels(w_goal, self.labels)
        if many.size == 0:
            return
        rows = many if many.size < len(rho) else slice(None)  # a view when all rows
        centers = select_centers(rho[rows], delta[rows], ks[rows])
        label = follow_neighbors(
            nn[rows], centers,
            lambda r, items: self.peaks.bordered(d_goal[many[r]], items, centers[r]),
        )
        same = label[:, :m] == label[:, m:]
        for r, row in zip(many, same):
            members = np.flatnonzero(row)
            goal = block.start + r
            if members.size == 0:
                values[goal] = _weighted_label(w_goal[r], self.labels)
                fell_back[goal] = True
            else:
                values[goal] = _weighted_label(w_goal[r, members], self.labels[members])


def _goal_blocks(n_goals: int, m: int):
    """The goal blocks of a stack matched against m windows."""
    # a block's temporaries peak at 81 bytes per goal and window
    # (tracemalloc, 1974 windows, k 2 or 3; 57-68 for an automatic k),
    # about ten (g, m) arrays of 8-byte items
    return _row_blocks(n_goals, 96 * m)


class _Drain:
    """The one task list that the threads of a ``compare_pipelines`` call
    share.

    Stages are added in order, each a name, its tasks, which may run at
    once on any threads, and the names of the stages it waits for, added
    before it.  A thread takes, under one lock, the first task whose
    stages have ended, waiting while there is none, and runs it; a stage
    ends when the last of its tasks has.  A waiting thread therefore
    waits for tasks that a thread has taken.  Once a thread has failed,
    no task is handed out, so the other thread ends instead of waiting
    for a stage that will never end.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._tasks = []
        self._left = {}  # per stage, its tasks that have not ended
        self._failed = False

    def add(self, name: str, tasks, *after: str) -> None:
        self._left[name] = len(tasks)
        self._tasks.extend((name, task, after) for task in tasks)

    def take(self):
        """(stage, task) of the first task whose stages have ended, waited
        for while none has; None when none is left or a thread has failed."""
        with self._cond:
            while not self._failed and self._tasks:
                for i, (name, task, after) in enumerate(self._tasks):
                    if not any(self._left[stage] for stage in after):
                        del self._tasks[i]
                        return name, task
                self._cond.wait()
            return None

    def end(self, name: str) -> None:
        with self._cond:
            self._left[name] -= 1
            if not self._left[name]:
                self._cond.notify_all()

    def run(self) -> None:
        """Take and run tasks on the calling thread and one worker thread
        until none is left.

        The worker runs in a copy of the caller's context, so a caller's
        ``np.errstate`` holds on both threads.  A thread whose task raises
        marks the drain failed and ends.  The worker is joined before
        anything is returned or raised; the calling thread's error wins
        over the worker's.
        """
        errors = {}  # per lane, the error its task raised

        def lane(name: str) -> None:
            try:
                while (taken := self.take()) is not None:
                    stage, task = taken
                    task()
                    self.end(stage)
            except BaseException as exc:  # raised on the calling thread below
                errors[name] = exc
                with self._cond:
                    self._failed = True
                    self._cond.notify_all()

        worker = threading.Thread(target=contextvars.copy_context().run, args=(lane, "worker"))
        worker.start()
        lane("caller")
        worker.join()
        if errors:
            raise errors.get("caller") or errors["worker"]


@dataclass(frozen=True, eq=False)
class PipelineComparison:
    """Raw and denoised prediction runs over the same target day."""

    raw: PredictionReport
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
    solve at its own slice length.  A given sigma is checked before any
    work, raw only too: one that ``SolverConfig`` rejects raises its
    ValueError.  A goal window whose distance to some history window is
    not finite (a NaN or infinite slice, or squares that overflow)
    raises ValueError("non-finite distance"), with no numpy warning.

    The sigma estimates and the history denoise, the only solves that go
    through ``denoise_values`` and ``estimate_sigma``, run first on the
    calling thread.  They end before any thread starts, so a span tracer
    that keeps one stack (``bench/tracing.py``) gives each of their
    solves its own parent.  Then one worker thread starts and is joined
    at the end, and both threads take tasks from one list in order, each
    task once the stages it waits for have ended (``_Drain``): the raw
    distances, in two halves by day pairs, into one buffer of upper
    day-pair blocks (``cluster._day_pair_distances``: each pair of days
    a <= b once, no (m, m) matrix), which the d_c, density and
    separation passes read as they are; the causal goal stack; d_c, by
    selection; the raw matcher's density and history-only
    ``delta_neighbors`` passes, each in two halves by rows, and its
    build; the denoised distances, in two halves, into the same buffer
    once the raw passes have ended (a matcher keeps no (m, m) matrix);
    the denoised matcher's passes and build; then the raw goal blocks and
    the denoised ones (``_GoalMatcher.predict_block``, the step of
    ``_GoalMatcher.predict``).  No task's output depends on the thread
    that runs it, so neither do the predictions.  The worker runs in a
    copy of the caller's context, so a caller's ``np.errstate`` holds on
    both threads.  A failing task stops the other thread, which waits
    for nothing more; the failing task's own error is raised once both
    have ended, the calling thread's when both fail.
    """
    days = list(history_days)
    if not days:
        raise ValueError("empty history")
    h = target.h
    if target.n_slices != DEFAULT_SLICES:
        raise ValueError(f"target must have {DEFAULT_SLICES} slices")
    if sigma is not None:
        replace(solver, sigma=sigma)  # a sigma the solver rejects raises, raw only too

    histories = {"raw": build_history(days)}
    if sigma is None:
        per_day = [
            estimate_sigma(d.values, sigma_grid=sigma_grid, solver=solver, h=d.h).sigma_best
            for d in days
        ]
        sigma = float(np.mean(per_day))

    model = fit_boundary(build_history(days, label_offset=BOUNDARY_OFFSET))

    # the history denoise before any thread starts, like the estimates:
    # the worker's causal stack is then the only solve left
    day_values = {"raw": np.array([d.values for d in days])}
    if include_denoised:
        config = replace(solver, sigma=sigma)
        day_values["denoised"] = np.array(
            [denoise_values(d.values, config, h=d.h).denoised for d in days])
        histories["denoised"] = build_history(day_values["denoised"])

    n_goals = DEFAULT_SLICES - LABEL_OFFSET
    tv = target.values
    goals = {"raw": np.lib.stride_tricks.sliding_window_view(tv, WINDOW)[:n_goals]}
    matched = {tag: (np.empty(n_goals), np.zeros(n_goals, dtype=bool)) for tag in histories}
    m = len(histories["raw"])
    halves = (slice(0, m // 2), slice(m // 2, m))
    pairs = _day_pairs(len(days))
    # the one distance buffer, the upper day-pair blocks: the raw
    # distances, then the denoised ones
    d = np.empty((len(pairs), n_goals, n_goals))
    built = {}  # "d_c": (d_c, flags), and each variant's matcher

    def raw_cutoff() -> None:
        built["d_c"] = _percentile_cutoff(d, dc_percentile)

    def causal_goals() -> None:
        seen = np.arange(WINDOW, WINDOW + n_goals)  # slices observed at each goal
        goals["denoised"] = causal_denoise_window(
            [tv[:n] for n in seen],
            [model.predict_next(window) for window in goals["raw"]],
            sigma * np.sqrt((seen + 1) / DEFAULT_SLICES),  # observed fraction
            solver,
            h=h,
        )

    def density(rho: np.ndarray, rows: slice) -> None:
        rho[rows] = local_density(d, built["d_c"][0], rows)

    def separation(rho: np.ndarray, delta: np.ndarray, nn: np.ndarray, rows: slice) -> None:
        delta[rows], nn[rows] = delta_neighbors(d, rho, rows)

    def build(tag: str, rho: np.ndarray, neighbors: tuple | None) -> None:
        history = histories[tag]
        built[tag] = _GoalMatcher(history.windows, history.labels, built["d_c"][0], k,
                                  rho_base=rho, separation=neighbors)

    def match(tag: str, block: slice) -> None:
        built[tag].predict_block(goals[tag], block, *matched[tag])

    drain = _Drain()
    read = ()  # the stages whose reads of d a variant's fill waits for
    for tag in histories:
        rho, delta, nn = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64)
        drain.add(f"{tag} fill", [partial(_day_pair_distances, day_values[tag], n_goals, WINDOW,
                                          d, part) for part in (pairs[::2], pairs[1::2])], *read)
        if tag == "raw":
            if include_denoised:  # for the first thread done with its half of the fill
                drain.add("causal", [causal_goals])
            drain.add("d_c", [raw_cutoff], "raw fill")
        drain.add(f"{tag} density", [partial(density, rho, rows) for rows in halves],
                  "d_c" if tag == "raw" else f"{tag} fill")
        read = (f"{tag} density",)
        if k != 1:
            drain.add(f"{tag} separation", [partial(separation, rho, delta, nn, rows)
                                            for rows in halves], *read)
            read = (f"{tag} separation",)
        drain.add(f"{tag} matcher", [partial(build, tag, rho, None if k == 1 else (delta, nn))],
                  *read)
    for tag in histories:
        waits = (f"{tag} matcher", "causal") if tag == "denoised" else (f"{tag} matcher",)
        drain.add(f"{tag} blocks", [partial(match, tag, block)
                                    for block in _goal_blocks(n_goals, m)], *waits)

    drain.run()
    d_c, flags = built["d_c"]

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
        raw=reports["raw"],
        denoised=reports.get("denoised"),
        sigma=float(sigma),
        d_c=d_c,
        boundary_fallback=model.used_fallback,
        flags=tuple(flags),
    )
