"""Constrained total-variation denoiser.

Given a noisy series u0 and a noise strength sigma, the solver finds the
series u of least total variation TV(u) = sum_i |u_{i+1} - u_i| on the
fidelity budget

    F(u) = (1/2) h sum_i (u_i - u0_i)^2 = sigma^2.

Each solution is a proximal point of TV,

    x(lambda) = argmin_x (1/2) sum_i (x_i - u0_i)^2 + lambda TV(x),

for the one weight lambda at which F(x(lambda)) = sigma^2.  F grows
continuously with lambda, from 0 at lambda = 0 to

    sigma_max^2 = (h/2) sum_i (u0_i - mean(u0))^2

where x is the constant mean.  A solve walks the solution path x(lambda)
from lambda = 0 up to that weight:

* Segments.  x(lambda) is piecewise constant, and its segments only
  merge as lambda grows (J. Friedman, T. Hastie, H. Hoefling and
  R. Tibshirani, "Pathwise coordinate optimization", Ann. Appl. Stat.
  2007; H. Hoefling, "A path algorithm for the fused lasso signal
  approximator", JCGS 2010).  At lambda = 0 they are the runs of equal
  values of u0.
* Between merges.  On a segment of length L whose jumps at its left and
  right ends have signs s_l and s_r (0 at the series' ends), x =
  mean(u0 over the segment) + lambda c with c = (s_r - s_l) / L.  F is
  therefore (h/2)(A + B lambda^2), with A the sum of squares of u0 about
  its segment means and B = sum L c^2.
* Merges.  Two neighbours meet at the weight where their values cross; a
  heap holds that weight for every pair whose gap closes.  Each step
  takes the walk to the next such weight and merges every pair that
  meets there, until (h/2)(A + B lambda^2) would pass sigma^2 first;
  the last step ends at lambda* = sqrt((2 sigma^2 / h - A) / B).

The walk takes at most one step per run of u0 and lands on the budget
up to rounding; there is no tolerance loop.  ``max_iters`` caps its
steps: a capped walk ends at the smaller of lambda* and the next merge
weight, so x is still the proximal point at its last weight, short of
the budget.  sigma = 0 returns u0, as the budget forces u = u0; sigma >=
sigma_max returns the constant mean, which has TV 0 and F =
sigma_max^2, flagged ``saturated`` (flat input is returned as it is).
So does a walk that merges down to one segment, which only rounding
allows, with sigma a few ulps below sigma_max.  A non-finite
sigma_max^2 (squares of the input's spread that overflow) at a nonzero
sigma, or a non-finite solution, raises FloatingPointError.

:func:`denoise_values` solves one series at one sigma.  A grid sweep
(the noise module's balance sweep) solves one series at an increasing
list of sigmas, each config from ``dataclasses.replace(config,
sigma=s)``, in one walk: the walk passes every budget below sigma_max
in order, and the result at each is the one a solve at that sigma alone
gives, bit for bit.  The walk also carries TV(x), and past its last
budget it walks on to where TV(x) falls below a floor, the noise
module's TV_l, and reports a sigma just short of that point whose solve
alone keeps TV(x) at or above the floor.

Two walks serve these solves, and the caller's shape picks one.  The
heap walk (:func:`_walk`) takes one series to a list of budgets: it
serves :func:`denoise_values` and the grid sweep with its floor
crossing.  The lockstep walk (:func:`_walk_stack`) takes a stack of
series laid end to end with one budget each, a target day's causal
prefixes or a CLI batch of road-days: each numpy step merges one pair
in every series that still walks, and each series ends as the heap walk
would, bit for bit.  A numpy step costs about as much for one series as
for hundreds, while a heap step is a few Python operations, so the
lockstep walk loses on one series and wins on a stack.  Its state is
padded to the longest series it walks, so a stack is walked in
consecutive row blocks within a byte budget (:func:`_stack_blocks`); a
block with one series to walk takes the heap walk.  Both walks share
the runs of :func:`_runs`.  Every solve, lone, in a sweep or a row of a
stack (:func:`_denoise_stack`), decides sigma = 0, flat input and sigma
>= sigma_max through :func:`_short_circuit` before any walk.  A stack
returns x, iterations and saturated as arrays, with no result object per
series, and the error of each series that fails, which fails alone: the
others solve as they would without it.

``epsilon`` does not enter the solve.  It is the smoothing of
:func:`smoothed_total_variation`, which replaces each |d| by
|d| - eps log(1 + |d|/eps), and of :func:`compute_gradient`, the
gradient of that smoothed objective.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .series import VelocitySeries, total_variation, _as_float_vector, _check_h

# A lockstep walk's padded state and temporaries per block of a stack
# (:func:`_stack_blocks`), and their bytes per padded entry at the walk's
# peak, its build: tracemalloc reads 110 for 180 series of 288 samples and
# 119 for 24, and 79-101 for the padded blocks of a day's causal prefixes
_STACK_BYTES = 1 << 22
_STACK_ENTRY_BYTES = 120

@dataclass(frozen=True)
class SolverConfig:
    """``max_iters`` caps the steps of one path walk: a series of n
    samples takes at most n, so only a cap below that can stop a walk
    short of its budget.  ``rel_tol`` only sets the ``converged``
    threshold on |F - sigma^2| / sigma^2; the walk does not read it.
    ``epsilon`` is not used by the solve (see the module docstring)."""

    sigma: float
    epsilon: float = 1e-6
    max_iters: int = 5000
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not (0.0 <= self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        square = float(self.sigma) * float(self.sigma)  # inf, with no raise, on overflow
        if self.sigma > 0 and square < sys.float_info.min:
            # 2 sigma^2 / h would lose the budget to underflow
            raise ValueError(f"sigma {self.sigma!r} is too small: its square underflows "
                             "the normal float range")
        if square == math.inf:
            raise ValueError(f"sigma {self.sigma!r} is too large: its square overflows "
                             "the float range")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True, eq=False)
class DenoiseResult:
    """Denoised series plus solver diagnostics.

    ``constraint_residual`` is |(1/2) h sum (u - u0)^2 - sigma^2|, the
    distance from the fidelity budget, and ``converged`` means it is at
    most rel_tol sigma^2.  ``lambda_trace`` holds the weight of each step
    of the path walk: each merge weight, then the weight lambda* of the
    result (for a walk stopped by max_iters, the smaller of lambda* and
    the next merge weight).  It never decreases, the result is the
    proximal point at its last entry, and ``iterations`` is its length.
    It is empty for sigma = 0, flat input and sigma >= sigma_max, which
    need no walk.  ``saturated`` means the result is the constant
    mean: sigma >= sigma_max, or a walk that merged down to one segment,
    whose trace ends at its last merge.  ``stalled`` is always False:
    the solve has no line search to stall.
    """

    denoised: np.ndarray
    final_tv: float
    iterations: int
    lambda_trace: np.ndarray
    constraint_residual: float
    converged: bool
    stalled: bool = False
    saturated: bool = False

    def __post_init__(self):
        d = np.asarray(self.denoised, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "denoised", d)
        t = np.asarray(self.lambda_trace, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "lambda_trace", t)
        if t.size != self.iterations:
            raise ValueError("lambda_trace length must equal iterations")


def smoothed_total_variation(values, epsilon: float) -> float:
    """TV with each |d| replaced by |d| - eps log(1 + |d|/eps)."""
    a = np.abs(np.diff(np.asarray(values, dtype=float)))
    return float(np.add.reduce(a - epsilon * np.log1p(a / epsilon)))


def compute_gradient(u_n, u0, lam: float, h: float, epsilon: float) -> np.ndarray:
    """Gradient of the smoothed Lagrangian, scaled by 1/h.

    g_i = -[(1/h)(r_i - r_{i-1}) - lambda (u_i - u0_i)] with the
    regularized quotient r_i = d_i / (|d_i| + eps) of d_i = u_{i+1} - u_i
    and Neumann padding r_0 = r_N = 0.  Equivalently h * g is the exact
    gradient of TV_eps(u) + (lambda h / 2) sum (u - u0)^2.
    """
    u = _as_float_vector(u_n, "u_n")
    v0 = _as_float_vector(u0, "u0")
    if u.size != v0.size or u.size < 2:
        raise ValueError("u_n and u0 must have equal length >= 2")
    du = np.diff(u)
    r = np.concatenate(([0.0], du / (np.abs(du) + epsilon), [0.0]))
    return -((np.diff(r) / h) - lam * (u - v0))


def _runs(u0: np.ndarray, heads=None):
    """The segments at lambda = 0, the runs of equal values of u0: (starts,
    size, sign, rate, pairs, meets) with each run's first index and size,
    the sign of the jump at its right end (0 for the last), its rate c,
    and the runs k whose gap to run k + 1 closes, with the weight at
    which the two meet.  With ``heads``, u0 is a stack of series laid end
    to end, the second and later ones starting at those indices; each
    series starts a run and ends one with sign 0, so every run is what
    its series alone gives."""
    d = np.diff(u0)
    if heads is not None:
        d[heads - 1] = 1.0  # a cut between series, its sign set to 0 below
    jumps = np.flatnonzero(d)
    starts = np.concatenate(([0], jumps + 1))
    size = np.diff(np.append(starts, u0.size))
    sign = np.append(np.sign(d[jumps]), 0.0)
    if heads is not None:
        sign[np.searchsorted(starts, heads) - 1] = 0.0
    rate = (sign - np.concatenate(([0.0], sign[:-1]))) / size
    closes = np.diff(rate)
    pairs = np.flatnonzero(sign[:-1] * closes < 0.0)
    return starts, size, sign, rate, pairs, -d[jumps][pairs] / closes[pairs]


def _walk(u0: np.ndarray, budgets, max_iters: int, floor: float = 0.0, h: float = 1.0) -> tuple:
    """([(x, trace), ...], sigma_floor): the path walk to sum (x - u0)^2 =
    budget, one pair per budget of a non-decreasing list, x None when the
    walk merged down to one segment; and for a positive TV ``floor``, a
    sigma (not a budget) whose lone solve at spacing h keeps TV >= floor,
    just short of where the solve's TV falls below it (inf for no floor).

    One walk passes every budget in order, and each pair is what a walk
    to that budget alone gives: the same merges lead up to it, its trace
    counts towards ``max_iters`` on its own, and its last step leaves
    the running a, b and lambda untouched for the next budget.  A walk
    that merged down to one segment has passed every later budget too.

    TV(x) falls at rate b between merges and does not jump at one: one
    update per step carries it.  Where it meets the floor, a + b lambda^2
    gives a sigma, which steps down by a step doubling from one ulp until
    a solve at 2 sigma^2 / h keeps TV >= floor.  ``land`` gives that solve
    for a budget above every earlier step's a + b lambda^2 and at most
    the next one's, where a walk to it alone takes the same steps; other
    sigmas take a walk of their own, or saturate at sigma_max.  A walk
    that max_iters (or a rounding collapse) stops above the floor steps
    down from sigma_max.  sigma_floor is 0 if TV(u0) is below the floor.

    Segment k keeps its size, sum, mean, rate c and the sign of the jump
    at its right end (0 for the last); it keeps its index k as it
    absorbs its right neighbours.  A heap entry (lambda, k, ver[k],
    ver[next]) of neighbours k and next is stale once either has changed
    (ver + 1) or been absorbed (ver -1).  A pair that meets at the
    current weight merges in the current step, so ties leave no jump of
    rounding size.  a and b are A and B; b is summed afresh for the last
    step, as its running value loses digits to cancellation.
    """
    starts, size, sign, rate, pairs, meets = _runs(u0)
    zeros = [0] * pairs.size
    heap = list(zip(meets.tolist(), pairs.tolist(), zeros, zeros))
    heapq.heapify(heap)

    last = size.size - 1
    a, b = 0.0, float(np.sum(size * rate * rate))
    mean, total = u0[starts].tolist(), (u0[starts] * size).tolist()
    size, sign, rate = size.tolist(), sign.tolist(), rate.tolist()
    prev, nxt, ver = list(range(-1, last)), list(range(1, last + 2)), [0] * (last + 1)
    lam, trace, out = 0.0, [], []
    tv = total_variation(u0) if floor > 0.0 else 0.0  # TV(x) at lam while seeking
    seek = 0.0 < floor <= tv
    sigma_floor = math.inf if floor <= 0.0 else 0.0
    # sigma_max^2 as _short_circuit has it: a sigma at or above it saturates
    spread = 0.5 * h * float(np.sum((u0 - u0.mean()) ** 2)) if seek else 0.0
    passed = 0.0  # a budget takes the last step only above this

    def push(k, j):  # neighbours k and j = nxt[k]
        closes = rate[j] - rate[k]
        if sign[k] * closes < 0.0:
            heapq.heappush(heap, (max(lam, (mean[k] - mean[j]) / closes), k, ver[k], ver[j]))

    def land(budget):  # (x, trace) at budget: the last step, from the last merge
        live, k = [], 0
        while k <= last:
            live.append(k)
            k = nxt[k]
        if len(trace) == max_iters:
            end, steps = lam, trace[:]
        else:
            b_end = math.fsum(size[k] * rate[k] * rate[k] for k in live)
            end = max(lam, math.sqrt(max(budget - a, 0.0) / b_end))
            steps = trace + [end]
        return np.repeat([mean[k] + end * rate[k] for k in live], [size[k] for k in live]), steps

    def settle(sigma, top):  # down from sigma to one whose lone solve keeps TV >= floor
        step = math.ulp(sigma)
        while sigma * sigma >= sys.float_info.min:
            target = 2.0 * sigma * sigma / h
            x = (None if sigma * sigma >= spread else land(target)[0] if passed < target <= top
                 else _walk(u0, [target], max_iters)[0][0][0])
            if x is not None and total_variation(x) >= floor:
                return sigma
            sigma, step = max(sigma - step, 0.0), 2.0 * step
        return 0.0

    pending = iter(budgets)
    inf = math.inf
    budget = next(pending, inf)  # inf past the last budget
    while heap and (budget < inf or seek):
        t, k, vk, vj = heap[0]
        if ver[k] != vk or ver[nxt[k]] != vj:
            heapq.heappop(heap)
            continue
        if t > lam:  # a step to a new weight
            reach = a + b * t * t
            if reach >= budget or len(trace) == max_iters:
                if budget == inf:  # capped on the way to the floor
                    break
                out.append(land(budget))
                budget = next(pending, inf)
                continue
            if seek:
                if tv - b * (t - lam) <= floor:
                    meet = lam + (tv - floor) / b
                    sigma_floor = settle(math.sqrt(0.5 * h * (a + b * meet * meet)), reach)
                    seek = False
                    continue
                tv -= b * (t - lam)
            lam, passed = t, max(passed, reach)
            trace.append(t)
        heapq.heappop(heap)
        j = nxt[k]
        sk, sj = size[k], size[j]
        n = sk + sj
        gap = mean[k] - mean[j]
        a += sk * sj / n * gap * gap
        b -= sk * rate[k] * rate[k] + sj * rate[j] * rate[j]
        size[k], total[k], sign[k] = n, total[k] + total[j], sign[j]
        mean[k] = total[k] / n
        rate[k] = (sign[k] - (sign[prev[k]] if k else 0.0)) / n
        b += n * rate[k] * rate[k]
        ver[k] += 1
        ver[j] = -1
        nxt[k] = i = nxt[j]
        if i <= last:
            prev[i] = k
            push(k, i)
        elif not k:  # one segment left, which every later budget takes
            out += [(None, trace[:])] * (len(budgets) - len(out))
            break
        if k:
            push(prev[k], k)
    if seek:  # max_iters stopped the walk above the floor, or rounding merged it down
        sigma_floor = settle(math.sqrt(spread), -math.inf)
    return out + [land(budget) for budget in budgets[len(out):]], sigma_floor


def _stack_state(u: np.ndarray, heads: np.ndarray) -> tuple:
    """(mean, total, sign, rate, size, meet, b, counts, width): the padded
    state of :func:`_walk_stack` at lambda = 0, each a flat array of
    rows * width entries, with each series' B and count of runs.  The
    runs it is built from end with the call."""
    rows = heads.size - 1
    starts, size, sign, rate, pairs, meets = _runs(u, heads[1:-1])
    firsts = np.searchsorted(starts, heads[:-1])
    counts = np.diff(firsts, append=starts.size)
    width = int(counts.max()) + 1
    # summed series by series, in _walk's order
    b = np.array([np.sum(prod) for prod in np.split(size * rate * rate, firsts[1:])])
    at = np.repeat(np.arange(rows) * width - firsts, counts)
    at += np.arange(starts.size)
    # sizes as floats: a product of two is exact below 2**53, as with ints
    fmean, ftotal, fsign, frate, fsize = (np.zeros(rows * width) for _ in range(5))
    fmean[at] = u[starts]
    ftotal[at] = u[starts] * size
    fsign[at], frate[at], fsize[at] = sign, rate, size
    fmeet = np.full(rows * width, np.inf)
    fmeet[at[pairs]] = meets
    return fmean, ftotal, fsign, frate, fsize, fmeet, b, counts, width


def _walk_stack(u: np.ndarray, heads: np.ndarray, budgets, max_iters: int) -> tuple:
    """(x, iterations, collapsed, last): ``_walk(u0, [budget], max_iters)``
    of each series u0 = u[heads[r]:heads[r + 1]] of a stack laid end to end
    and its budget, bit for bit, from one walk of all series in lockstep;
    every series has two runs or more.  x holds the series' solutions end
    to end, iterations and last each trace's length and last weight, and
    collapsed marks the series whose walk merged down to one segment
    (x None in ``_walk``; their entries of x are not a solution).

    Segment k of series r is entry r * width + k of flat arrays of
    mean, total, sign, rate, size, prev and next, one column per run of
    the longest series plus one: a segment keeps its index as it absorbs
    its right neighbours, an absorbed one has size 0, and the columns
    past a series' runs are padding.  A first segment's prev is the last
    column, which no series' runs reach, so its sign reads 0.  ``fmeet``
    holds the heap entry of each segment and its right neighbour, the
    weight at which they meet, or inf where their gap does not close.
    Each lockstep step takes every series that still walks through one
    iteration of ``_walk``'s loop: its smallest weight, the lowest k on a
    tie as in the heap's (lambda, k) order, and the same arithmetic in
    the same order.  A series leaves the walk where ``_walk`` lands; one
    that merged down to one segment has only inf left, so it leaves on
    its next step.  The runs the state is built from
    (:func:`_stack_state`) end once it is built, and the merge state
    (meet, total, sign, prev and next) before landing, which forms
    mean + lambda* c in place in the rate and mean arrays.
    """
    rows = heads.size - 1
    fmean, ftotal, fsign, frate, fsize, fmeet, b, counts, width = _stack_state(u, heads)
    cols = np.arange(width, dtype=np.int32)
    fprev, fnxt = np.tile(cols - 1, rows), np.tile(cols + 1, rows)
    fprev[::width] = width - 1
    budget = np.asarray(budgets, dtype=float)
    a, lam, steps = np.empty(rows), np.empty(rows), np.empty(rows, dtype=np.int64)

    def meets_at(mean_k, rate_k, sign_k, mean_j, rate_j, lam):  # push() of _walk
        closes = rate_j - rate_k
        t = (mean_k - mean_j) / closes
        return np.where(sign_k * closes < 0.0, np.where(t > lam, t, lam), np.inf)

    # the series that still walk, and their budget, a, b, lambda and steps;
    # a series merged down to one segment lands on its next step, at inf
    walking = np.arange(rows)
    base, w_budget, w_a, w_b = walking * width, budget, np.zeros(rows), b
    w_lam, w_steps = np.zeros(rows), np.zeros(rows, dtype=np.int64)
    meet2d = fmeet.reshape(rows, width)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while walking.size:
            k = meet2d[walking[0]:walking[-1] + 1].argmin(axis=1)[walking - walking[0]]
            f = base + k
            t = fmeet[f]
            new = t > w_lam
            lands = new & ((w_a + w_b * t * t >= w_budget) | (w_steps == max_iters) | (t == np.inf))
            if np.count_nonzero(lands):
                done, go = walking[lands], ~lands
                a[done], lam[done], steps[done] = w_a[lands], w_lam[lands], w_steps[lands]
                walking, base, w_budget, w_a, w_b, w_steps, k, f, t, new = (
                    x[go] for x in (walking, base, w_budget, w_a, w_b, w_steps, k, f, t, new))
            w_steps = w_steps + new
            w_lam = t  # no heap entry lies below the last weight
            j, p = base + fnxt[f], base + fprev[f]
            i = fnxt[j]
            n_k, n_j = fsize[f], fsize[j]
            n = n_k + n_j
            mean_k, mean_j, rate_k, rate_j = fmean[f], fmean[j], frate[f], frate[j]
            gap = mean_k - mean_j
            w_a = w_a + n_k * n_j / n * gap * gap
            w_b = w_b - (n_k * rate_k * rate_k + n_j * rate_j * rate_j)
            total = ftotal[f] + ftotal[j]
            mean = total / n
            sign = fsign[j]
            rate = (sign - fsign[p]) / n
            w_b = w_b + n * rate * rate
            fsize[f], ftotal[f], fsign[f], fmean[f], frate[f] = n, total, sign, mean, rate
            fsize[j], fmeet[j] = 0.0, np.inf
            fnxt[f] = i
            fprev[base + i] = k
            # inf past the last segment, whose sign is 0, and before the first
            fmeet[f] = meets_at(mean, rate, sign, fmean[base + i], frate[base + i], w_lam)
            fmeet[p] = meets_at(fmean[p], frate[p], fsign[p], mean, rate, w_lam)

    # land: lambda* from a fresh sum of B over each series' live segments
    # (an absorbed segment adds an exact 0), x from its segments' sizes; a
    # capped or collapsed series ends at its last merge.  The walk's other
    # state goes first, and x + lambda c is formed in place.
    del fmeet, meet2d, ftotal, fsign, fprev, fnxt
    fsize, frate = fsize.reshape(rows, width), frate.reshape(rows, width)
    collapsed = np.count_nonzero(fsize, axis=1) == 1
    landed = (steps != max_iters) & ~collapsed
    end = lam.copy()
    for r in np.flatnonzero(landed).tolist():
        n, c = fsize[r, :counts[r]], frate[r, :counts[r]]
        b_end = math.fsum((n * c * c).tolist())
        end[r] = max(float(lam[r]), math.sqrt(max(float(budget[r] - a[r]), 0.0) / b_end))
    frate *= end[:, None]
    fmean += frate.ravel()
    live = np.flatnonzero(fsize)
    x = np.repeat(fmean[live], fsize.ravel()[live].astype(np.int64))
    return x, steps + landed, collapsed, end


def _non_finite_iterate(steps, last, residual) -> FloatingPointError:
    return FloatingPointError(f"non-finite iterate after {steps} steps (lambda {last}): "
                              f"fidelity residual {residual}")


def _residual(u, u0, sigma, h, rel_tol) -> tuple:
    """(constraint_residual, converged) of a solution u of u0 at sigma, as
    every result reports them."""
    residual = abs(0.5 * h * float(np.sum((u - u0) ** 2)) - sigma * sigma)
    return residual, residual <= rel_tol * sigma * sigma


def _result(u, u0, sigma, h, trace, config, saturated=False) -> DenoiseResult:
    residual, converged = _residual(u, u0, sigma, h, config.rel_tol)
    if not math.isfinite(residual):
        raise _non_finite_iterate(len(trace), trace[-1], residual)
    return DenoiseResult(u, total_variation(u), len(trace), trace, residual, converged,
                         saturated=saturated)


def _short_circuit(u0: np.ndarray, sigmas, h: float) -> list:
    """(walk, mean) for each of ``sigmas``: whether its solve walks the
    path, and whether it returns the constant mean instead.  sigma = 0 and
    flat input return u0; sigma >= sigma_max returns the constant mean.
    sigma_max^2 is computed only when some sigma is nonzero, and a
    non-finite one raises FloatingPointError."""
    if not any(sigmas):
        return [(False, False)] * len(sigmas)
    dev = u0 - u0.mean()
    spread = 0.5 * h * float(np.sum(dev * dev))  # sigma_max^2
    if not math.isfinite(spread):
        raise FloatingPointError(f"non-finite fidelity: sigma_max^2 of the input is {spread}")
    flat = bool((u0 == u0[0]).all())  # flat, though its mean may round off u0
    return [(False, False) if flat or s == 0.0 else (s * s < spread, s * s >= spread)
            for s in sigmas]


def _series(values) -> np.ndarray:
    u0 = _as_float_vector(values, "values")
    if u0.size < 2:
        raise ValueError("need at least two samples")
    return u0


def _sweep(values, configs, h: float = 1.0, tv_floor: float = 0.0) -> tuple:
    """(results, sigma_floor): what :func:`denoise_values` gives at each of
    ``configs``, which differ only in sigma, listed in non-decreasing
    order, and a sigma whose solve keeps TV >= tv_floor, just short of
    those that do not (inf for tv_floor <= 0).  Both come from one path
    walk."""
    u0 = _series(values)
    h = _check_h(h)
    # Overflow shows as a non-finite fidelity or iterate, which raises.
    with np.errstate(over="ignore", invalid="ignore"):
        decided = _short_circuit(u0, [c.sigma for c in configs], h)
        budgets = [2.0 * c.sigma * c.sigma / h for c, (walk, _) in zip(configs, decided) if walk]
        walks, sigma_floor = [], math.inf
        if budgets or tv_floor > 0.0:
            walks, sigma_floor = _walk(u0, budgets, configs[0].max_iters, tv_floor, h)
        walks, results = iter(walks), []
        for c, (walk, mean) in zip(configs, decided):
            x, trace = next(walks) if walk else (None if mean else u0.copy(), [])
            saturated = x is None or (c.sigma != 0.0 and not walk)  # x None: the mean
            x = np.full(u0.size, u0.mean()) if x is None else x
            results.append(_result(x, u0, c.sigma, h, trace, c, saturated))
    return results, sigma_floor


def _stack_blocks(lengths: np.ndarray):
    """Consecutive blocks of a stack's series, given their lengths, for
    one lockstep walk each: a block takes as many series as keep its
    padded state, rows * (longest series + 1) entries at
    ``_STACK_ENTRY_BYTES`` each, within ``_STACK_BYTES``."""
    lo, longest = 0, 0
    for r, n in enumerate(lengths.tolist()):
        longest = max(longest, n)
        if r > lo and (r + 1 - lo) * (longest + 1) * _STACK_ENTRY_BYTES > _STACK_BYTES:
            yield slice(lo, r)
            lo, longest = r, n
    if lo < len(lengths):
        yield slice(lo, len(lengths))


def _denoise_stack(u, heads, sigmas, solver: SolverConfig, h: float = 1.0) -> tuple:
    """(x, iterations, saturated, errors): what :func:`denoise_values` gives
    for each series u[heads[r]:heads[r + 1]] of a stack laid end to end, at
    sigma ``sigmas[r]`` and otherwise under ``solver``, bit for bit.  x
    holds the denoised series end to end as in u, iterations and saturated
    one entry per series.  ``errors`` maps each series that fails to the
    error its lone solve raises; its entries of x, iterations and
    saturated are meaningless.

    Each series is checked and decided as it would be alone: its sigma
    (by its config), its samples and h, then :func:`_short_circuit`, which
    decides every solve; a bad sigma, sample or h, or a non-finite
    sigma_max^2, is its error.  The samples are checked series by series
    only when the stack is not all finite or has a series shorter than
    two.  The series that pass and need a walk are walked in consecutive
    row blocks, each as many series as keep the padded state of its
    lockstep walk (:func:`_walk_stack`) within ``_STACK_BYTES``
    (:func:`_stack_blocks`); a block of one series takes the heap walk.
    After the walks, one check of x finds a non-finite solution: the fidelity
    residual of a lone solve is non-finite exactly then, unless the data
    are so large that it could overflow, when each walked series takes
    the lone residual, and a non-finite one is its error.
    """
    sigmas = np.asarray(sigmas, dtype=float).tolist()
    size = np.diff(heads)
    lo, hi = heads[:-1].tolist(), heads[1:].tolist()
    screened = size.min() >= 2 and np.isfinite(u).all()
    rows = size.size
    x, iterations = u.copy(), np.zeros(rows, dtype=np.int64)
    # sigma 0 and flat series keep u0; sigma >= sigma_max and a walk that
    # merged down to one segment give the constant mean
    walk, saturated, mean = (np.zeros(rows, dtype=bool) for _ in range(3))
    errors = {}
    # Overflow shows as a non-finite fidelity or iterate, the row's error.
    with np.errstate(over="ignore", invalid="ignore"):
        for r, (sigma, a, b) in enumerate(zip(sigmas, lo, hi)):
            try:
                replace(solver, sigma=sigma)  # raises a lone config's ValueError
                u0 = u[a:b]
                if not screened:
                    _series(u0)
                h = _check_h(h)
                (walk[r], mean[r]), = _short_circuit(u0, [sigma], h)
                saturated[r] = sigma != 0.0 and not walk[r]
            except Exception as exc:
                errors[r] = exc

        walked = np.flatnonzero(walk)
        steps, last = np.zeros(walked.size, dtype=np.int64), np.zeros(walked.size)
        collapsed = np.zeros(walked.size, dtype=bool)
        budgets = [2.0 * sigmas[r] * sigmas[r] / h for r in walked.tolist()]
        for block in _stack_blocks(size[walked]):
            part = np.zeros(rows, dtype=bool)
            part[walked[block]] = True
            mask = np.repeat(part, size)
            if block.stop - block.start == 1:
                x_r, trace = _walk(u[mask], budgets[block], solver.max_iters)[0][0]
                steps[block], last[block], collapsed[block] = len(trace), trace[-1], x_r is None
                if x_r is not None:
                    x[mask] = x_r
            else:
                x[mask], steps[block], collapsed[block], last[block] = _walk_stack(
                    u[mask], np.append(0, np.cumsum(size[walked[block]])), budgets[block],
                    solver.max_iters)
        iterations[walked] = steps
        saturated[walked] = mean[walked] = collapsed
        for r in np.flatnonzero(mean).tolist():
            x[lo[r]:hi[r]] = u[lo[r]:hi[r]].mean()
        if walked.size:
            # a lone residual is non-finite where x is, unless the squares
            # of x - u0 could overflow; then each walked series takes it
            reach = 0.5 * h * size.max() * (np.abs(x).max() + np.abs(u).max()) ** 2
            if not (np.isfinite(x).all() and reach < 1e300):
                for r, n, t in zip(walked.tolist(), steps, last):
                    residual = _residual(x[lo[r]:hi[r]], u[lo[r]:hi[r]], sigmas[r], h,
                                         solver.rel_tol)[0]
                    if not math.isfinite(residual):
                        errors[r] = _non_finite_iterate(int(n), float(t), residual)
    return x, iterations, saturated, errors


def denoise_values(values, config: SolverConfig, h: float = 1.0) -> DenoiseResult:
    """Array entry point of the solver; see :func:`denoise`."""
    return _sweep(values, [config], h)[0][0]


def denoise(series: VelocitySeries, config: SolverConfig) -> DenoiseResult:
    """Denoise one road-day under the fidelity constraint.

    sigma = 0 returns the input unchanged, since the constraint then
    forces u = u0; sigma >= sigma_max returns the constant mean under
    ``saturated``.  Otherwise the solve walks the TV solution path up to
    the weight at which the fidelity term meets sigma^2, or for at most
    max_iters steps.
    """
    return denoise_values(series.values, config, h=series.h)

