"""Constrained total-variation denoiser.

Given a noisy series u0 and a noise strength sigma, the solver seeks a
series u of small total variation subject to the fidelity constraint

    (1/2) h sum_i (u_i - u0_i)^2 = sigma^2.

It runs projected gradient descent on the Lagrangian, refreshing the
multiplier each iteration from the closed-form balance between the TV
subgradient and the constraint, and picking step sizes by backtracking
on the merit

    M(u) = TV_eps(u) + (lambda h / 2) sum_i (u_i - u0_i)^2,

where TV_eps smooths each |d| to |d| - eps log(1 + |d|/eps) so that the
merit is differentiable at zero differences.  The smoothing parameter
eps also appears in the regularized quotient d / (|d| + eps) used by the
multiplier and gradient formulas.

One kernel runs the loop over a leading row axis: a (B, N) stack of
inputs, each row with its own sigma, sharing the template's epsilon,
iteration cap, tolerance and line search.  :func:`denoise_sweep` is the
one batched entry: it takes any such stack (a sigma grid over one
series, a command's road-days) and feeds it to the kernel in blocks of
rows under ``_BLOCK_BYTES``, so the per-iteration numpy calls are
shared by a block's rows while the working set stays small.  :func:`denoise_values` is the B = 1 call.
Every row performs a lone solve's arithmetic element for element, with
the same summation order, so a stacked row is bit-identical to the lone
solve of its (u0, sigma) whatever rows share its block: same iterate,
multiplier trace, iteration count, flags and backtrack count.  A row
whose iterate turns non-finite leaves the stack with its error and the
other rows go on.

* Cached merit.  The accepted trial step's differences, their absolute
  values, its smoothed TV, u - u0 and the fidelity sum are kept, so the
  next iteration's multiplier, gradient and merit M(u) reuse them
  instead of recomputing them from u.
* Block Armijo search.  The trial steps t_k = initial_step * shrink^k
  (formed by the repeated ``t *= shrink`` product of a one-at-a-time
  search, so each is the same float) are tried as one (rows, W, N)
  block and each row takes its first accepted k: exactly the step the
  one-at-a-time search picks.  W starts at the largest k accepted in
  the last two iterations, plus two (accepted k tends to alternate
  between a small and a large value), and doubles until every row has
  a step or max_backtracks trials are used up; a row with no accepted
  trial stalls where it stands.  A row's k is its number of step
  shrinks, which ``backtracks`` sums.
* Row retirement.  A row leaves the stack when it converges, stalls or
  reaches the iteration cap; the others go on.

Practical note on eps: with a very small eps the TV term resolves the
kink so sharply that the sign pattern of the differences chatters and
the sup-norm gradient stop rule is never met on noisy data; the iterate
is fine but "converged" stays False.  Values around 1e-1 (in velocity
units) converge quickly and still land on the same constraint balance,
which is independent of eps.  The default follows the small-eps
convention; sweep and pipeline callers pass their own.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .series import VelocitySeries, total_variation, _as_float_vector

_BLOCK_BYTES = 1 << 16  # input bytes per block of stacked rows: 28 rows of 288 samples


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking (Armijo) line-search settings."""

    initial_step: float = 1.0
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 40

    def __post_init__(self):
        if not (self.initial_step > 0):
            raise ValueError("initial_step must be positive")
        if not (0 < self.shrink < 1):
            raise ValueError("shrink must lie in (0, 1)")
        if not (0 < self.sufficient_decrease < 1):
            raise ValueError("sufficient_decrease must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be >= 0")


@dataclass(frozen=True)
class SolverConfig:
    sigma: float
    epsilon: float = 1e-6
    max_iters: int = 5000
    rel_tol: float = 1e-4
    line_search: LineSearchParams = field(default_factory=LineSearchParams)

    def __post_init__(self):
        if not (self.sigma >= 0):
            raise ValueError("sigma must be >= 0")
        if self.sigma > 0 and self.sigma ** 2 < sys.float_info.min:
            # h / (2 sigma^2) would overflow or divide by zero in the solver
            raise ValueError(f"sigma {self.sigma!r} is too small: its square underflows "
                             "the normal float range")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True, eq=False)
class DenoiseResult:
    """Denoised series plus solver diagnostics.

    ``constraint_residual`` is |(1/2) h sum (u - u0)^2 - sigma^2|, the
    distance from the fidelity constraint.  ``lambda_trace`` records the
    multiplier actually used in each iteration (one entry per iteration
    performed).  ``converged`` means only that the sup-norm gradient
    criterion was met before the iteration cap, not that the fidelity
    constraint holds: a converged solve can still end well away from it,
    so read ``constraint_residual`` for that.  ``stalled`` means the
    line search found no decrease and the run stopped where it stood.
    ``backtracks`` is the total number of line-search step shrinks over
    the run.
    """

    denoised: np.ndarray
    final_tv: float
    iterations: int
    lambda_trace: np.ndarray
    constraint_residual: float
    converged: bool
    stalled: bool = False
    backtracks: int = 0

    def __post_init__(self):
        d = np.asarray(self.denoised, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "denoised", d)
        t = np.asarray(self.lambda_trace, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "lambda_trace", t)
        if t.size != self.iterations:
            raise ValueError("lambda_trace length must equal iterations")


def _smoothed_tv_of(a: np.ndarray, epsilon: float):
    """Smoothed TV from absolute differences, summed over the last axis."""
    return np.add.reduce(a - epsilon * np.log1p(a / epsilon), axis=-1)


def smoothed_total_variation(values, epsilon: float) -> float:
    """TV with each |d| replaced by |d| - eps log(1 + |d|/eps)."""
    return float(_smoothed_tv_of(np.abs(np.diff(np.asarray(values, dtype=float))), epsilon))


def _lambda_from(r, du0, du, coef):
    # coef = h / (2 sigma^2); the sum runs over the last axis
    return coef * np.add.reduce(r * (du0 - du), axis=-1)


def _padded_ratio(du, a, epsilon) -> np.ndarray:
    """The quotient r = d / (|d| + eps) between zero ends r_0 = r_N = 0
    along the last axis (a = |d|); r itself is the view [..., 1:-1]."""
    rpad = np.zeros(du.shape[:-1] + (du.shape[-1] + 2,))
    np.divide(du, a + epsilon, out=rpad[..., 1:-1])
    return rpad


def _gradient_from(rpad, resid, lam, h) -> np.ndarray:
    # resid = u - u0, rpad from _padded_ratio, lam one value per row
    return -(((rpad[..., 1:] - rpad[..., :-1]) / h) - lam[..., None] * resid)


def compute_lambda(u_n, u0, sigma: float, h: float, epsilon: float) -> float:
    """Closed-form multiplier balancing the TV subgradient against the
    fidelity term:

        lambda = (h / 2 sigma^2) sum_i r_i (d0_i - d_i),

    with d_i = u_{i+1} - u_i, d0_i the same for u0, and r_i the
    regularized quotient d_i / (|d_i| + eps).
    """
    u = _as_float_vector(u_n, "u_n")
    v0 = _as_float_vector(u0, "u0")
    if u.size != v0.size or u.size < 2:
        raise ValueError("u_n and u0 must have equal length >= 2")
    if not (sigma > 0):
        raise ValueError("sigma must be positive here (sigma = 0 short-circuits denoise)")
    du = np.diff(u)
    r = _padded_ratio(du, np.abs(du), epsilon)[1:-1]
    return float(_lambda_from(r, np.diff(v0), du, h / (2.0 * sigma ** 2)))


def compute_gradient(u_n, u0, lam: float, h: float, epsilon: float) -> np.ndarray:
    """Gradient of the Lagrangian, scaled by 1/h.

    g_i = -[(1/h)(r_i - r_{i-1}) - lambda (u_i - u0_i)] with homogeneous
    Neumann padding r_0 = r_N = 0.  Equivalently h * g is the exact
    gradient of TV_eps(u) + (lambda h / 2) sum (u - u0)^2.
    """
    u = _as_float_vector(u_n, "u_n")
    v0 = _as_float_vector(u0, "u0")
    if u.size != v0.size or u.size < 2:
        raise ValueError("u_n and u0 must have equal length >= 2")
    du = np.diff(u)
    return _gradient_from(_padded_ratio(du, np.abs(du), epsilon), u - v0, np.asarray(lam), h)


def _trial_steps(ls: LineSearchParams) -> tuple[np.ndarray, np.ndarray]:
    """Trial steps t_k and Armijo slopes c t_k for k < max_backtracks."""
    steps, slopes = [], []
    t = ls.initial_step
    for _ in range(ls.max_backtracks):
        steps.append(t)
        slopes.append(ls.sufficient_decrease * t)
        t *= ls.shrink
    return np.array(steps), np.array(slopes)


def _trial_block(u, g, base, half, merit0, gg, steps, slopes, eps):
    """Armijo test of every trial step for every row: a (rows, W) mask
    plus the trials' cached state, each with a (rows, W) leading shape."""
    trial = u[:, None, :] - steps[:, None] * g[:, None, :]
    d = trial[..., 1:] - trial[..., :-1]
    a = np.abs(d)
    tv = _smoothed_tv_of(a, eps)
    resid = trial - base[:, None, :]
    fid = np.add.reduce(resid ** 2, axis=-1)
    ok = tv + half[:, None] * fid <= merit0[:, None] - slopes * gg[:, None]
    return ok, (trial, d, a, resid, tv, fid)


def _armijo_block(u, g, base, half, merit0, gg, steps, slopes, width, eps):
    """First accepted trial step of every row, tried in widening blocks.

    Returns k, the number of step shrinks before each row's accepted
    trial (``steps.size`` where every trial failed), and the accepted
    trials' cached state: u, its differences and their absolute values,
    u - u0, smoothed TV and fidelity sum (meaningless for failed rows).
    """
    rows = u.shape[0]
    hi = min(width, steps.size)
    if hi == 0:
        return np.zeros(rows, dtype=int), None
    ok, block = _trial_block(u, g, base, half, merit0, gg, steps[:hi], slopes[:hi], eps)
    k = ok.argmax(axis=1)
    # A k shared by all rows (always so for a lone row) is picked by a view.
    shared = rows == 1 or (k == k[0]).all()
    pick = (slice(None), int(k[0])) if shared else (np.arange(rows), k)
    state = [x[pick] for x in block]
    hit = ok[pick] if shared else ok.any(axis=1)
    if hit.all():
        return k, state
    todo = np.flatnonzero(~hit)
    k[todo] = steps.size
    while todo.size and hi < steps.size:
        lo, hi = hi, min(2 * hi, steps.size)
        ok, block = _trial_block(u[todo], g[todo], base[todo], half[todo], merit0[todo],
                                 gg[todo], steps[lo:hi], slopes[lo:hi], eps)
        hit = np.flatnonzero(ok.any(axis=1))
        first = ok[hit].argmax(axis=1)
        k[todo[hit]] = lo + first
        for dst, src in zip(state, block):
            dst[todo[hit]] = src[hit, first]
        todo = np.delete(todo, hit)
    return k, state


def _solve(u0: np.ndarray, sigmas, config: SolverConfig, h: float) -> list:
    """The batched kernel: one DenoiseResult per row of the (B, N) input,
    or the FloatingPointError of a row whose iterate turned non-finite.

    Row b is solved at sigmas[b]; everything else comes from ``config``.
    """
    eps = config.epsilon
    steps, slopes = _trial_steps(config.line_search)
    results: list = [None] * len(sigmas)
    live, tv0 = [], []
    for b, sigma in enumerate(sigmas):
        v0 = total_variation(u0[b])
        if sigma == 0.0:
            results[b] = DenoiseResult(u0[b].copy(), v0, 0, np.empty(0), 0.0, True)
        elif v0 == 0.0:
            # Flat input: no variation to remove, the constraint is unmeetable
            # and the residual reports that honestly.
            results[b] = DenoiseResult(u0[b].copy(), v0, 0, np.empty(0), sigma ** 2, True)
        else:
            live.append(b)
            tv0.append(v0)
    if not live:
        return results

    ids = np.array(live)
    base = u0[ids]
    du0 = base[:, 1:] - base[:, :-1]
    coef = np.array([h / (2.0 * sigmas[b] ** 2) for b in live])
    v0 = np.array(tv0)
    backtracks = np.zeros(ids.size, dtype=int)
    k = k_before = np.zeros(ids.size, dtype=int)
    traces = {b: [] for b in live}
    # Cached state of the current iterate, which starts at u = u0.
    u = base.copy()
    du = du0.copy()
    a = np.abs(du)
    resid = u - base
    stv = _smoothed_tv_of(a, eps)
    fid = np.add.reduce(resid ** 2, axis=-1)

    def retire(j, u_j, fid_j, iterations, converged, stalled):
        b = int(ids[j])
        results[b] = DenoiseResult(
            denoised=u_j.copy(),
            final_tv=total_variation(u_j),
            iterations=iterations,
            lambda_trace=np.array(traces[b]),
            constraint_residual=abs(0.5 * h * float(fid_j) - sigmas[b] ** 2),
            converged=converged,
            stalled=stalled,
            backtracks=int(backtracks[j]),
        )

    for n in range(config.max_iters):
        rpad = _padded_ratio(du, a, eps)
        lam = _lambda_from(rpad[:, 1:-1], du0, du, coef)
        # A negative multiplier gives the fidelity term a negative weight,
        # making the frozen-lambda merit unbounded below and the iteration
        # divergent.  Clamping to zero is safe: the fixed-point balance
        # that pins the constraint does not depend on the sign excursions.
        lam = np.where(lam < 0.0, 0.0, lam)
        for b, value in zip(ids.tolist(), lam.tolist()):
            traces[b].append(value)
        g = _gradient_from(rpad, resid, lam, h)
        half = 0.5 * lam * h
        merit0 = stv + half * fid
        gg = h * np.add.reduce(g * g, axis=-1)
        width = max(int(k.max()), int(k_before.max())) + 2
        k_before = k
        k, new = _armijo_block(u, g, base, half, merit0, gg, steps, slopes, width, eps)
        stalled = k == steps.size
        bad = np.zeros_like(stalled)
        if new is not None and not np.isfinite(new[0]).all():
            bad = ~stalled & ~np.isfinite(new[0]).all(axis=-1)
        backtracks += k
        met = np.maximum.reduce(np.abs(g), axis=-1) / v0 <= config.rel_tol
        done = stalled | met | bad
        if not done.any():
            u, du, a, resid, stv, fid = new
            continue
        for j in np.flatnonzero(done):
            if bad[j]:
                # This row's solve fails alone; the other rows go on.
                results[int(ids[j])] = FloatingPointError(
                    f"non-finite iterate at iteration {n} (step {float(steps[k[j]])}); "
                    "bad step size")
            elif stalled[j]:
                retire(j, u[j], fid[j], n + 1, False, True)
            else:
                retire(j, new[0][j], new[5][j], n + 1, True, False)
        keep = np.flatnonzero(~done)
        if not keep.size:
            return results
        u, du, a, resid, stv, fid = (x[keep] for x in new)
        ids, base, du0, coef, v0, backtracks, k, k_before = (
            x[keep] for x in (ids, base, du0, coef, v0, backtracks, k, k_before))

    for j in range(ids.size):
        retire(j, u[j], fid[j], config.max_iters, False, False)
    return results


def denoise_values(values, config: SolverConfig, h: float = 1.0) -> DenoiseResult:
    """Array entry point of the solver; see :func:`denoise`."""
    u0 = _as_float_vector(values, "values")
    if u0.size < 2:
        raise ValueError("need at least two samples")
    result = _solve(u0[None, :], [config.sigma], config, h)[0]
    if isinstance(result, FloatingPointError):
        raise result
    return result


def denoise_sweep(values, sigmas, template: SolverConfig, h: float = 1.0) -> list:
    """Solve every row of a (B, N) stack at its own sigma.

    Row b is solved at ``sigmas[b]`` with the rest of ``template``, and
    result b is bit-identical to ``denoise_values(values[b],
    sweep_config(template, sigmas[b]), h)``.  Rows are solved in blocks
    of consecutive rows under ``_BLOCK_BYTES``.  Every sigma is checked
    before any row is solved; a row whose iterate turns non-finite holds
    its FloatingPointError in place of a result, and the other rows are
    unaffected.
    """
    u0 = np.asarray(values, dtype=float)
    if u0.ndim != 2:
        raise ValueError(f"values must be a (B, N) stack, got shape {u0.shape}")
    if u0.shape[1] < 2:
        raise ValueError("need at least two samples")
    bad = np.argwhere(~np.isfinite(u0))
    if bad.size:
        raise ValueError(f"non-finite sample in values at {tuple(int(i) for i in bad[0])}")
    sigmas = [sweep_config(template, float(s)).sigma for s in sigmas]
    if len(sigmas) != u0.shape[0]:
        raise ValueError(f"need one sigma per row: {len(sigmas)} sigmas, {u0.shape[0]} rows")
    rows = max(1, _BLOCK_BYTES // (8 * u0.shape[1]))
    results = []
    for lo in range(0, len(sigmas), rows):
        results += _solve(u0[lo:lo + rows], sigmas[lo:lo + rows], template, h)
    return results


def denoise(series: VelocitySeries, config: SolverConfig) -> DenoiseResult:
    """Denoise one road-day under the fidelity constraint.

    Flat input returns immediately (nothing to do); sigma = 0 returns the
    input unchanged, since the constraint then forces u = u0.  Otherwise
    the multiplier/gradient/line-search loop runs until the sup-norm of
    the gradient falls below rel_tol relative to the initial TV, the line
    search stalls, or the iteration cap is reached.
    """
    return denoise_values(series.values, config, h=series.h)


def sweep_config(template: SolverConfig, sigma: float) -> SolverConfig:
    """The template config with its sigma replaced (grid sweeps)."""
    return replace(template, sigma=sigma)
