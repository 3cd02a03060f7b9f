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

at lambda_max = max_i |sum_{j <= i} (u0_j - mean(u0))|, where x is the
constant mean, so a solve is a 1-D root find over [0, lambda_max]:

* Prox.  x(lambda) comes from Condat's direct algorithm (L. Condat, "A
  direct algorithm for 1D total variation denoising", IEEE Signal
  Processing Letters 20(11), 2013): exact, in one pass over the series.
* Segment step.  x(lambda) is piecewise constant.  On a segment of
  length L whose jumps at its left and right ends have signs s_l and s_r
  (0 at the series' ends), x = mean(u0 over the segment) + lambda c with
  c = (s_r - s_l) / L.  While the segments stay the same, F is
  therefore (h/2)(A + B lambda^2), with A the sum of squares of u0
  about its segment means and B = sum L c^2, and the next weight solves
  it: lambda = sqrt((2 sigma^2 / h - A) / B).
* Bracket.  Each prox call narrows a bracket [lo, hi] around the root,
  which starts as [0, lambda_max].  A step that leaves the bracket, or
  cannot be taken (B = 0, or A already over budget), bisects it.

The first weight is the segment step of x(0+), whose segments are the
runs of equal values of u0.  A solve stops when |F - sigma^2| <=
rel_tol sigma^2 (``converged``), when the bracket cannot be split any
further in floating point, or after ``max_iters`` prox calls.  sigma = 0
returns u0, as the budget forces u = u0; sigma >= sigma_max returns the
constant mean, which has TV 0 and F = sigma_max^2, flagged
``saturated`` (flat input is returned as it is).  A non-finite
sigma_max^2 (squares of the input's spread that overflow) or prox
iterate raises FloatingPointError.

Every call solves one series at one sigma; a grid sweep is one
:func:`denoise_values` call per grid point, each with its config from
:func:`sweep_config`.

``epsilon`` does not enter the solve.  It is the smoothing of
:func:`smoothed_total_variation`, which replaces each |d| by
|d| - eps log(1 + |d|/eps), and of :func:`compute_gradient`, the
gradient of that smoothed objective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .series import VelocitySeries, total_variation, _as_float_vector


@dataclass(frozen=True)
class SolverConfig:
    """``max_iters`` caps the prox calls of one solve, ``rel_tol`` bounds
    |F - sigma^2| / sigma^2 for ``converged``; ``epsilon`` is not used
    by the solve (see the module docstring)."""

    sigma: float
    epsilon: float = 1e-6
    max_iters: int = 5000
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not (0.0 <= self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.sigma > 0 and self.sigma ** 2 < sys.float_info.min:
            # 2 sigma^2 / h would lose the budget to underflow
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
    distance from the fidelity budget, and ``converged`` means it is at
    most rel_tol sigma^2.  ``iterations`` counts prox calls and
    ``lambda_trace`` holds the weight of each.  ``saturated`` means
    sigma >= sigma_max, so the result is the constant mean.
    ``stalled`` is always False: the solve has no line search to stall.
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


def _tv_prox(y: list, lam: float) -> list:
    """argmin_x (1/2) sum (x_i - y_i)^2 + lam sum |x_{i+1} - x_i| for
    lam > 0, by Condat's direct algorithm.

    The current segment starts at k0 and has been read up to k; vmin and
    vmax bound its value, umin and umax are the matching dual values,
    and kminus (kplus) is the last position where vmin (vmax) moved.  A
    segment ends with a negative (positive) jump when no value in the
    bounds fits the next sample; it then ends at kminus (kplus), at
    least one sample past k0.
    """
    n = len(y)
    last = n - 1
    x = [0.0] * n
    k = k0 = kminus = kplus = 0
    mlam = -lam
    umin, umax = lam, mlam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == last:  # the right end: no jump after the last sample
            if umin < 0.0:  # vmin is too high: a negative jump
                end = kminus + 1 if kminus >= k0 else k0 + 1
                x[k0:end] = [vmin] * (end - k0)
                k = k0 = kminus = end
                vmin, umin = y[k], lam
                umax = vmin + lam - vmax
            elif umax > 0.0:  # vmax is too low: a positive jump
                end = kplus + 1 if kplus >= k0 else k0 + 1
                x[k0:end] = [vmax] * (end - k0)
                k = k0 = kplus = end
                vmax, umax = y[k], mlam
                umin = vmax - lam - vmin
            else:
                x[k0:] = [vmin + umin / (k - k0 + 1)] * (n - k0)
                return x
        y_next = y[k + 1]
        umin += y_next - vmin
        if umin < mlam:  # a negative jump
            end = kminus + 1 if kminus >= k0 else k0 + 1
            x[k0:end] = [vmin] * (end - k0)
            k = k0 = kminus = kplus = end
            vmin = y[k]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, mlam
            continue
        umax += y_next - vmax
        if umax > lam:  # a positive jump
            end = kplus + 1 if kplus >= k0 else k0 + 1
            x[k0:end] = [vmax] * (end - k0)
            k = k0 = kminus = kplus = end
            vmax = y[k]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, mlam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= mlam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = mlam


def _segment_step(u0: np.ndarray, x: np.ndarray, budget: float) -> float:
    """The weight at which the segments of x meet sum (x - u0)^2 = budget:
    sqrt((budget - A) / B), or NaN where B = 0 or A >= budget."""
    d = np.diff(x)
    jumps = np.flatnonzero(d)
    starts = np.concatenate(([0], jumps + 1))
    lengths = np.diff(np.append(starts, x.size))
    s = np.sign(d[jumps])
    c = (np.append(s, 0.0) - np.concatenate(([0.0], s))) / lengths
    means = np.add.reduceat(u0, starts) / lengths
    a = float(np.sum((u0 - np.repeat(means, lengths)) ** 2))
    b = float(np.sum(lengths * c * c))
    return math.sqrt((budget - a) / b) if b > 0.0 and budget > a else math.nan


def _result(u, u0, sigma, h, trace, config, saturated=False) -> DenoiseResult:
    residual = abs(0.5 * h * float(np.sum((u - u0) ** 2)) - sigma * sigma)
    if not math.isfinite(residual):
        raise FloatingPointError(f"non-finite iterate after {len(trace)} prox calls "
                                 f"(lambda {trace[-1]}): fidelity residual {residual}")
    return DenoiseResult(u, total_variation(u), len(trace), trace, residual,
                         residual <= config.rel_tol * sigma * sigma, saturated=saturated)


def _solve(u0: np.ndarray, config: SolverConfig, h: float) -> DenoiseResult:
    sigma = config.sigma
    if sigma == 0.0:
        return DenoiseResult(u0.copy(), total_variation(u0), 0, (), 0.0, True)
    dev = u0 - u0.mean()
    spread = 0.5 * h * float(np.sum(dev * dev))  # sigma_max^2
    if not math.isfinite(spread):
        raise FloatingPointError(f"non-finite fidelity: sigma_max^2 of the input is {spread}")
    if (u0 == u0[0]).all():  # flat, though its mean may round off u0
        return _result(u0.copy(), u0, sigma, h, [], config, saturated=True)
    if sigma * sigma >= spread:
        return _result(np.full(u0.size, u0.mean()), u0, sigma, h, [], config, saturated=True)

    budget = 2.0 * sigma * sigma / h
    tol = config.rel_tol * budget
    y = u0.tolist()
    lo, hi = 0.0, float(np.abs(np.cumsum(dev)[:-1]).max())
    lam = _segment_step(u0, u0, budget)
    x, trace = u0.copy(), []
    while len(trace) < config.max_iters:
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
            if not lo < lam < hi:  # the bracket is down to adjacent floats
                break
        x = np.array(_tv_prox(y, lam))
        trace.append(lam)
        gap = float(np.sum((x - u0) ** 2)) - budget
        if not math.isfinite(gap) or abs(gap) <= tol:
            break
        if gap < 0.0:
            lo = lam
        else:
            hi = lam
        lam = _segment_step(u0, x, budget)
    return _result(x, u0, sigma, h, trace, config)


def denoise_values(values, config: SolverConfig, h: float = 1.0) -> DenoiseResult:
    """Array entry point of the solver; see :func:`denoise`."""
    u0 = _as_float_vector(values, "values")
    if u0.size < 2:
        raise ValueError("need at least two samples")
    # Overflow shows as a non-finite fidelity or iterate, which raises.
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve(u0, config, h)


def denoise(series: VelocitySeries, config: SolverConfig) -> DenoiseResult:
    """Denoise one road-day under the fidelity constraint.

    sigma = 0 returns the input unchanged, since the constraint then
    forces u = u0; sigma >= sigma_max returns the constant mean under
    ``saturated``.  Otherwise the weight search runs until the fidelity
    term is within rel_tol sigma^2 of sigma^2, the bracket is exhausted,
    or max_iters prox calls are spent.
    """
    return denoise_values(series.values, config, h=series.h)


def sweep_config(template: SolverConfig, sigma: float) -> SolverConfig:
    """The template config with its sigma replaced (grid sweeps)."""
    return replace(template, sigma=sigma)
