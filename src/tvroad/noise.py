"""Noise-strength estimation for velocity series.

Two estimators and a combination rule:

* Method 1 (multi-resolution): closed-form estimate from the squared
  successive-difference sums V1, V2, V3 of the series at resolutions N,
  N/2, N/4.  Differencing kills the smooth part of the signal at a rate
  that depends on the resolution while the noise contributes at a known
  rate, so a fixed linear combination of the three sums isolates the
  noise power up to a bias driven by the clean signal's own variation.

* Method 2 (TV balance): sweep the denoiser over a sigma grid, track the
  increments of TV(sigma) * sigma^2, and take the first local minimum of
  that increment sequence.  Oversmoothing makes TV collapse while
  sigma^2 keeps growing; the first stall of the product marks the
  balance point.

* Combination: take the smaller of the two, but never let the implied
  denoised TV fall below TV_l = (5/2)(v_max - v_min): the sweep's walk
  reports sigma_floor, a sigma whose solve keeps TV_l, and the rule takes
  it when the smaller estimate is above it.  A series flatter than that
  bound gets sigma 0 (no denoising).

The sigma convention throughout is the constraint form
sigma^2 = (1/2) h sum residual^2, i.e. velocity times sqrt(minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .series import VelocitySeries, pair_average, _as_float_vector, _check_h
from .solver import SolverConfig, _sweep, denoise_values  # noqa: F401 (a traced name)

# Grid used by the balance sweep unless the caller says otherwise:
# 0 and 1, then every 5 up to 50.
DEFAULT_SIGMA_GRID = (0.0, 1.0) + tuple(float(s) for s in range(5, 55, 5))

# Solver profile of the balance sweep and the pipeline: the default
# step cap and convergence threshold.
SWEEP_SOLVER = SolverConfig(sigma=0.0)

FLAG_NO_NOISE = "no-noise"
FLAG_TV_BELOW_LOWER_BOUND = "tv-below-lower-bound"


@dataclass(frozen=True)
class MultiresVariations:
    """Squared-difference sums at the three resolutions, each divided by
    the effective slice length 2^j h."""

    v1: float
    v2: float
    v3: float


@dataclass(frozen=True)
class SigmaEstimate:
    """Combined noise estimate with the curves that produced it.

    tv_curve holds (sigma, TV) pairs over the sweep grid; delta_curve
    holds (sigma_k^2, delta_k) pairs where delta_k is the increment of
    TV * sigma^2 between consecutive grid points.  grid_converged holds
    the ``converged`` flag of each grid point's solve: False where the
    walk hit max_iters, or where sigma is beyond sigma_max and the
    constant mean falls short of the budget.  A solve at sigma_floor
    keeps TV >= tv_lower; so do solves below it, and those beyond it do
    not, outside a band of rounding around it.  sigma_floor is 0 if
    TV(input) < tv_lower, inf for constant input, and the largest sigma
    below sigma_max when max_iters stops the walk above the floor.
    sigma_best is min(sigma1, sigma2, sigma_floor).
    """

    sigma1: float
    sigma2: float
    sigma_best: float
    tv_curve: tuple[tuple[float, float], ...]
    delta_curve: tuple[tuple[float, float], ...]
    tv_lower: float
    flags: tuple[str, ...] = ()
    grid_converged: tuple[bool, ...] = ()
    sigma_floor: float = np.inf


def _values_and_h(series, h):
    if isinstance(series, VelocitySeries):
        return series.values, series.h
    if h is None:
        raise ValueError("h is required when passing a bare array")
    return _as_float_vector(series, "series"), _check_h(h)


def _check_resolution(n: int):
    if n % 4:
        raise ValueError(f"length {n} not divisible by 4")
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")


def multires_variations(series, h: float | None = None) -> MultiresVariations:
    """V_{j+1} = sum |v^j_{i+1} - v^j_i|^2 / (2^j h) for j = 0, 1, 2."""
    v, h = _values_and_h(series, h)
    _check_resolution(v.size)
    out = []
    cur = v
    with np.errstate(over="ignore"):  # squares that overflow sum to inf, which the solve rejects
        for j in range(3):
            out.append(float(np.sum(np.diff(cur) ** 2)) / (2 ** j * h))
            if j < 2:
                cur = pair_average(cur)
    return MultiresVariations(*out)


def _estimator_coefficients(n: int) -> tuple[float, float, float, float]:
    a1 = 119 / 16 - 27 / (4 * n)
    a2 = 9 / (4 * n) - 49 / 16
    a3 = 9 / (2 * n) - 35 / 8
    den = 3577 / 128 + 189 / (8 * n * n) - 819 / (16 * n)
    return a1, a2, a3, den


def estimate_sigma_multires(series, h: float | None = None) -> float:
    """Method 1: closed-form noise strength from the three variations.

    The squared estimate can come out negative on nearly clean input;
    it is clamped to zero before the square root.
    """
    v, h = _values_and_h(series, h)
    var = multires_variations(v, h)
    a1, a2, a3, den = _estimator_coefficients(v.size)
    s2 = h * h * (a1 * var.v1 + a2 * var.v2 + a3 * var.v3) / den
    return float(np.sqrt(max(s2, 0.0)))


def multires_bias(clean, h: float | None = None) -> float:
    """Expected excess of the Method-1 squared estimate on a clean signal.

    Computed from the clean variations V1c, V2c, V3c:

        Bias = h^2 [ (49/16 - 9/4N)(V1c - V2c)
                   + (35/8 - 9/2N)(V1c - V3c) ] / D,

    with D the estimator denominator.  Zero for constant input.
    """
    v, h = _values_and_h(clean, h)
    var = multires_variations(v, h)
    n = v.size
    _, _, _, den = _estimator_coefficients(n)
    num = (49 / 16 - 9 / (4 * n)) * (var.v1 - var.v2) + (35 / 8 - 9 / (2 * n)) * (
        var.v1 - var.v3
    )
    return h * h * num / den


def _validate_grid(sigma_grid) -> np.ndarray:
    grid = np.asarray(sigma_grid, dtype=float)
    if grid.size < 3:
        raise ValueError("sigma grid needs at least 3 values")
    if not np.isfinite(grid).all():
        raise ValueError("sigma grid points must be finite")
    if grid[0] != 0.0:
        raise ValueError("sigma grid must start at 0")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("sigma grid must be strictly increasing")
    return grid


def _tv_lower(v: np.ndarray) -> float:
    """The combination rule's floor TV_l = (5/2)(v_max - v_min)."""
    return 2.5 * (float(v.max()) - float(v.min()))


def _first_local_minimum(grid: np.ndarray, deltas: np.ndarray) -> float:
    # deltas[i] is the increment into grid point i+1; the first grid
    # point with an increment (index 1) has no left neighbour and is
    # never eligible, the last one only if the sequence decreases into
    # it and nothing interior fired.
    m = deltas.size
    for i in range(1, m - 1):
        if deltas[i] <= deltas[i - 1] and deltas[i] <= deltas[i + 1]:
            return float(grid[i + 1])
    if m >= 2 and deltas[m - 1] <= deltas[m - 2]:
        return float(grid[m])
    return float(grid[int(np.argmin(deltas)) + 1])


def _balance(v: np.ndarray, h: float, sigma_grid, solver: SolverConfig, tv_floor: float = 0.0):
    """(grid, solves, increments of TV * sigma^2, sigma2, sigma_floor) of one grid sweep.

    One path walk solves the grid points below sigma_max, each as a solve
    at that sigma alone would give, and finds sigma_floor, a sigma just
    short of where the solve's TV falls below ``tv_floor`` (inf for 0);
    the sigma = 0 solve returns the input.  sigma2 is the first local
    minimum of the increments, or None for constant input, which has no
    noise to balance.
    """
    grid = _validate_grid(sigma_grid)
    solves, sigma_floor = _sweep(v, [replace(solver, sigma=float(s)) for s in grid], h=h,
                                 tv_floor=tv_floor)
    tvs = np.array([r.final_tv for r in solves])
    deltas = np.diff(tvs * grid ** 2)
    sigma2 = _first_local_minimum(grid, deltas) if tvs.any() else None
    return grid, solves, deltas, sigma2, sigma_floor


def estimate_sigma_balance(series, sigma_grid, solver: SolverConfig, h: float | None = None) -> float:
    """Method 2: first local minimum of the TV * sigma^2 increments.

    Solves the grid points below sigma_max in one path walk.  Constant
    input (an all-zero TV curve) has no noise to balance and returns 0.
    """
    v, h = _values_and_h(series, h)
    sigma2 = _balance(v, h, sigma_grid, solver)[3]
    return 0.0 if sigma2 is None else sigma2


def combine_estimates(sigma1: float, sigma2: float, sigma_floor: float) -> float:
    """Pick min(sigma1, sigma2) unless that oversmooths.

    The guard is TV_l = (5/2)(v_max - v_min): sigma_floor (see
    :class:`SigmaEstimate`) is a sigma whose solve keeps TV >= TV_l, so
    the rule is min(sigma1, sigma2, sigma_floor), 0 if the input's own TV
    is below TV_l.
    """
    # SolverConfig checks the candidate as a solve at it would, so a
    # candidate whose square underflows fails its road-day alone
    return min(SolverConfig(sigma=min(sigma1, sigma2)).sigma, sigma_floor)


def estimate_sigma(
    series,
    sigma_grid=DEFAULT_SIGMA_GRID,
    solver: SolverConfig = SWEEP_SOLVER,
    h: float | None = None,
) -> SigmaEstimate:
    """Run both methods and the combination on one series.

    One path walk serves Method 2 and the combination rule: it solves
    the grid points below sigma_max and finds sigma_floor, which the rule
    takes with no further solve.
    """
    v, h = _values_and_h(series, h)
    sigma1 = estimate_sigma_multires(v, h)
    tv_lower = _tv_lower(v)
    grid, solves, deltas, sigma2, sigma_floor = _balance(v, h, sigma_grid, solver, tv_lower)
    tv_curve = tuple((float(s), float(r.final_tv)) for s, r in zip(grid, solves))
    delta_curve = tuple(
        (float(s * s), float(d)) for s, d in zip(grid[1:], deltas)
    )

    flags = [FLAG_NO_NOISE] if sigma2 is None else []  # constant input, whose sigma1 is 0
    sigma2 = 0.0 if sigma2 is None else sigma2
    best = combine_estimates(sigma1, sigma2, sigma_floor)
    if best == 0.0 and min(sigma1, sigma2) > 0.0:
        flags.append(FLAG_TV_BELOW_LOWER_BOUND)
    return SigmaEstimate(
        sigma1=float(sigma1),
        sigma2=float(sigma2),
        sigma_best=float(best),
        tv_curve=tv_curve,
        delta_curve=delta_curve,
        tv_lower=float(tv_lower),
        flags=tuple(flags),
        grid_converged=tuple(r.converged for r in solves),
        sigma_floor=float(sigma_floor),
    )
