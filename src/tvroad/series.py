"""Velocity time-series containers, total variation and interpolation.

A road-day is a vector of velocity samples on a uniform grid of N time
slices, each h minutes long (288 slices of 5 minutes by default).  The
helpers here are deliberately small: everything downstream (the solver,
the noise estimators, the prediction pipeline) works on these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

DEFAULT_SLICES = 288
DEFAULT_SLICE_MINUTES = 5.0

DayId = Union[int, str]


def _as_float_vector(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"non-finite sample in {name} at index {int(bad[0])}")
    return v


def _check_h(h) -> float:
    """The slice duration h as a float; it must be finite and positive."""
    if not (0.0 < h < np.inf):
        raise ValueError(f"slice duration must be finite and positive, got {h!r}")
    return float(h)


@dataclass(frozen=True, eq=False)
class VelocitySeries:
    """One road-day of velocities on a uniform time grid.

    ``values[i]`` is the velocity of slice i+1 (slices are 1-based in the
    ingestion schema), each slice ``h`` minutes long.  ``observed_mask``
    is True where a raw record existed; False marks interpolated slices.

    Road feeds are nonnegative by contract and the CSV ingester enforces
    that; the container itself only requires finite values, because the
    synthetic benchmark signals (sine and hat test functions, noisy
    drafts of them) legitimately go negative.
    """

    road_id: str
    day: DayId
    values: np.ndarray
    h: float = DEFAULT_SLICE_MINUTES
    observed_mask: np.ndarray = None

    def __post_init__(self):
        v = _as_float_vector(self.values, "values")
        if v.size < 2:
            raise ValueError("a series needs at least two samples")
        _check_h(self.h)
        mask = self.observed_mask
        if mask is None:
            mask = np.ones(v.size, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != v.shape:
                raise ValueError("observed_mask length must match values")
        v.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "observed_mask", mask)

    @property
    def n_slices(self) -> int:
        return self.values.size


def total_variation(values) -> float:
    """Sum of absolute successive differences; 0 for a single sample."""
    v = _as_float_vector(values, "values")
    if v.size < 1:
        raise ValueError("empty input")
    if v.size == 1:
        return 0.0
    return float(np.abs(np.diff(v)).sum())


def pair_average(values: np.ndarray) -> np.ndarray:
    """One dyadic averaging pass: out[i] = (in[2i] + in[2i+1]) / 2."""
    v = np.asarray(values, dtype=float)
    if v.size % 2:
        raise ValueError(f"length {v.size} is not divisible by 2")
    return 0.5 * (v[0::2] + v[1::2])


def _fill_nearest(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Rows of ``values`` (R, n) with every slice that ``observed`` (R, n)
    marks False copied from the nearest observed slice of its row, the
    earlier one on a tie.  Every row needs one observed slice; the values
    of the other slices are never read."""
    rows, n = observed.shape
    grid = np.arange(n)
    left = np.maximum.accumulate(np.where(observed, grid, -1), axis=1)
    right = np.minimum.accumulate(np.where(observed, grid, n)[:, ::-1], axis=1)[:, ::-1]
    # no observed slice on one side: take the other, whose distance is finite
    pick = np.where((left >= 0) & ((right == n) | (grid - left <= right - grid)), left, right)
    return values[np.arange(rows)[:, None], pick]


def nearest_interpolate(
    records: Iterable[tuple[int, float]],
    n_slices: int,
    *,
    road_id: str = "",
    day: DayId = 0,
    h: float = DEFAULT_SLICE_MINUTES,
) -> VelocitySeries:
    """Fill a sparse road-day by nearest-neighbour interpolation in time.

    ``records`` holds (slice, velocity) pairs with 1-based slice indices.
    Every missing slice copies the value of the nearest observed slice;
    an exact tie between the left and right neighbour resolves to the
    earlier one.  The returned mask is True exactly on observed slices.
    Records may come in any order.
    """
    recs = sorted(records)
    if not recs:
        raise ValueError("no observed records to interpolate from")
    idx = np.array([r[0] for r in recs], dtype=int)
    vals = _as_float_vector([r[1] for r in recs], "records")
    if idx.min() < 1 or idx.max() > n_slices:
        raise ValueError(f"slice index out of range 1..{n_slices}")
    if np.unique(idx).size != idx.size:
        raise ValueError("duplicate slice index in records")

    full = np.zeros((1, n_slices))
    mask = np.zeros((1, n_slices), dtype=bool)
    full[0, idx - 1] = vals
    mask[0, idx - 1] = True
    return VelocitySeries(road_id=road_id, day=day, values=_fill_nearest(full, mask)[0], h=h,
                          observed_mask=mask[0])
