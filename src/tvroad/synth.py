"""Synthetic velocity signals and the noise-estimator benchmark.

Four signal families: a sine wave and a hat function on [-1, 1] for
noise-estimator benchmarking, a two-level step for solver checks, and a
full synthetic road day (plateau schedule plus a diurnal swing plus
Gaussian noise) for end-to-end pipeline runs.  The benchmark table
reports, per (kind, N), the deterministic estimator bias on the clean
signal and the spread of estimated over realized noise energy across
seeded trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import estimate_sigma_multires, multires_bias
from .series import DEFAULT_SLICES, VelocitySeries

KINDS = ("sine", "hat", "step", "two_regime_day")

# Per-sample noise levels that land the benchmark signals in the same
# noise regime as the reference runs (signal-to-noise ratio near 3).
BENCH_NOISE = {"sine": 0.4941, "hat": 0.4127, "step": 3.0, "two_regime_day": 2.5}

STEP_LOW = 10.0
STEP_HIGH = 40.0

# Road schedule table: (base level, per-sample noise sd) plus a diurnal
# phase per road.  Plateau levels alternate between a low band
# {base, base+4} and a high band {base+8, base+12}.
ROAD_TABLE = ((8.0, 2.5), (10.0, 3.0), (4.0, 2.75), (6.0, 2.25), (12.0, 3.25), (0.6, 2.5))
ROAD_PHASES = (0.0, 1.1, 2.2, 3.3, 4.4, 5.5)
DIURNAL_AMP = 1.5
LEVEL_JITTER = 0.5
DURATION_JITTER = 3


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic series.

    N must be divisible by 4 so the multi-resolution estimator can
    coarsen the result twice.  noise_sigma is the per-sample standard
    deviation of the added Gaussian noise."""

    kind: str
    N: int
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.N < 8 or self.N % 4:
            raise ValueError(f"N must be >= 8 and divisible by 4, got {self.N}")
        if self.kind == "two_regime_day" and self.N != DEFAULT_SLICES:
            raise ValueError(f"two_regime_day must have N = {DEFAULT_SLICES}")
        if not (self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be >= 0")


def level_menu(base: float, n_levels: int = 4, step: float = 4.0) -> list[float]:
    """Plateau levels interleaved outside-in: lowest, highest, next, ...

    For four levels the visit order is base, base+3*step, base+step,
    base+2*step, so consecutive plateaus always switch band.
    """
    offsets = [k * step for k in range(n_levels)]
    order, i, j = [], 0, n_levels - 1
    while i <= j:
        order.append(offsets[i])
        i += 1
        if i <= j:
            order.append(offsets[j])
            j -= 1
    return [float(base + o) for o in order]


def _plateau_day(rng, levels, noise_sd, amp, phase):
    """One synthetic road day: plateaus + diurnal swing + noise.

    Durations split the day evenly with a small integer jitter, each
    plateau level gets its own jitter, and both the clean and the noisy
    series are clamped at zero like real velocities.
    """
    n_levels = len(levels)
    base = DEFAULT_SLICES // n_levels
    rem = DEFAULT_SLICES - base * n_levels
    durs = [
        base + (1 if i < rem else 0) + int(rng.integers(-DURATION_JITTER, DURATION_JITTER + 1))
        for i in range(n_levels)
    ]
    durs[-1] += DEFAULT_SLICES - sum(durs)
    lv = np.concatenate(
        [np.full(max(d, 4), level + rng.normal(0.0, LEVEL_JITTER)) for d, level in zip(durs, levels)]
    )
    steps = lv[:DEFAULT_SLICES]
    if steps.size < DEFAULT_SLICES:
        steps = np.concatenate([steps, np.full(DEFAULT_SLICES - steps.size, steps[-1])])
    t = np.arange(DEFAULT_SLICES)
    swing = amp * np.sin(2 * np.pi * t / DEFAULT_SLICES + phase)
    clean = np.maximum(steps + swing, 0.0)
    noisy = np.maximum(clean + rng.normal(0.0, noise_sd, DEFAULT_SLICES), 0.0)
    return clean, noisy


def realized_sigma(clean, noisy, h: float) -> float:
    """Noise strength of an actual draw: sqrt of half the h-weighted
    sum of squared deviations."""
    xi = np.asarray(noisy, dtype=float) - np.asarray(clean, dtype=float)
    return float(np.sqrt(0.5 * h * np.sum(xi**2)))


def generate(spec: SyntheticSpec):
    """Draw one (clean, noisy, realized noise strength) triple.

    sine and hat live on [-1, 1] sampled at the left endpoints
    x_i = -1 + (i-1) h with h = 2/N; step and two_regime_day live on the
    slice grid with h = 1.  Benchmark signals keep their sign, so the
    noisy sine goes negative; only the road day is clamped at zero.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind in ("sine", "hat"):
        h = 2.0 / spec.N
        x = -1.0 + np.arange(spec.N) * h
        clean = np.sin(np.pi * x) if spec.kind == "sine" else np.maximum(1.0 - np.abs(x), 0.0)
        noisy = clean + rng.normal(0.0, spec.noise_sigma, spec.N)
    elif spec.kind == "step":
        h = 1.0
        clean = np.where(np.arange(spec.N) < spec.N // 2, STEP_LOW, STEP_HIGH).astype(float)
        noisy = clean + rng.normal(0.0, spec.noise_sigma, spec.N)
    else:
        h = 1.0
        clean, noisy = _plateau_day(
            rng, level_menu(ROAD_TABLE[0][0]), spec.noise_sigma, DIURNAL_AMP, ROAD_PHASES[0]
        )
    name = f"synthetic-{spec.kind}"
    return (
        VelocitySeries(road_id=name, day=0, values=clean, h=h),
        VelocitySeries(road_id=name, day=0, values=noisy, h=h),
        realized_sigma(clean, noisy, h),
    )


def two_regime_corpus(n_roads: int = 6, n_days: int = 4, seed: int = 0, diurnal: bool = True):
    """Seeded corpus of synthetic road days, one RNG stream throughout.

    Returns a list of roads; each road is a list of (clean, noisy)
    VelocitySeries pairs for days 1..n_days.  All roads share one
    generator seeded once, so the corpus is a single reproducible draw.
    """
    if not (1 <= n_roads <= len(ROAD_TABLE)):
        raise ValueError(f"n_roads must lie in 1..{len(ROAD_TABLE)}")
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    amp = DIURNAL_AMP if diurnal else 0.0
    corpus = []
    for r in range(n_roads):
        base, noise_sd = ROAD_TABLE[r]
        levels = level_menu(base)
        phase = ROAD_PHASES[r]
        road_id = f"road-{r + 1}"
        days = []
        for day in range(1, n_days + 1):
            clean, noisy = _plateau_day(rng, levels, noise_sd, amp, phase)
            days.append(
                (
                    VelocitySeries(road_id=road_id, day=day, values=clean, h=1.0),
                    VelocitySeries(road_id=road_id, day=day, values=noisy, h=1.0),
                )
            )
        corpus.append(days)
    return corpus


def _trial_seeds(base_seed: int, kind: str, n: int, trials: int) -> list[int]:
    """Independent per-trial seeds, reproducible from the base seed."""
    ss = np.random.SeedSequence((base_seed, KINDS.index(kind), n))
    return [int(s) for s in ss.generate_state(trials)]


def run_table1(
    trials: int,
    kinds=("sine", "hat"),
    n_list=(288, 144, 72),
    base_seed: int = 0,
):
    """Benchmark the multi-resolution noise estimator per (kind, N).

    Each row carries the deterministic clean-signal bias and the mean
    and standard deviation of (estimated / realized)^2 - 1 over seeded
    trials.  Returns a list of row dicts; see table1_csv for the flat
    emission.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for kind in kinds:
        for n in n_list:
            s = BENCH_NOISE[kind]
            clean, _, _ = generate(SyntheticSpec(kind=kind, N=n, noise_sigma=0.0, seed=0))
            bias = multires_bias(clean.values, h=clean.h)
            ratios = []
            for trial_seed in _trial_seeds(base_seed, kind, n, trials):
                spec = SyntheticSpec(kind=kind, N=n, noise_sigma=s, seed=trial_seed)
                _, noisy, sigma_d = generate(spec)
                est = estimate_sigma_multires(noisy.values, h=noisy.h)
                ratios.append(est**2 / sigma_d**2 - 1.0)
            rows.append(
                {
                    "kind": kind,
                    "N": n,
                    "bias": bias,
                    "mean_ratio": float(np.mean(ratios)),
                    "std_ratio": float(np.std(ratios)),
                    "trials": trials,
                }
            )
    return rows


def table1_csv(rows) -> str:
    """Flatten benchmark rows to CSV text (stable column order)."""
    lines = ["kind,N,bias,mean_ratio,std_ratio,trials"]
    for r in rows:
        lines.append(
            f"{r['kind']},{r['N']},{r['bias']!r},{r['mean_ratio']!r},{r['std_ratio']!r},{r['trials']}"
        )
    return "\n".join(lines) + "\n"
