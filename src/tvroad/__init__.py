"""Traffic-velocity denoising, noise estimation, clustering, prediction.

The library denoises one-day velocity series by bounded-total-variation
minimization, estimates how strong the noise is (a multi-resolution
variance estimator plus a TV-balance scan, combined through a lower
bound on credible total variation), clusters road-day profiles by
density peaks with a 2-D scaling embedding, and predicts near-future
velocities by history matching with causal denoising of the live day.
"""

from .cluster import (
    ClusterResult,
    DistanceMatrix,
    assign,
    cluster,
    embed_2d,
    halo_split,
    local_density,
    pairwise_distances,
    select_centers,
    separation,
)
from .forecast import (
    BoundaryModel,
    HistorySet,
    PipelineComparison,
    PredictionReport,
    boundary_forecast,
    build_history,
    causal_denoise_window,
    compare_pipelines,
    fit_boundary,
    mape,
    predict,
    rmae,
)
from .noise import (
    DEFAULT_SIGMA_GRID,
    MultiresVariations,
    SigmaEstimate,
    combine_estimates,
    estimate_sigma,
    estimate_sigma_balance,
    estimate_sigma_multires,
    multires_bias,
    multires_variations,
)
from .series import (
    CoarseSeries,
    VelocitySeries,
    coarsen,
    nearest_interpolate,
    pair_average,
    total_variation,
)
from .solver import (
    DenoiseResult,
    SolverConfig,
    compute_gradient,
    denoise,
    denoise_values,
    smoothed_total_variation,
    sweep_config,
)
from .synth import SyntheticSpec, generate, run_table1, two_regime_corpus

__version__ = "0.1.0"

__all__ = [
    "BoundaryModel",
    "ClusterResult",
    "CoarseSeries",
    "DEFAULT_SIGMA_GRID",
    "DenoiseResult",
    "DistanceMatrix",
    "HistorySet",
    "MultiresVariations",
    "PipelineComparison",
    "PredictionReport",
    "SigmaEstimate",
    "SolverConfig",
    "SyntheticSpec",
    "VelocitySeries",
    "assign",
    "boundary_forecast",
    "build_history",
    "causal_denoise_window",
    "cluster",
    "coarsen",
    "combine_estimates",
    "compare_pipelines",
    "compute_gradient",
    "denoise",
    "denoise_values",
    "embed_2d",
    "estimate_sigma",
    "estimate_sigma_balance",
    "estimate_sigma_multires",
    "fit_boundary",
    "generate",
    "halo_split",
    "local_density",
    "mape",
    "multires_bias",
    "multires_variations",
    "nearest_interpolate",
    "pair_average",
    "pairwise_distances",
    "predict",
    "rmae",
    "run_table1",
    "select_centers",
    "separation",
    "smoothed_total_variation",
    "sweep_config",
    "total_variation",
    "two_regime_corpus",
    "__version__",
]
