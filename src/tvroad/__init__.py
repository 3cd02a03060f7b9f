"""Traffic-velocity denoising, noise estimation, clustering, prediction.

The library denoises one-day velocity series by bounded-total-variation
minimization, estimates how strong the noise is (a multi-resolution
variance estimator plus a TV-balance scan, combined through a lower
bound on credible total variation), clusters road-day profiles by
density peaks with a 2-D scaling embedding, and predicts near-future
velocities by history matching with causal denoising of the live day.

The package exports the names of the README's quick start; everything
else is imported from its module, ``tvroad.<module>``.  ``tvroad.cluster``
on the package is the :func:`~tvroad.cluster.cluster` function, so the
module is reached as ``from tvroad.cluster import ...`` or through
``importlib.import_module("tvroad.cluster")``.
"""

from .cluster import cluster
from .forecast import build_history, compare_pipelines, predict
from .noise import estimate_sigma
from .series import VelocitySeries
from .solver import SolverConfig, denoise

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "VelocitySeries",
    "build_history",
    "cluster",
    "compare_pipelines",
    "denoise",
    "estimate_sigma",
    "predict",
    "__version__",
]
