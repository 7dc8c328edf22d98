"""Monte Carlo toolkit for gaussian and bootstrap approximation of
high-dimensional normalized sums over rectangles, polytopes and sparsely
convex sets, with reproducible counter-based parallel replication."""

from .datagen import (
    CovarianceModel,
    Dataset,
    DesignSpec,
    population_moments,
    sample_dataset,
)
from .geometry import (
    Hyperrectangle,
    Polytope,
    SetFamily,
    SparseBall,
    SparseConvexSet,
    SparseHalfspace,
    sample_rectangles,
)
from .montecarlo import (
    bootstrap_gap,
    estimate_prob,
    gaussian_approx_gap,
    interpolation_gap,
    noise_floor,
)
from .sums import CovMatrix, robust_cholesky

__version__ = "0.1.0"

__all__ = [
    "CovarianceModel", "Dataset", "DesignSpec", "population_moments",
    "sample_dataset",
    "Hyperrectangle", "Polytope", "SetFamily", "SparseBall",
    "SparseConvexSet", "SparseHalfspace", "sample_rectangles",
    "bootstrap_gap", "estimate_prob", "gaussian_approx_gap",
    "interpolation_gap", "noise_floor",
    "CovMatrix", "robust_cholesky",
    "__version__",
]
