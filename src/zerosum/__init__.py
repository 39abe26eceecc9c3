"""Online learning in zero-sum matrix games: learners, regret metrics,
equilibrium solving, and deterministic experiment harnesses."""

__version__ = "0.1.0"

from .core import MatrixGame, Trace, kl_divergence, l_norm, uniform
from .regularizers import (
    ENTROPY,
    SQUARED_L2,
    Regularizer,
    bregman,
    bregman_prox,
    project_to_simplex,
    regularized_argmin,
)
from .nash import NashSolution, amwu_update_map, solve_zero_sum, spectral_radius_at_ne

__all__ = [
    "MatrixGame",
    "Trace",
    "kl_divergence",
    "l_norm",
    "uniform",
    "ENTROPY",
    "SQUARED_L2",
    "Regularizer",
    "bregman",
    "bregman_prox",
    "project_to_simplex",
    "regularized_argmin",
    "NashSolution",
    "amwu_update_map",
    "solve_zero_sum",
    "spectral_radius_at_ne",
    "__version__",
]
