"""Scalar separability criteria built from positive-map CP decompositions."""

from .criteria import (
    CriterionResult,
    Kind,
    alpha_beta_inequality,
    entropic_inequality,
    limit_witness,
    ppt_check,
    structural_criterion,
)
from .maps import (
    CPDecomposition,
    MatrixMap,
    extend_apply,
    is_cp,
    is_positive_sampled,
    make_decomposition,
    theta_positivity,
)
from .states import (
    DensityMatrix,
    horodecki_state,
    random_density,
    random_separable,
    so3_projectors,
    so3_state,
)

__all__ = [
    "CriterionResult",
    "Kind",
    "alpha_beta_inequality",
    "entropic_inequality",
    "limit_witness",
    "ppt_check",
    "structural_criterion",
    "CPDecomposition",
    "MatrixMap",
    "extend_apply",
    "is_cp",
    "is_positive_sampled",
    "make_decomposition",
    "theta_positivity",
    "DensityMatrix",
    "horodecki_state",
    "random_density",
    "random_separable",
    "so3_projectors",
    "so3_state",
]

__version__ = "0.1.0"
