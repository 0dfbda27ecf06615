"""Numerical CDFs built on single-integral coefficient extraction.

Evaluates the distribution function of a sum of independent gamma
variables with arbitrary positive shapes and scales, the CDF of a
positive definite Gaussian quadratic form, and the joint CDF of a
small-dimension multivariate gamma distribution. Series and Monte
Carlo oracles and a batch-capable CLI are included; see README.md.
"""

from .core import (
    CdfEstimate,
    DerivedParams,
    GammaSumParams,
    QuadratureConfig,
    cdf,
    derive_params,
    quantile,
)
from .errors import (
    BranchTrackingError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GammaSumError,
    NotPositiveDefiniteError,
    PrecisionError,
)
from .genfun import GfunResult, g_series
from .mvgamma import (
    MvDerived,
    MvGammaParams,
    existence_caveat,
    mv_cdf,
    mv_derive,
)
from .oracles import (
    McResult,
    SeriesResult,
    mc_cdf,
    mc_mvgamma,
    mc_qform,
    series_cdf,
    series_coefficients,
)
from .qform import SymMatrix, qform_cdf, qform_eigenvalues
from .special import gamma_pdf, reg_lower_gamma

__version__ = "0.1.0"

__all__ = [
    "BranchTrackingError",
    "CdfEstimate",
    "ConfigError",
    "ConvergenceError",
    "DerivedParams",
    "DomainError",
    "GammaSumError",
    "GammaSumParams",
    "GfunResult",
    "McResult",
    "MvDerived",
    "MvGammaParams",
    "NotPositiveDefiniteError",
    "PrecisionError",
    "QuadratureConfig",
    "SeriesResult",
    "SymMatrix",
    "cdf",
    "derive_params",
    "existence_caveat",
    "g_series",
    "gamma_pdf",
    "mc_cdf",
    "mc_mvgamma",
    "mc_qform",
    "mv_cdf",
    "mv_derive",
    "quantile",
    "qform_cdf",
    "qform_eigenvalues",
    "reg_lower_gamma",
    "series_cdf",
    "series_coefficients",
    "__version__",
]
