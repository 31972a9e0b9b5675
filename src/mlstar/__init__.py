"""Normalized Mittag-Leffler functions, their integral operators, and
sampled certificates for predicted orders of starlikeness and convexity."""

__version__ = "0.1.0"

from .errors import (
    DegenerateOperatorError,
    DomainError,
    JobFileError,
    MLStarError,
    NearZeroDenominatorError,
    SeriesTruncationError,
)
from .numerics import principal_power
from .mittag_leffler import (
    MLParams,
    SeriesResult,
    log_deriv,
    ml_norm,
    ml_norm_deriv,
    ml_raw,
)
from .operators import (
    EvalPoint,
    FactorSpec,
    OperatorSpec,
    convex_log_deriv,
    f_conv_value,
    f_value,
    f_zeta_power,
    star_log_deriv,
)
from .orders import (
    GOLDEN_RATIO,
    ConvexOrderReport,
    StarlikeOrderReport,
    convex_delta,
    log_deriv_bound,
    phi,
    psi,
    starlike_delta,
)
from .certify import (
    Certificate,
    FailedPoint,
    GridSpec,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
)

__all__ = [
    "__version__",
    "Certificate",
    "ConvexOrderReport",
    "DegenerateOperatorError",
    "DomainError",
    "EvalPoint",
    "FactorSpec",
    "FailedPoint",
    "GOLDEN_RATIO",
    "GridSpec",
    "JobFileError",
    "MLParams",
    "MLStarError",
    "NearZeroDenominatorError",
    "OperatorSpec",
    "SeriesResult",
    "SeriesTruncationError",
    "StarlikeOrderReport",
    "certify_convex",
    "certify_ml_starlike",
    "certify_starlike",
    "check_log_deriv_bound",
    "convex_delta",
    "convex_log_deriv",
    "f_conv_value",
    "f_value",
    "f_zeta_power",
    "log_deriv_bound",
    "log_deriv",
    "ml_norm",
    "ml_norm_deriv",
    "ml_raw",
    "phi",
    "principal_power",
    "psi",
    "starlike_delta",
    "star_log_deriv",
]
