"""Two-parameter Mittag-Leffler series on the closed unit disk.

Provides the raw series E(z) = sum z^n / Gamma(alpha*n + beta), its
normalization Gamma(beta) * z * E(z) (which fixes value 0 and derivative 1
at the origin), the derivative of the normalization, the logarithmic
derivative z*E'/E, and the hyperbolic closed forms available at alpha = 2,
beta in {1, 2, 3, 4}, which serve as independent oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .defaults import DENOM_GUARD, NEAR_ORIGIN, SERIES_TERM_CAP, SERIES_TOL
from .errors import DomainError, NearZeroDenominatorError, SeriesTruncationError
from .numerics import gamma_ratio

__all__ = [
    "MLParams",
    "SeriesResult",
    "ml_raw",
    "ml_norm",
    "ml_norm_deriv",
    "log_deriv",
    "closed_form",
    "CLOSED_FORM_KINDS",
]


@dataclass(frozen=True)
class MLParams:
    """One (alpha, beta) pair for a normalized Mittag-Leffler factor.

    alpha >= 1 and beta > 0, both finite; these are the hypotheses under
    which every order result in this package applies, and they also make
    all series coefficients positive. Below about 5.6e-309, Gamma(beta),
    which is about 1/beta there, overflows, and so does the coefficient
    c_2 ~ 1/(beta Gamma(alpha)); such beta are refused too.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not 1.0 <= self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and >= 1, got {self.alpha!r}")
        if not (0.0 < self.beta < math.inf and math.isfinite(1.0 / self.beta)):
            raise DomainError(f"beta must be finite and > 0 with 1/beta finite, got {self.beta!r}")


@dataclass(frozen=True)
class SeriesResult:
    """Series value plus the number of terms used and a proven tail bound."""

    value: complex
    terms_used: int
    tail_bound: float


def _check_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"|z| must be <= 1, got |z| = {abs(z)!r}")
    return z


# --- the series engine ------------------------------------------------------
#
# Every function of this module sums the one series
#
#     u(z) = Gamma(beta) E(z) = sum_{n>=1} c_n z^(n-1),
#     c_n = Gamma(beta) / Gamma(alpha (n-1) + beta),
#
# whose product z u(z) is the normalized function, from one cached table
# of c_n per (alpha, beta, tol). Each evaluation cuts the table for the
# largest |z| it is given and runs Horner on whole ndarrays; the scalar
# functions are 1-element calls.


@lru_cache(maxsize=256)
def _coefficients(alpha: float, beta: float, tol: float) -> tuple:
    """The table (c_1, c_2, ...) of normalized coefficients, c_1 = 1.

    It stops one coefficient past the cut for the unit circle, so the cut
    for every radius <= 1 lies inside it, or after SERIES_TERM_CAP terms.
    """
    coeffs = [1.0]
    for n in range(1, SERIES_TERM_CAP + 1):
        coeffs.append(gamma_ratio(beta, alpha * n))
        if _tail(coeffs, n, 1.0) <= tol:
            break
    return tuple(coeffs)


def _tail(coeffs, n: int, radius: float) -> float:
    """Bound on sum_{k>n} k c_k r^(k-1), the derivative terms a cut after c_n drops.

    The ratio of consecutive derivative terms decreases with k (digamma is
    increasing), so once it is at most 1/2 the dropped terms are dominated
    by a geometric series; before that the bound is inf. The derivative
    terms dominate the value terms, so the bound covers both.
    """
    c_n, c_next = coeffs[n - 1], coeffs[n]
    ratio = radius * ((n + 1) / n) * (c_next / c_n) if c_n > 0.0 else 0.0
    if ratio > 0.5:
        return math.inf
    return n * c_n * radius ** (n - 1) * ratio / (1.0 - ratio)


def _cut(params: MLParams, z: np.ndarray, tol: float):
    """(c_1, ..., c_N) for the points z and the tail bound of that cut.

    N is the first count whose tail bound at max|z| is below tol; the tail
    is inf when no count up to SERIES_TERM_CAP gets there.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    radius = min(float(np.max(np.abs(z))), 1.0) if z.size else 0.0
    coeffs = _coefficients(params.alpha, params.beta, tol)
    for n in range(1, min(SERIES_TERM_CAP, len(coeffs) - 1) + 1):
        tail = _tail(coeffs, n, radius)
        if tail <= tol:
            return coeffs[:n], tail
    return coeffs[:SERIES_TERM_CAP], math.inf


def _checked_cut(params: MLParams, z: np.ndarray, tol: float) -> tuple:
    coeffs, tail = _cut(params, z, tol)
    if tail == math.inf:
        raise SeriesTruncationError(
            f"series tolerance {tol:g} unreachable within {SERIES_TERM_CAP} terms"
        )
    return coeffs


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _ml_ratio_values(params: MLParams, z, tol: float = SERIES_TOL) -> np.ndarray:
    """u(z) = Gamma(beta) E(z) on an ndarray: 1 at the origin.

    Evaluating the ratio of the normalized value to z keeps it exact down
    to arbitrarily small |z|, where the normalized value itself underflows.
    """
    z = np.asarray(z, dtype=complex)
    return _horner(_checked_cut(params, z, tol), z)


def _log_deriv_deviation(params: MLParams, z, tol: float = SERIES_TOL):
    """z E'/E - 1 on an ndarray; returns (deviation, bad) with zero hits flagged.

    The deviation is sum (n-1) c_n z^(n-1) / sum c_n z^(n-1): no 1 is ever
    subtracted, so it keeps its relative accuracy however small it is, and
    the origin needs no special casing.
    """
    z = np.asarray(z, dtype=complex)
    coeffs = _checked_cut(params, z, tol)
    u = _horner(coeffs, z)
    w = _horner(tuple(k * c for k, c in enumerate(coeffs)), z)
    bad = np.abs(u) < DENOM_GUARD
    return w / np.where(bad, 1.0, u), bad


def _point_result(value, coeffs, tail: float, tol: float) -> SeriesResult:
    result = SeriesResult(complex(value), len(coeffs), float(tail))
    if tail == math.inf:
        raise SeriesTruncationError(
            f"series tolerance {tol:g} unreachable within {SERIES_TERM_CAP} terms",
            partial=result,
        )
    return result


def ml_raw(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> SeriesResult:
    """Sum the series z^n / Gamma(alpha*n + beta) for |z| <= 1.

    This is u(z) / Gamma(beta); past beta = 171.6 the factor 1/Gamma(beta)
    is below the double range and the value is 0.
    """
    z = np.array([_check_disk(z)])
    try:
        gamma_beta = math.gamma(params.beta)
    except OverflowError:
        gamma_beta = math.inf
    coeffs, tail = _cut(params, z, tol * gamma_beta)
    return _point_result(_horner(coeffs, z)[0] / gamma_beta, coeffs, tail / gamma_beta, tol)


def ml_norm(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> SeriesResult:
    """Gamma(beta) * z * E(z): the member of the normalized class.

    Equals z + sum_{n>=2} [Gamma(beta)/Gamma(alpha*(n-1)+beta)] z^n, so the
    value at 0 is 0 and the derivative there is 1.
    """
    z = np.array([_check_disk(z)])
    coeffs, tail = _cut(params, z, tol)
    return _point_result(z[0] * _horner(coeffs, z)[0], coeffs, abs(z[0]) * tail, tol)


def ml_norm_deriv(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> SeriesResult:
    """Derivative of the normalization: 1 + sum_{n>=2} n c_n z^(n-1)."""
    z = np.array([_check_disk(z)])
    coeffs, tail = _cut(params, z, tol)
    weighted = tuple(n * c for n, c in enumerate(coeffs, start=1))
    return _point_result(_horner(weighted, z)[0], coeffs, tail, tol)


def log_deriv(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> complex:
    """z * E'(z) / E(z) for the normalized function, 1 by continuity at 0."""
    z = _check_disk(z)
    deviation, bad = _log_deriv_deviation(params, np.array([z]), tol)
    if bad[0]:
        raise NearZeroDenominatorError(
            f"normalized value vanished at z = {z!r}", z=z
        )
    return 1.0 + complex(deviation[0])


# closed forms at alpha = 2 (hyperbolic family), keyed by (alpha, beta)
CLOSED_FORM_KINDS = ((2, 1), (2, 2), (2, 3), (2, 4))


def closed_form(kind, z: complex) -> complex:
    """Hyperbolic closed form of the normalized function at alpha = 2.

    kind is one of (2, 1): z*cosh(sqrt z); (2, 2): sqrt(z)*sinh(sqrt z);
    (2, 3): 2*[cosh(sqrt z) - 1]; (2, 4): 6*[sinh(sqrt z) - sqrt z]/sqrt z.
    The removable singularity at the origin is handled by a short series.
    """
    kind = (int(kind[0]), int(kind[1]))
    if kind not in CLOSED_FORM_KINDS:
        raise DomainError(f"no closed form for kind {kind!r}")
    z = complex(z)
    if abs(z) < NEAR_ORIGIN:
        # z * (1 + c2 z + c3 z^2) is exact to double precision this close in
        c = _coefficients(*kind, SERIES_TOL)
        return z * (1.0 + c[1] * z + c[2] * z * z)
    w = cmath.sqrt(z)
    if kind == (2, 1):
        return z * cmath.cosh(w)
    if kind == (2, 2):
        return w * cmath.sinh(w)
    if kind == (2, 3):
        return 2.0 * (cmath.cosh(w) - 1.0)
    return 6.0 * (cmath.sinh(w) - w) / w
