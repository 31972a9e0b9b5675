"""Two-parameter Mittag-Leffler series on the closed unit disk.

Provides the raw series E(z) = sum z^n / Gamma(alpha*n + beta), its
normalization Gamma(beta) * z * E(z) (which fixes value 0 and derivative 1
at the origin), the derivative of the normalization, and the logarithmic
derivative z*E'/E, each at one point. The certificates do not call these:
they sum z*E'/E - 1 from its own coefficient table, t u'/u, which
operators solves from the table cached here.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache

from .defaults import DENOM_GUARD, SERIES_TERM_CAP, SERIES_TOL
from .errors import DomainError, NearZeroDenominatorError, SeriesTruncationError
from .numerics import gamma_ratio
from .records import _Record

__all__ = [
    "MLParams",
    "SeriesResult",
    "ml_raw",
    "ml_norm",
    "ml_norm_deriv",
    "log_deriv",
]


class MLParams(_Record):
    """One (alpha, beta) pair for a normalized Mittag-Leffler factor.

    alpha >= 1 and beta > 0, both finite; these are the hypotheses under
    which every order result in this package applies, and they also make
    all series coefficients positive. Below about 5.6e-309, Gamma(beta),
    which is about 1/beta there, overflows, and so does the coefficient
    c_2 ~ 1/(beta Gamma(alpha)); such beta are refused too.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not 1.0 <= alpha < math.inf:
            raise DomainError(f"alpha must be finite and >= 1, got {alpha!r}")
        if not (0.0 < beta < math.inf and math.isfinite(1.0 / beta)):
            raise DomainError(f"beta must be finite and > 0 with 1/beta finite, got {beta!r}")


class SeriesResult(_Record):
    """Series value, the number of terms used and tail_bound, a proven bound on the
    terms dropped: the truncation error, not the rounding of the terms summed."""

    __slots__ = ("value", "terms_used", "tail_bound")

    def __init__(self, value: complex, terms_used: int, tail_bound: float):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "terms_used", terms_used)
        object.__setattr__(self, "tail_bound", tail_bound)


def _check_disk(z) -> complex:
    """z as a complex number, or DomainError unless |z| <= 1: the package's one point rule."""
    z = complex(z)
    size = math.hypot(z.real, z.imag)  # NaN or inf, never OverflowError, for a bad z
    if not size <= 1.0:
        raise DomainError(f"|z| must be <= 1, got |z| = {size!r}")
    return z


def _real(value, name: str) -> float:
    if type(value) is float:  # most values, without the slower numbers.Real test below
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        return math.inf if value > 0 else -math.inf


def _check_radius(r, name: str) -> float:
    """r as a float, or DomainError naming it unless a number in (0, 1]: the one radius rule."""
    if not 0.0 < (r := _real(r, name)) <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {r!r}")
    return r


def _check_tol(value, name: str) -> float:
    """value as a float, or DomainError naming it unless 0 < value < inf: the one tolerance rule."""
    if not 0.0 < (tol := _real(value, name)) < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {tol!r}")
    return tol


# --- the series engine ------------------------------------------------------
#
# Every function of this module sums the one series
#
#     u(z) = Gamma(beta) E(z) = sum_{n>=1} c_n z^(n-1),
#     c_n = Gamma(beta) / Gamma(alpha (n-1) + beta),
#
# whose product z u(z) is the normalized function, from one cached table
# of c_n per (alpha, beta, tol). Each evaluation cuts the table for |z| and
# sums its one point by Horner in Python complex numbers, which overflow to
# inf or nan silently; _point_result and _log_deriv_value refuse those.


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


def _cut(params: MLParams, radius: float, tol: float):
    """(c_1, ..., c_N) for the circle |z| = radius and the tail bound of that cut.

    N is the first count whose tail bound at the radius is below tol; the
    tail is inf when no count up to SERIES_TERM_CAP gets there; callers check tol.
    """
    coeffs = _coefficients(params.alpha, params.beta, tol)
    for n in range(1, min(SERIES_TERM_CAP, len(coeffs) - 1) + 1):
        tail = _tail(coeffs, n, radius)
        if tail <= tol:
            return coeffs[:n], tail
    return coeffs[:SERIES_TERM_CAP], math.inf


def _horner(coeffs, z: complex) -> complex:
    acc = complex(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _unreachable(tol: float) -> str:
    return f"series tolerance {tol:g} unreachable within {SERIES_TERM_CAP} terms"


def _point_result(value, coeffs, tail: float, tol: float) -> SeriesResult:
    result = SeriesResult(complex(value), len(coeffs), float(tail))
    if tail == math.inf:
        raise SeriesTruncationError(_unreachable(tol), partial=result)
    if not cmath.isfinite(result.value):
        raise SeriesTruncationError("series sum overflows the double range", partial=result)
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
    z, tol = _check_disk(z), _check_tol(tol, "tol")
    try:
        gamma_beta = math.gamma(params.beta)
    except OverflowError:
        gamma_beta = math.inf
    coeffs, tail = _cut(params, abs(z), tol * gamma_beta)  # inf past beta = 171.6
    return _point_result(_horner(coeffs, z) / gamma_beta, coeffs, tail / gamma_beta, tol)


def ml_norm(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> SeriesResult:
    """Gamma(beta) * z * E(z): the member of the normalized class.

    Equals z + sum_{n>=2} [Gamma(beta)/Gamma(alpha*(n-1)+beta)] z^n, so the
    value at 0 is 0 and the derivative there is 1.
    """
    z, tol = _check_disk(z), _check_tol(tol, "tol")
    coeffs, tail = _cut(params, abs(z), tol)
    return _point_result(z * _horner(coeffs, z), coeffs, abs(z) * tail, tol)


def ml_norm_deriv(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> SeriesResult:
    """Derivative of the normalization: 1 + sum_{n>=2} n c_n z^(n-1)."""
    z, tol = _check_disk(z), _check_tol(tol, "tol")
    coeffs, tail = _cut(params, abs(z), tol)
    weighted = tuple(n * c for n, c in enumerate(coeffs, start=1))
    return _point_result(_horner(weighted, z), coeffs, tail, tol)


def _log_deriv_value(params: MLParams, z: complex, tol: float) -> SeriesResult:
    """log_deriv's value with the cut it sums: its terms and its error bound.

    The cut's tail t bounds the terms dropped from each of the two sums,
    u = sum c_n z^(n-1) and w = sum (n-1) c_n z^(n-1). The ratio's error
    (dw - (w/u) du)/(u + du) is then at most t (1 + |w/u|)/(|u| - t), the
    bound returned, inf when |u| <= t; like every tail_bound, it leaves out rounding.
    """
    z, tol = _check_disk(z), _check_tol(tol, "tol")
    coeffs, tail = _cut(params, abs(z), tol)
    if tail == math.inf:
        raise SeriesTruncationError(_unreachable(tol))
    u = _horner(coeffs, z)
    size = math.hypot(u.real, u.imag)  # abs() raises OverflowError past the double range
    if size < DENOM_GUARD:
        raise NearZeroDenominatorError(f"normalized value vanished at z = {z!r}", z=z)
    ratio = _horner(tuple(k * c for k, c in enumerate(coeffs)), z) / u
    value = 1.0 + ratio
    if not cmath.isfinite(value):
        raise SeriesTruncationError(f"z E'/E overflows the double range at z = {z!r}")
    bound = (tail * (1.0 + math.hypot(ratio.real, ratio.imag)) / (size - tail)
             if size > tail else math.inf)
    return SeriesResult(value, len(coeffs), bound)


def log_deriv(
    params: MLParams,
    z: complex,
    tol: float = SERIES_TOL,
) -> complex:
    """z * E'(z) / E(z) for the normalized function, 1 by continuity at 0.

    It is 1 + sum (n-1) c_n z^(n-1) / sum c_n z^(n-1), a ratio of two sums
    of the cut for |z|: the 1 is added last, so the origin needs no special
    casing, and the ratio keeps its value past a zero of E. Where
    |u(z)| < DENOM_GUARD it raises NearZeroDenominatorError.
    """
    return _log_deriv_value(params, z, tol).value
