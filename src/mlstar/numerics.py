"""Foundation numerics.

Gamma quotients free of overflow, principal-branch complex powers, and
two operations on power series: the logarithmic derivative and the power.
The coefficients they produce carry the branch continued from the
origin, so nothing is ever tracked along a path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "gamma_ratio",
    "principal_power",
    "series_log_derivative",
    "series_power",
]

# From here on the Stirling correction below is accurate to 4e-17.
_STIRLING_MIN = 30.0
# math.gamma overflows just above 171.62.
_GAMMA_DIRECT_MAX = 171.0


def _stirling_correction(y: float) -> float:
    """lgamma(y) - [(y - 1/2) log y - y + log(2 pi)/2] for y >= _STIRLING_MIN."""
    inv = 1.0 / y
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))


def gamma_ratio(x: float, h: float) -> float:
    """Gamma(x) / Gamma(x + h) for x > 0 and h >= 0, without overflow.

    For x >= 30 the logarithm of the ratio is the difference of two
    Stirling series, written so that the large parts of lgamma(x) and
    lgamma(x + h) never meet:

        -(x - 1/2) log1p(h/x) - h log(x + h) + h + S(x) - S(x + h).

    Its error stays near that of h log(x + h) alone, where a quotient of
    math.gamma values would also inherit the rounding of x + h, amplified
    by the digamma function (7e-14 at x + h = 170). Smaller x take the
    quotient, or past the overflow of math.gamma the plain lgamma
    difference: there the ratio is below Gamma(30)/Gamma(171) = 1e-276.
    """
    if x >= _STIRLING_MIN:
        y = x + h
        return math.exp(
            -(x - 0.5) * math.log1p(h / x) - h * math.log(y) + h
            + _stirling_correction(x) - _stirling_correction(y)
        )
    if x + h < _GAMMA_DIRECT_MAX:
        return math.gamma(x) / math.gamma(x + h)
    return math.exp(math.lgamma(x) - math.lgamma(x + h))


def _principal_arg(w: complex) -> float:
    theta = cmath.phase(w)
    if theta <= -math.pi:  # map the cut consistently onto +pi
        theta += 2.0 * math.pi
    return theta


def principal_power(w: complex, e: float) -> complex:
    """w**e through the principal logarithm, Im log w in (-pi, pi]."""
    w = complex(w)
    if w == 0:
        raise DomainError("principal_power: w = 0 has no logarithm")
    return cmath.exp(e * complex(math.log(abs(w)), _principal_arg(w)))


def series_log_derivative(a, length: int) -> np.ndarray:
    """The first ``length`` Taylor coefficients of t A'(t)/A(t), given those of A.

    A(0) = a[0] must be 1; coefficients past the end of ``a`` count as 0.
    From A * (t A'/A) = t A', the coefficients are d_0 = 0 and

        d_n = n a_n - sum_{k=1..n-1} a_k d_{n-k}.

    Each zero of A contributes a pole, so the coefficients grow like
    |t_0|^-n for the zero t_0 nearest the origin.
    """
    a = np.asarray(a, dtype=float)[:length]
    d = np.zeros(length)
    d[1 : len(a)] = np.arange(1, len(a)) * a[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, length):
            m = min(n - 1, len(a) - 1)
            d[n] -= np.dot(a[1 : m + 1], d[n - m : n][::-1])
    return d


def series_power(a, p: float, length: int) -> np.ndarray:
    """The first ``length`` Taylor coefficients of A(t)^p, given those of A.

    A(0) = a[0] must be 1; coefficients past the end of ``a`` count as 0.
    J.C.P. Miller's recurrence (Henrici, Applied and Computational Complex
    Analysis I, section 1.6; Knuth, TAOCP vol. 2, section 4.7)

        b_0 = 1,  b_n = (1/n) sum_{k=1..n} ((p + 1) k - n) a_k b_{n-k}

    follows from A (A^p)' = p A' A^p, so the result is the branch of A^p
    that is 1 at the origin, continued across any disk where A has no zero.
    Coefficients that overflow come out inf or nan.
    """
    a = np.asarray(a, dtype=float)[:length]
    b = np.zeros(length)
    b[0] = 1.0
    k = np.arange(1, len(a))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, length):
            m = min(n, len(a) - 1)
            b[n] = np.dot(((p + 1.0) * k[:m] - n) * a[1 : m + 1], b[n - m : n][::-1]) / n
    return b
