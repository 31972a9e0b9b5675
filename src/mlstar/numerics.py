"""Foundation numerics.

Gamma quotients free of overflow, principal-branch complex powers, and
one solver for power series, which gives quotients and logarithmic
derivatives. The coefficients it produces carry the branch continued from
the origin, so nothing is ever tracked along a path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "gamma_ratio",
    "principal_power",
    "series_solve",
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


def series_solve(a, b, length: int, derivative: bool = False) -> np.ndarray:
    """The first ``length`` Taylor coefficients of X with A X = B, or A X + t X' = B.

    a and b hold the coefficients of A and B, those past their ends count
    as 0, and A(0) = a[0] must not vanish. The system is lower-triangular
    Toeplitz, so it is solved term by term:

        x_n = (b_n - sum_{k=1..n} a_k x_{n-k}) / (a_0, or a_0 + n with t X').

    X is therefore the solution analytic at the origin, continued across
    any disk where it stays analytic. A quotient B/A, a logarithmic
    derivative (B = t A') and the operators' H (with t X') are each one
    call. A zero t_0 of A is a pole of X, so the coefficients grow like
    |t_0|^-n for the zero nearest the origin; those that overflow come out
    inf or nan.
    """
    a = np.asarray(a, dtype=float)[:length]
    b = np.asarray(b, dtype=float)[:length]
    rhs = np.concatenate((b, np.zeros(length - len(b)))).tolist()
    a0, last = float(a[0]), len(a) - 1
    x = np.zeros(length)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(length):
            m = n if n < last else last
            pivot = a0 + n if derivative else a0
            x[n] = (rhs[n] - np.dot(a[1 : m + 1], x[n - m : n][::-1])) / pivot
    return x
