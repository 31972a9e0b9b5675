"""Integral operators built from normalized Mittag-Leffler factors.

The central object is

    F(z) = { zeta * Integral_0^z t^(zeta-1) * Prod_j (E_j(t)/t)^(1/lambda_j) dt }^(1/zeta)

with every many-valued piece on the branch continued from the origin, where
the bracketed product P equals 1. Every quantity is a power series built
from the logarithmic derivative of P,

    Q(t) = t P'(t)/P(t) = sum_j (t E_j'/E_j - 1) / lambda_j = sum_{n>=1} q_n t^n,

whose coefficients come from each factor's cached coefficient table
(numerics.series_log_derivative). With

    G(z) = zeta * Integral_0^1 s^(zeta-1) P(z s) ds = (F(z)/z)^zeta,

z G' + zeta G = zeta P gives the series H = G/P = sum h_n z^n by
h_0 = 1, (n + zeta) h_n = -sum_{k=1..n} q_k h_{n-k}. Then

    z F'/F    = P/G = 1/H = sum v_n z^n, the v_n by J.C.P. Miller's
                power recurrence (numerics.series_power) at the power -1,
    F(z)      = z exp(sum_{n>=1} v_n z^n / n), as log(F/z) integrates
                (zF'/F - 1)/t,
    F(z)^zeta = z^zeta (F(z)/z)^zeta, and the zeta-free operator
                Integral_0^z P(t) dt is F at zeta = 1,

while 1 + z F''/F' of the zeta-free operator is 1 + Q(z), summed pointwise
from the factors' closed forms. Neither P nor G is ever summed as a
series: at z = -1 the sum of P = e^(25 z) cancels terms near e^25 down to
e^-25, where Q = 25 z, H and 1/H stay of moderate size. Power series carry
the branch that is 1 at the origin, so no path is ever tracked, and no
numerical differentiation or quadrature is involved.

A sum on the circle |z| = r keeps the terms that _operator_cut selects.
Where a factor's zero lies within reach of the circle, Q has a pole there
and the coefficients stop decaying. Then, or when the coefficients
overflow, no cut exists and the evaluation raises SeriesTruncationError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defaults import DENOM_GUARD, SERIES_TERM_CAP, SERIES_TOL
from .errors import (
    DegenerateOperatorError,
    DomainError,
    NearZeroDenominatorError,
    SeriesTruncationError,
)
from .mittag_leffler import MLParams, _coefficients, _horner, _log_deriv_deviation
from .numerics import principal_power, series_log_derivative, series_power

__all__ = [
    "FactorSpec",
    "OperatorSpec",
    "EvalPoint",
    "f_zeta_power",
    "f_value",
    "star_log_deriv",
    "convex_log_deriv",
    "f_conv_value",
]


@dataclass(frozen=True)
class FactorSpec:
    """One factor (E_{alpha,beta}(t)/t)^(1/lambda) with its order target eta."""

    params: MLParams
    lam: float
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"lambda must be finite and > 0, got {self.lam!r}")
        if not 0.0 <= self.eta < 1.0:
            raise DomainError(f"eta must lie in [0, 1), got {self.eta!r}")


@dataclass(frozen=True)
class OperatorSpec:
    """Full description of the operator: factor list plus the root order zeta."""

    factors: tuple
    zeta: float

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise DomainError("an operator needs at least one factor")
        for f in factors:
            if not isinstance(f, FactorSpec):
                raise DomainError(f"not a FactorSpec: {f!r}")
        object.__setattr__(self, "factors", factors)
        if not 0.0 < self.zeta < math.inf:
            raise DomainError(f"zeta must be finite and > 0, got {self.zeta!r}")


@dataclass(frozen=True)
class EvalPoint:
    """A point of the open unit disk in both cartesian and polar form."""

    z: complex
    radius: float
    angle: float

    @classmethod
    def from_polar(cls, radius: float, angle: float) -> "EvalPoint":
        if not 0.0 < radius < 1.0:
            raise DomainError(f"radius must lie in (0, 1), got {radius!r}")
        return cls(radius * cmath.exp(1j * angle), radius, angle)

    @classmethod
    def from_complex(cls, z: complex) -> "EvalPoint":
        z = complex(z)
        r = abs(z)
        if not 0.0 < r < 1.0:
            raise DomainError(f"|z| must lie in (0, 1), got {r!r}")
        return cls(z, r, cmath.phase(z))


def _as_point(z) -> complex:
    if isinstance(z, EvalPoint):
        return complex(z.z)
    z = complex(z)
    if not 0.0 < abs(z) < 1.0:
        raise DomainError(f"evaluation point must satisfy 0 < |z| < 1, got {z!r}")
    return z


# --- the coefficient engine ---------------------------------------------------


def _log_derivative_coefficients(factors, tol: float) -> np.ndarray:
    """(q_0, ..., q_{L-1}) of Q = t P'/P, L = SERIES_TERM_CAP; q_0 = 0.

    Each factor's table is mittag_leffler's cached one, exact to tol on the
    unit circle; coefficients past it count as 0.
    """
    q = np.zeros(SERIES_TERM_CAP)
    for factor in factors:
        table = _coefficients(factor.params.alpha, factor.params.beta, tol)
        q += series_log_derivative(table, SERIES_TERM_CAP) / factor.lam
    return q


def _quotient_coefficients(q, zeta: float) -> np.ndarray:
    """(h_0, ..., h_{L-1}) of H = G/P: h_0 = 1, (n + zeta) h_n = -sum q_k h_{n-k}."""
    h = np.zeros(len(q))
    h[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, len(q)):
            h[n] = -np.dot(q[1 : n + 1], h[:n][::-1]) / (n + zeta)
    return h


def _star_coefficients(spec: OperatorSpec, tol: float) -> np.ndarray:
    """H's table for the rooted operator: z F'/F = 1/H."""
    return _quotient_coefficients(_log_derivative_coefficients(spec.factors, tol), spec.zeta)


# A cut leaves at least this many table terms after it, so that the terms
# it drops are measured, not extrapolated.
_MEASURED_TAIL = 8


def _operator_cut(coeffs, radius: float, tol: float) -> tuple:
    """(N, tail): how many terms of coeffs to sum on the circle |z| = radius.

    As for the Mittag-Leffler series, tol bounds the dropped terms
    absolutely: every table is 1 at the origin (H) or 0 (log(F/z), whose
    absolute error is F's relative one). With t_n = |c_n| r^n,
    N is the smallest count that leaves at least _MEASURED_TAIL table
    terms after it and whose dropped table terms sum to at most tol, and
    tail is that sum. Terms past the table are taken to keep decaying as
    its last ones do; a fall to tol within SERIES_TERM_CAP terms makes
    that decay geometric in practice.

    When no count qualifies, N is None and tail is the sum at the last
    admissible count: the terms stopped decaying because a zero of a
    factor lies within reach of the circle, or they overflowed.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    terms = np.abs(coeffs) * radius ** np.arange(len(coeffs))
    if not np.isfinite(np.sum(terms)):
        return None, math.inf
    dropped = np.cumsum(terms[::-1])[::-1][1 : len(terms) - _MEASURED_TAIL + 1]
    fits = np.flatnonzero(dropped <= tol)
    if not fits.size:
        return None, float(dropped[-1])
    return int(fits[0]) + 1, float(dropped[fits[0]])


def _checked_cut(coeffs, radius: float, tol: float) -> int:
    n, tail = _operator_cut(coeffs, radius, tol)
    if n is None:
        raise SeriesTruncationError(
            f"operator series at |z| = {radius:g} keeps a tail of {tail:.3g} "
            f"after {len(coeffs) - _MEASURED_TAIL} terms"
        )
    return n


def _star_deviation(h, z, tol: float):
    """zF'/F - 1 = -(H - 1)/H on an ndarray; returns (deviation, bad) with vanished H flagged.

    H - 1 is summed directly, never as a difference from 1. Raises
    SeriesTruncationError when H's series has no cut at max |z|.
    """
    z = np.asarray(z, dtype=complex)
    n = _checked_cut(h, float(np.max(np.abs(z))), tol)
    excess = _horner(np.concatenate(([0.0], h[1:n])), z)
    quotient = 1.0 + excess
    bad = np.abs(quotient) < DENOM_GUARD
    return -excess / np.where(bad, 1.0, quotient), bad


def _root_ratio(spec: OperatorSpec, z: complex, tol: float, e: float) -> complex:
    """(F(z)/z)^e = exp(e sum_{n>=1} v_n z^n / n), continued from 1 at the origin.

    log(F/z) = Integral_0^z (zF'/F - 1) dt/t, and zF'/F = 1/H has the
    coefficients v_n that Miller's recurrence gives for the power -1.
    """
    v = series_power(_star_coefficients(spec, tol), -1.0, SERIES_TERM_CAP)
    v[0] = 0.0
    coeffs = v / np.maximum(np.arange(len(v)), 1)
    n = _checked_cut(coeffs, abs(z), tol)
    log_ratio = complex(_horner(coeffs[:n], np.array([z]))[0])
    try:
        return cmath.exp(e * log_ratio)
    except OverflowError:
        raise DegenerateOperatorError(f"(F(z)/z)^{e:g} overflows at z = {z!r}") from None


def f_zeta_power(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """The brace contents: zeta * Integral_0^z t^(zeta-1) P(t) dt = z^zeta (F(z)/z)^zeta.

    z^zeta is the principal power.
    """
    zc = _as_point(z)
    return principal_power(zc, spec.zeta) * _root_ratio(spec, zc, tol, spec.zeta)


def star_log_deriv(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """z F'(z)/F(z) = P(z)/G(z) = 1/H(z)."""
    zc = _as_point(z)
    deviation, bad = _star_deviation(_star_coefficients(spec, tol), np.array([zc]), tol)
    if bad[0]:
        raise DegenerateOperatorError(
            f"operator integral vanished at z = {zc!r}; zF'/F is undefined"
        )
    return 1.0 + complex(deviation[0])


def f_value(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """F(z) itself, z (F(z)/z), with the root continued from the origin.

    The series of log(F/z) has no cut past a zero of G or of a factor.
    """
    zc = _as_point(z)
    return zc * _root_ratio(spec, zc, tol, 1.0)


def f_conv_value(factors, z, tol: float = SERIES_TOL) -> complex:
    """The zeta-free operator Integral_0^z P(t) dt: F^zeta at zeta = 1."""
    return f_zeta_power(OperatorSpec(tuple(factors), 1.0), z, tol)


def _convex_deviation(factors, z, tol: float = SERIES_TOL):
    """(1 + z F''/F') - 1 on an ndarray; returns (deviation, bad).

    The deviation is sum_j (z E_j'/E_j - 1) / lambda_j, so the constant
    1 - sum_j 1/lambda_j of the closed form never has to be added back.
    """
    z = np.asarray(z, dtype=complex)
    deviation = np.zeros(z.shape, dtype=complex)
    bad = np.zeros(z.shape, dtype=bool)
    for factor in factors:
        factor_deviation, factor_bad = _log_deriv_deviation(factor.params, z, tol)
        deviation = deviation + factor_deviation / factor.lam
        bad |= factor_bad
    return deviation, bad


def convex_log_deriv(
    factors,
    z,
    tol: float = SERIES_TOL,
) -> complex:
    """1 + z F''/F' for the zeta-free operator, as a closed form.

    Equals sum_j (1/lambda_j) * (z E_j'/E_j) + 1 - sum_j 1/lambda_j; no
    quadrature is involved.
    """
    factors = tuple(factors)
    if not factors:
        raise DomainError("an operator needs at least one factor")
    zc = complex(z.z) if isinstance(z, EvalPoint) else complex(z)
    if not abs(zc) < 1.0:
        raise DomainError(f"|z| must be < 1, got {abs(zc)!r}")
    deviation, bad = _convex_deviation(factors, np.array([zc]), tol)
    if bad[0]:
        raise NearZeroDenominatorError(f"a factor vanished at z = {zc!r}", z=zc)
    return 1.0 + complex(deviation[0])
