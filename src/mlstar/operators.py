"""Integral operators built from normalized Mittag-Leffler factors.

The central object is

    F(z) = { zeta * Integral_0^z t^(zeta-1) * Prod_j (E_j(t)/t)^(1/lambda_j) dt }^(1/zeta)

with every many-valued piece on the branch continued from the origin, where
the bracketed product P equals 1. Every quantity is a power series built
from the logarithmic derivative of P,

    Q(t) = t P'(t)/P(t) = sum_j (t E_j'/E_j - 1) / lambda_j = sum_{n>=1} q_n t^n,

whose coefficients come from each factor's cached coefficient table. With

    G(z) = zeta * Integral_0^1 s^(zeta-1) P(z s) ds = (F(z)/z)^zeta,

z G' + zeta G = zeta P gives the series H = G/P = sum h_n z^n as the
solution of (zeta + Q) H + z H' = zeta. Then

    z F'/F     = P/G = 1/H = sum v_n z^n, the solution of H V = 1,
    F(z)       = z exp(sum_{n>=1} v_n z^n / n), as log(F/z) integrates
                 (zF'/F - 1)/t,
    F(z)^zeta  = z^zeta (F(z)/z)^zeta, and the zeta-free operator
                 Integral_0^z P(t) dt is F at zeta = 1, whose
    1 + zF''/F' = 1 + Q(z).

Each is summed by Horner from one table: zF'/F - 1 from v (v_0 = 0),
log(F/z) from v_n/n, and (1 + zF''/F') - 1 from Q. Neither P nor G is
ever summed as a series: at z = -1 the sum of P = e^(25 z) cancels terms
near e^25 down to e^-25, where Q = 25 z, H and 1/H stay of moderate size.
Power series carry the branch that is 1 at the origin, so no path is ever
tracked, and no numerical differentiation or quadrature is involved.
Q, H and 1/H all come from the one triangular solve numerics.series_solve.

A sum on the circle |z| = r keeps the terms that _operator_cut selects,
from a table built just long enough to have that cut. Where a factor's
zero lies within reach of the circle, Q has a pole there, and where G has
one, so does 1/H; the coefficients stop decaying. Then, or when the
coefficients overflow, no cut exists and the evaluation raises
SeriesTruncationError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defaults import SERIES_TERM_CAP, SERIES_TOL
from .errors import DegenerateOperatorError, DomainError, SeriesTruncationError
from .mittag_leffler import MLParams, _coefficients, _horner
from .numerics import principal_power, series_solve

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
#
# Each table builder takes (subject, tol, length) and returns a table that
# vanishes at the origin. series_solve is prefix-stable, so a longer table
# extends a shorter one exactly.


def _log_derivative_coefficients(factors, tol: float, length: int) -> np.ndarray:
    """(q_0, ..., q_{length-1}) of Q = t P'/P; q_0 = 0.

    Each factor's table A is mittag_leffler's cached one, exact to tol on
    the unit circle, and contributes t A'/A / lambda. Q is also
    (1 + zF''/F') - 1 of the zeta-free operator.
    """
    q = np.zeros(length)
    with np.errstate(over="ignore", invalid="ignore"):
        for factor in factors:
            table = np.asarray(_coefficients(factor.params.alpha, factor.params.beta, tol))
            q += series_solve(table, np.arange(len(table)) * table, length) / factor.lam
    return q


def _star_coefficients(spec: OperatorSpec, tol: float, length: int) -> np.ndarray:
    """(v_0, ..., v_{length-1}) of zF'/F - 1 = 1/H - 1; v_0 = 0.

    H = G/P solves (zeta + Q) H + z H' = zeta, and V = 1/H solves H V = 1.
    """
    q = _log_derivative_coefficients(spec.factors, tol, length)
    h = series_solve(np.concatenate(([spec.zeta], q[1:])), [spec.zeta], length,
                     derivative=True)
    v = series_solve(h, [1.0], length)
    v[0] = 0.0
    return v


def _log_ratio_coefficients(spec: OperatorSpec, tol: float, length: int) -> np.ndarray:
    """log(F/z) = Integral_0^z (zF'/F - 1) dt/t = sum_{n>=1} v_n z^n / n."""
    return _star_coefficients(spec, tol, length) / np.maximum(np.arange(length), 1)


# A cut leaves at least this many table terms after it, so that the terms
# it drops are measured, not extrapolated.
_MEASURED_TAIL = 8
_FIRST_LENGTH = 32  # of a table's first build, which _sized_table doubles


def _operator_cut(coeffs, radius: float, tol: float) -> tuple:
    """(N, tail): how many terms of coeffs to sum on the circle |z| = radius.

    As for the Mittag-Leffler series, tol bounds the dropped terms
    absolutely: every table is 0 at the origin, where its quantity is 1
    (zF'/F, 1 + zF''/F'), or it is log(F/z), whose absolute error is F's
    relative one. With t_n = |c_n| r^n,
    N is the smallest count that leaves at least _MEASURED_TAIL table
    terms after it and whose dropped table terms sum to at most tol, and
    tail is that sum. Terms past the table are taken to keep decaying as
    its last ones do; a fall to tol within the table makes that decay
    geometric in practice.

    When no count qualifies, N is None and tail is the sum at the last
    admissible count: the terms stopped decaying because a singularity,
    a zero of a factor or of G, lies within reach of the circle, or they
    overflowed.
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


def _sized_table(coefficients, subject, radius: float, tol: float) -> np.ndarray:
    """coefficients(subject, tol, length) at the first length with a cut at radius.

    The length starts at _FIRST_LENGTH and doubles; at SERIES_TERM_CAP the
    table is returned whether it has a cut or not, and summing it on a
    circle without one raises.
    """
    length = _FIRST_LENGTH
    while True:
        table = coefficients(subject, tol, length)
        if length >= SERIES_TERM_CAP or _operator_cut(table, radius, tol)[0] is not None:
            return table
        length = min(2 * length, SERIES_TERM_CAP)


def _table_deviation(table, z, tol: float) -> np.ndarray:
    """The table's sum on an ndarray z: the quantity minus 1, or log(F/z).

    Raises SeriesTruncationError when the table has no cut at max |z|.
    """
    z = np.asarray(z, dtype=complex)
    radius = float(np.max(np.abs(z)))
    n, tail = _operator_cut(table, radius, tol)
    if n is None:
        raise SeriesTruncationError(
            f"operator series at |z| = {radius:g} keeps a tail of {tail:.3g} "
            f"after {len(table) - _MEASURED_TAIL} terms"
        )
    return _horner(table[:n], z)


def _table_value(coefficients, subject, z: complex, tol: float) -> complex:
    """The table's sum at one point, from a table sized for |z|."""
    table = _sized_table(coefficients, subject, abs(z), tol)
    return complex(_table_deviation(table, np.array([z]), tol)[0])


def _root_ratio(spec: OperatorSpec, z: complex, tol: float, e: float) -> complex:
    """(F(z)/z)^e = exp(e log(F/z)), continued from 1 at the origin."""
    log_ratio = _table_value(_log_ratio_coefficients, spec, z, tol)
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
    """z F'(z)/F(z) = P(z)/G(z) = 1/H(z).

    Past a zero of G the table has no cut, and it raises
    SeriesTruncationError, as f_value does.
    """
    zc = _as_point(z)
    return 1.0 + _table_value(_star_coefficients, spec, zc, tol)


def f_value(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """F(z) itself, z (F(z)/z), with the root continued from the origin.

    The series of log(F/z) has no cut past a zero of G or of a factor.
    """
    zc = _as_point(z)
    return zc * _root_ratio(spec, zc, tol, 1.0)


def f_conv_value(factors, z, tol: float = SERIES_TOL) -> complex:
    """The zeta-free operator Integral_0^z P(t) dt: F^zeta at zeta = 1."""
    return f_zeta_power(OperatorSpec(tuple(factors), 1.0), z, tol)


def convex_log_deriv(factors, z, tol: float = SERIES_TOL) -> complex:
    """1 + z F''/F' = 1 + Q(z) for the zeta-free operator.

    Q = sum_j (z E_j'/E_j - 1) / lambda_j. Past a zero of a factor the
    table has no cut, and it raises SeriesTruncationError, as f_conv_value
    does.
    """
    factors = tuple(factors)
    if not factors:
        raise DomainError("an operator needs at least one factor")
    zc = complex(z.z) if isinstance(z, EvalPoint) else complex(z)
    if not abs(zc) < 1.0:
        raise DomainError(f"|z| must be < 1, got {abs(zc)!r}")
    return 1.0 + _table_value(_log_derivative_coefficients, factors, zc, tol)
