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

Each is summed from one table: zF'/F - 1 from v (v_0 = 0), log(F/z)
from v_n/n, and (1 + zF''/F') - 1 from Q, which for the one factor E/z
with lambda = 1 is also z E'/E - 1. Neither P nor G is
ever summed as a series: at z = -1 the sum of P = e^(25 z) cancels terms
near e^25 down to e^-25, where Q = 25 z, H and 1/H stay of moderate size.
Power series carry the branch that is 1 at the origin, so no path is ever
tracked, and no numerical differentiation or quadrature is involved.
Q, H and 1/H all come from the one triangular solve numerics.series_solve.

A table is cut once, on one circle |z| = r, a point's or a grid's
outermost, which also cuts every smaller circle: _sized_table builds it
16 terms long, doubled until _operator_cut finds a cut, and hands that
cut on. Where a factor's zero lies within reach of the circle, Q has a
pole there, and where G has one, so does 1/H; the coefficients stop
decaying. Then, or when the terms |c_n| r^n sum past 1e300 or overflow,
no cut exists and the evaluation raises SeriesTruncationError; with a
cut, every sum on the circle and inside it is finite. The tables are
lists of Python floats: a point is summed by Horner in Python complex
numbers, and so is a circle in certify.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate

from .defaults import SERIES_TERM_CAP, SERIES_TOL
from .errors import DegenerateOperatorError, DomainError, SeriesTruncationError
from .mittag_leffler import (MLParams, SeriesResult, _check_disk, _check_radius, _check_tol,
                             _coefficients, _horner)
from .numerics import principal_power, series_solve
from .records import _Record

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


class FactorSpec(_Record):
    """One factor (E_{alpha,beta}(t)/t)^(1/lambda) with its order target eta."""

    __slots__ = ("params", "lam", "eta")

    def __init__(self, params: MLParams, lam: float, eta: float = 0.0):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "lam", lam)
        if not 0.0 < lam < math.inf:
            raise DomainError(f"lambda must be finite and > 0, got {lam!r}")
        object.__setattr__(self, "eta", _check_eta(eta))


def _check_eta(eta: float) -> float:
    """eta, or DomainError unless 0 <= eta < 1: the package's one eta rule."""
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must lie in [0, 1), got {eta!r}")
    return eta


def _check_factors(factors) -> tuple:
    """factors as a tuple, or DomainError unless a nonempty list of FactorSpec: the one rule."""
    factors = tuple(factors)
    if not factors:
        raise DomainError("an operator needs at least one factor")
    for f in factors:
        if not isinstance(f, FactorSpec):
            raise DomainError(f"not a FactorSpec: {f!r}")
    return factors


class OperatorSpec(_Record):
    """Full description of the operator: factor list plus the root order zeta."""

    __slots__ = ("factors", "zeta")

    def __init__(self, factors: tuple, zeta: float):
        object.__setattr__(self, "factors", _check_factors(factors))
        object.__setattr__(self, "zeta", zeta)
        if not 0.0 < zeta < math.inf:
            raise DomainError(f"zeta must be finite and > 0, got {zeta!r}")


class EvalPoint(_Record):
    """A point of the closed unit disk in both cartesian and polar form."""

    __slots__ = ("z", "radius", "angle")

    def __init__(self, z: complex, radius: float, angle: float):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "angle", angle)

    @classmethod
    def from_polar(cls, radius: float, angle: float) -> "EvalPoint":
        _check_radius(radius, "radius")
        return cls(radius * cmath.exp(1j * angle), radius, angle)


def _as_point(z) -> complex:
    return _check_disk(z.z if isinstance(z, EvalPoint) else z)


# --- the coefficient engine ---------------------------------------------------
#
# Each table builder takes (subject, tol, length) and returns a table, a list
# of floats, that vanishes at the origin. series_solve is prefix-stable, so a
# longer table extends a shorter one exactly.


def _log_derivative_coefficients(factors, tol: float, length: int) -> list:
    """(q_0, ..., q_{length-1}) of Q = t P'/P; q_0 = 0.

    Each factor's table A is mittag_leffler's cached one, exact to tol on
    the unit circle, and contributes t A'/A / lambda. Q is also
    (1 + zF''/F') - 1 of the zeta-free operator, and for the one factor
    E/z with lambda = 1 it is z E'/E - 1.
    """
    q = [0.0] * length
    for factor in factors:
        table = _coefficients(factor.params.alpha, factor.params.beta, tol)
        solved = series_solve(table, [n * c for n, c in enumerate(table)], length)
        q = [total + x / factor.lam for total, x in zip(q, solved)]
    return q


def _star_coefficients(spec: OperatorSpec, tol: float, length: int) -> list:
    """(v_0, ..., v_{length-1}) of zF'/F - 1 = 1/H - 1; v_0 = 0.

    H = G/P solves (zeta + Q) H + z H' = zeta, and V = 1/H solves H V = 1.
    """
    q = _log_derivative_coefficients(spec.factors, tol, length)
    h = series_solve([spec.zeta] + q[1:], [spec.zeta], length, derivative=True)
    v = series_solve(h, [1.0], length)
    v[0] = 0.0
    return v


def _log_ratio_coefficients(spec: OperatorSpec, tol: float, length: int) -> list:
    """log(F/z) = Integral_0^z (zF'/F - 1) dt/t = sum_{n>=1} v_n z^n / n."""
    return [v / max(n, 1) for n, v in enumerate(_star_coefficients(spec, tol, length))]


# A cut leaves at least this many table terms after it, so that the terms
# it drops are measured, not extrapolated.
_MEASURED_TAIL = 8
# The largest sum of |c_n| r^n a cut accepts: every sum on a circle of
# radius at most r is bounded by it, so none can overflow in rounding.
_SUM_MAX = 1e300
_FIRST_LENGTH = 16  # of a table's first build, which _sized_table doubles


def _operator_cut(coeffs, radius: float, tol: float) -> tuple:
    """(count, tail): how many terms of coeffs to sum on the circle |z| = radius.

    As for the Mittag-Leffler series, tol bounds the dropped terms
    absolutely: every table is 0 at the origin, where its quantity is 1
    (zF'/F, 1 + zF''/F'), or it is log(F/z), whose absolute error is F's
    relative one. With t_n = |c_n| radius^n, the count N is the smallest
    that leaves at least _MEASURED_TAIL table terms after it and whose
    dropped table terms sum to at most tol, and the tail is that sum.
    Terms past the table are taken to keep decaying as its last ones do;
    a fall to tol within the table makes that decay geometric in practice.

    When no count qualifies, N is 0 and the tail is the sum at the last
    admissible count: the terms stopped decaying because a singularity,
    a zero of a factor or of G, lies within reach of the circle. When the
    sum of all t_n is NaN or above _SUM_MAX, N is 0 and the tail is inf.
    With a cut, every circle sum of at most that radius is finite.
    """
    terms = [abs(c) * radius ** n for n, c in enumerate(coeffs)]
    tails = list(accumulate(reversed(terms)))[::-1]  # tails[k] = sum of terms[k:]
    if not tails[0] <= _SUM_MAX:
        return 0, math.inf
    dropped = tails[1 : len(coeffs) - _MEASURED_TAIL + 1]
    # dropped never rises, so its first fit follows all misfits
    first = sum(d > tol for d in dropped)
    if first < len(dropped):
        return first + 1, dropped[first]
    return 0, dropped[-1]


def _no_cut(table, radius: float, tail: float) -> str:
    return (f"series at |z| = {radius:g} keeps a tail of {tail:.3g} "
            f"after {len(table) - _MEASURED_TAIL} terms")


def _sized_table(coefficients, subject, radius: float, tol: float) -> tuple:
    """(table, cut): coefficients(subject, tol, length) at the first length
    with a cut on the circle |z| = radius, and _operator_cut's (count, tail).

    Every caller sums from that cut and cuts nothing again; a grid passes
    its outermost radius, and its other circles sum the same terms. The
    length starts at _FIRST_LENGTH and doubles; at SERIES_TERM_CAP the
    table is returned with or without a cut, and without one the count is 0.
    """
    length = _FIRST_LENGTH
    while True:
        table = coefficients(subject, tol, length)
        cut = _operator_cut(table, radius, tol)
        if length >= SERIES_TERM_CAP or cut[0]:
            return table, cut
        length = min(2 * length, SERIES_TERM_CAP)


def _table_value(coefficients, subject, z: complex, tol: float) -> SeriesResult:
    """The table's sum at one point, from a table sized for |z|, with its cut.

    Raises SeriesTruncationError when the table has no cut at |z|.
    """
    tol = _check_tol(tol, "tol")
    table, (n, tail) = _sized_table(coefficients, subject, abs(z), tol)
    if not n:
        raise SeriesTruncationError(_no_cut(table, abs(z), tail))
    return SeriesResult(_horner(table[:n], z), n, tail)


def _operator_value(spec: OperatorSpec, z, tol: float, power: bool) -> SeriesResult:
    """F(z) = z (F(z)/z), or F(z)^zeta = z^zeta (F(z)/z)^zeta if power.

    (F/z)^e = exp(e log(F/z)) is continued from 1 at the origin, and z^zeta
    is the principal power. The result carries the terms and tail of the
    log(F/z) table's cut; the tail bounds the absolute error of log(F/z),
    so it is the relative error of F. The series of log(F/z) has no cut
    past a zero of G or of a factor.
    """
    zc = _as_point(z)
    e = spec.zeta if power else 1.0
    log_ratio = _table_value(_log_ratio_coefficients, spec, zc, tol)
    try:
        ratio = cmath.exp(e * log_ratio.value)
    except OverflowError:
        raise DegenerateOperatorError(f"(F(z)/z)^{e:g} overflows at z = {zc!r}") from None
    scale = principal_power(zc, e) if power else zc
    return SeriesResult(scale * ratio, log_ratio.terms_used, log_ratio.tail_bound)


def f_zeta_power(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """The brace contents: zeta * Integral_0^z t^(zeta-1) P(t) dt = z^zeta (F(z)/z)^zeta."""
    return _operator_value(spec, z, tol, power=True).value


def star_log_deriv(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """z F'(z)/F(z) = P(z)/G(z) = 1/H(z).

    Past a zero of G the table has no cut, and it raises
    SeriesTruncationError, as f_value does.
    """
    zc = _as_point(z)
    return 1.0 + _table_value(_star_coefficients, spec, zc, tol).value


def f_value(spec: OperatorSpec, z, tol: float = SERIES_TOL) -> complex:
    """F(z) itself, z (F(z)/z), with the root continued from the origin."""
    return _operator_value(spec, z, tol, power=False).value


def f_conv_value(factors, z, tol: float = SERIES_TOL) -> complex:
    """The zeta-free operator Integral_0^z P(t) dt: F^zeta at zeta = 1."""
    return f_zeta_power(OperatorSpec(factors, 1.0), z, tol)


def convex_log_deriv(factors, z, tol: float = SERIES_TOL) -> complex:
    """1 + z F''/F' = 1 + Q(z) for the zeta-free operator.

    Q = sum_j (z E_j'/E_j - 1) / lambda_j. Past a zero of a factor the
    table has no cut, and it raises SeriesTruncationError, as f_conv_value
    does.
    """
    factors = _check_factors(factors)
    return 1.0 + _table_value(_log_derivative_coefficients, factors, _as_point(z), tol).value
