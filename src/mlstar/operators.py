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
16 terms long, grows it by half until _operator_cut finds a cut, and
hands on the terms to sum, their tail, or the reason none are summed.
Growing solves only the new terms: each builder keeps its solved series
between lengths, and series_solve continues them. A factor's t A'/A is
kept longer, beside its table in mittag_leffler's cache, so a factor
that recurs, in one job or in any later one of the process, is solved on
from the terms the last certificate left. Where a factor's zero lies
within reach of the circle, Q has a pole there, and where G has one, so
does 1/H; the coefficients stop decaying. Then, or when the terms |c_n|
r^n sum past 1e300 or overflow, no cut exists and the evaluation raises
SeriesTruncationError; with a cut, every sum on the circle and inside it
is finite. The tables are lists of Python floats: a point is summed by
Horner in Python complex numbers, and so is a circle in certify.
"""

from __future__ import annotations

import cmath
import math
import threading
from itertools import accumulate

from .defaults import SERIES_TERM_CAP, SERIES_TOL
from .errors import DegenerateOperatorError, DomainError, SeriesTruncationError
from .mittag_leffler import (EvalPoint, MLParams, SeriesResult, _check_disk, _check_eta,
                             _check_params, _check_tol, _factor_series, _horner)
from .numerics import principal_power, series_solve
from .records import _Record

__all__ = [
    "FactorSpec",
    "OperatorSpec",
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
        object.__setattr__(self, "params", _check_params(params))
        object.__setattr__(self, "lam", _check_tol(lam, "lambda"))
        object.__setattr__(self, "eta", _check_eta(eta))


def _check_factors(factors) -> tuple:
    """factors as a tuple, or DomainError unless a nonempty list of FactorSpec: the one rule."""
    try:
        factors = tuple(factors)
    except TypeError:
        raise DomainError(f"factors must be a list of FactorSpec, got {factors!r}") from None
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
        object.__setattr__(self, "zeta", _check_tol(zeta, "zeta"))

    @staticmethod
    def _check_spec(spec) -> OperatorSpec:
        """spec, or DomainError unless an OperatorSpec: the one spec rule. It is the
        class's, so every module that imports OperatorSpec reaches it."""
        if not isinstance(spec, OperatorSpec):
            raise DomainError(f"spec must be an OperatorSpec, got {spec!r}")
        return spec


def _as_point(z) -> complex:
    return _check_disk(z.z if isinstance(z, EvalPoint) else z)


# --- the coefficient engine ---------------------------------------------------
#
# Each table builder takes (subject, tol, length, solved) and returns a new
# table, a list of floats, that vanishes at the origin. solved is a dict
# that keeps the builder's solved series between calls on one subject and
# tol, each a list that series_solve continues: a longer table extends a
# shorter one exactly and solves only its new terms. Without solved, the
# call solves H and V from the first term. A factor's t A'/A depends on
# its (alpha, beta) and tol alone, so it lives in mittag_leffler's cache,
# beside the factor's table, and no certificate of the process solves
# one of its terms twice. Its terms, once appended, never change, so any
# thread may read them; appending waits for _EXTENDING.

_EXTENDING = threading.Lock()


def _log_derivative_coefficients(factors, tol: float, length: int, solved: dict = None) -> list:
    """(q_0, ..., q_{length-1}) of Q = t P'/P; q_0 = 0.

    Each factor's table A is mittag_leffler's cached one, exact to tol on
    the unit circle, and contributes t A'/A / lambda. Its t A'/A is kept
    beside A in that cache, for every certificate of the process, and
    solved on only past the terms it has; solved keeps nothing here. Q is
    also (1 + zF''/F') - 1 of the zeta-free operator, and for the one
    factor E/z with lambda = 1 it is z E'/E - 1.
    """
    q = [0.0] * length
    for factor in factors:
        table, part = _factor_series(factor.params.alpha, factor.params.beta, tol)
        with _EXTENDING:  # every thread shares part; one at a time appends to it
            if len(part) < length:
                series_solve(table, [n * c for n, c in enumerate(table)], length, x=part)
        q = [total + x / factor.lam for total, x in zip(q, part)]  # part's first length terms
    return q


def _star_coefficients(spec: OperatorSpec, tol: float, length: int, solved: dict = None) -> list:
    """(v_0, ..., v_{length-1}) of zF'/F - 1 = 1/H - 1; v_0 = 0.

    H = G/P solves (zeta + Q) H + z H' = zeta, and V = 1/H solves H V = 1;
    solved keeps them under "h" and "v". They depend on zeta and every
    lambda, so they are the certificate's own; Q's factors are shared.
    """
    solved = {} if solved is None else solved
    q = _log_derivative_coefficients(spec.factors, tol, length)
    h = series_solve([spec.zeta] + q[1:], [spec.zeta], length, derivative=True,
                     x=solved.setdefault("h", []))
    v = series_solve(h, [1.0], length, x=solved.setdefault("v", []))
    return [0.0] + v[1:]


def _log_ratio_coefficients(spec: OperatorSpec, tol: float, length: int,
                            solved: dict = None) -> list:
    """log(F/z) = Integral_0^z (zF'/F - 1) dt/t = sum_{n>=1} v_n z^n / n."""
    return [v / max(n, 1) for n, v in enumerate(_star_coefficients(spec, tol, length, solved))]


# A cut leaves at least this many table terms after it, so that the terms
# it drops are measured, not extrapolated.
_MEASURED_TAIL = 8
# The largest sum of |c_n| r^n a cut accepts: every sum on a circle of
# radius at most r is bounded by it, so none can overflow in rounding.
_SUM_MAX = 1e300
_FIRST_LENGTH = 16  # of a table's first build, which _sized_table grows by half


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


def _sized_table(coefficients, subject, radius: float, tol: float) -> tuple:
    """(terms, tail, reason) of coefficients(subject, tol, length) cut on |z| = radius.

    The length starts at _FIRST_LENGTH and grows by half, 16, 24, 36, ..., 181,
    until _operator_cut finds a cut: terms is the table up to its count, tail
    its tail and reason None. Each length solves only the terms past the last,
    as coefficients continues the series it keeps in one solved dict or, for a
    factor's t A'/A, in mittag_leffler's cache. Every caller sums terms and
    cuts nothing again; a grid passes its outermost radius. Without a cut at
    SERIES_TERM_CAP, terms is empty and reason, written here alone, says why.
    """
    solved = {}
    length = _FIRST_LENGTH
    while True:
        table = coefficients(subject, tol, length, solved)
        count, tail = _operator_cut(table, radius, tol)
        if count:
            return table[:count], tail, None
        if length >= SERIES_TERM_CAP:
            return [], tail, (f"series at |z| = {radius:g} keeps a tail of {tail:.3g} "
                              f"after {len(table) - _MEASURED_TAIL} terms")
        length = min(length + length // 2, SERIES_TERM_CAP)


def _table_value(coefficients, subject, z: complex, tol: float) -> SeriesResult:
    """The table's sum at one point, from its terms summed for |z|, with their tail.

    Raises SeriesTruncationError when the table has no cut at |z|.
    """
    terms, tail, reason = _sized_table(coefficients, subject, abs(z), _check_tol(tol, "tol"))
    if reason is not None:
        raise SeriesTruncationError(reason)
    return SeriesResult(_horner(terms, z), len(terms), tail)


def _operator_value(spec: OperatorSpec, z, tol: float, power: bool) -> SeriesResult:
    """F(z) = z (F(z)/z), or F(z)^zeta = z^zeta (F(z)/z)^zeta if power.

    (F/z)^e = exp(e log(F/z)) is continued from 1 at the origin, and z^zeta
    is the principal power. The result carries the terms and tail of the
    log(F/z) table's cut; the tail bounds the absolute error of log(F/z),
    so it is the relative error of F. The series of log(F/z) has no cut
    past a zero of G or of a factor.
    """
    spec, zc = OperatorSpec._check_spec(spec), _as_point(z)
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
    spec, zc = OperatorSpec._check_spec(spec), _as_point(z)
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
