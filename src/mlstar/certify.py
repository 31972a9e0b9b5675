"""Certificates for starlikeness and convexity orders on the circle |z| = r_max.

A certificate compares a predicted order against the extremum of the
certified quantity on the circle |z| = r_max, its one geometric input:
Re zF'/F, Re(1 + zF''/F') and Re z E'/E are harmonic wherever the
functions are nonvanishing, and |z E'/E - 1| is subharmonic, so each
extremum over |z| <= r_max lies on that circle.

Every certified quantity is summed from one coefficient table, cut once
on r_max. A cut bounds every circle sum by the finite sum of |c_n| r_max^n,
so no point fails alone: a certificate passes or fails whole. A
singularity within reach of r_max, such as a zero of E, leaves the table
without a cut; then nothing is summed, and the certificate fails with
_no_cut's reason.

On |z| = r_max, with t_n = c_n r_max^n for the cut, each certified
quantity is a cosine polynomial S(theta) = sum a_n cos n theta, even in
theta, so [0, pi] holds its extremum: a = (1 + t_0, t_1, t_2, ...) is
Re(1 + g) for the order kinds, and S = -|g|^2 = -(rho_0 + 2 sum rho_k
cos k theta), with rho the autocorrelation of t, for the bound, whose
maximum of |g| is the minimum of S. _extremum proves where the minimum of
S lies to rounding. Because 1 - cos n phi <= n^2 (1 - cos phi),
a_1 >= sum_{n>=2} n^2 |a_n| puts the minimum at theta = pi, and
-a_1 >= sum_{n>=2} n^2 |a_n| puts it at 0, each with a rounding
allowance; elsewhere a branch and bound on arcs brackets it to rounding.
The extremum is proven for the summed cut, and r_max may be 1, the
boundary itself; but the tables' tails past the cut are extrapolated
(operators._operator_cut), so a certificate is still evidence about the
disk, not a proof, and says so in its serialized form.

A circle sum is Horner in Python complex numbers: the terms t_n of the
circle at e^(i theta). The CLI's dump takes each circle from _circle,
which sums the half k = 0 ... M/2 and mirrors it: the tables are real, so
the point M - k holds the conjugate of the value at k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .defaults import EVAL_TOLERANCE, R_MAX, SERIES_TOL
from .errors import DomainError
from .mittag_leffler import MLParams, _check_radius, _check_tol, _horner, _real
from .operators import (
    EvalPoint,
    FactorSpec,
    OperatorSpec,
    _log_derivative_coefficients,
    _no_cut,
    _sized_table,
    _star_coefficients,
)
from .orders import convex_delta, log_deriv_bound, ml_starlike_hypothesis, starlike_delta
from .records import _Record

__all__ = [
    "Certificate",
    "certify_starlike",
    "certify_convex",
    "certify_ml_starlike",
    "check_log_deriv_bound",
    "QUANTITY_STARLIKE_OPERATOR",
    "QUANTITY_CONVEX_OPERATOR",
    "QUANTITY_STARLIKE_ML",
    "QUANTITY_LOG_DERIV_BOUND",
]

QUANTITY_STARLIKE_OPERATOR = "starlike-operator"
QUANTITY_CONVEX_OPERATOR = "convex-operator"
QUANTITY_STARLIKE_ML = "starlike-ml"
QUANTITY_LOG_DERIV_BOUND = "log-deriv-bound"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_HYPOTHESIS = "hypothesis-violated"

RULE_ENDPOINT = "endpoint"   # the n^2 test put the extremum at theta = 0 or pi
RULE_BISECTED = "bisected"   # the branch and bound bracketed it
RULE_UNSUMMED = "unsummed"   # the table has no cut, so nothing was summed


def _finite_or_none(x):
    """x, or None for NaN and inf: the one way a report writes a number, as strict JSON."""
    return x if x is None or math.isfinite(x) else None


def _check_tolerances(series_tol, margin_tol, names=("series_tol", "eval_tolerance")) -> tuple:
    """(series_tol, margin_tol), each by _check_tol, or DomainError unless series <= margin."""
    margin_tol, series_tol = _check_tol(margin_tol, names[1]), _check_tol(series_tol, names[0])
    if not series_tol <= margin_tol:
        raise DomainError(f"series tolerance {series_tol!r} exceeds the margin tolerance "
                          f"{margin_tol!r}: the truncation error could hide a failed margin")
    return series_tol, margin_tol


def _circle_terms(table, count: int, r: float) -> list:
    """The terms t_n = c_n r^n of the cut table[:count] on the circle |z| = r."""
    return [c * r ** n for n, c in enumerate(table[:count])]


def _end_sum(terms, end: float) -> float:
    """sum t_n end^n at end = 1 or -1, theta = 0 or pi: a real sum, correctly rounded."""
    return math.fsum(terms if end > 0.0 else (-t if n % 2 else t for n, t in enumerate(terms)))


def _circle_sum(terms, theta: float) -> complex:
    """sum t_n e^(i n theta) by Horner for theta in [0, pi]; real at 0 and pi."""
    if theta == 0.0 or theta == math.pi:
        return complex(_end_sum(terms, 1.0 if theta == 0.0 else -1.0), 0.0)
    return _horner(terms, complex(math.cos(theta), math.sin(theta)))


def _circle_half(terms, m: int) -> list:
    """The sums at e^(2 pi i k/m), k = 0 ... m/2: m/2 + 1 complex values."""
    half = [_circle_sum(terms, 2.0 * math.pi * k / m) for k in range((m + 1) // 2)]
    if m % 2 == 0:
        half.append(_circle_sum(terms, math.pi))
    return half


def _circle(table, count: int, r: float, m: int) -> list:
    """dump's m sums of the cut table[:count] on |z| = r: the half, and its conjugate mirror."""
    half = _circle_half(_circle_terms(table, count, r), m)
    return half + [v.conjugate() for v in reversed(half[1 : (m + 1) // 2])]


_EPS = 2.0 ** -52
_FIRST_ARCS = 32  # the arcs of [0, pi] that the branch and bound samples first
# Most evaluations of S in one branch and bound; past them it stops and
# reports the proven bound of the arcs still open.
_EVALUATIONS_MAX = 1 << 14


def _cosine_polynomial(terms, largest: bool) -> tuple:
    """(a, rounding): S = sum a_n cos n theta, the quantity whose minimum a certificate takes.

    a = (1 + t_0, t_1, ...) is Re(1 + g) for an order; for the bound, S =
    -|g|^2 = -(rho_0 + 2 sum rho_k cos k theta), with rho the
    autocorrelation of t. rounding bounds sum n^2 |a_n - computed a_n|.
    """
    if not largest:
        return [1.0 + terms[0], *terms[1:]], 0.0
    if len(terms) > 1 and terms[0] == 0.0:
        terms = terms[1:]  # |g| = |g/e^(i theta)|: the tables vanish at the origin
    rho = [sum(map(mul, terms, terms[k:])) for k in range(len(terms))]
    # each rho_k is off by at most N eps sum_j |t_j t_(j+k)| <= N eps rho_0 (Cauchy-Schwarz)
    weights = sum(n * n for n in range(len(terms)))
    return [-rho[0], *(-2.0 * r for r in rho[1:])], 2.0 * len(terms) * _EPS * rho[0] * weights


def _extremum(terms, largest: bool) -> tuple:
    """The minimum of Re(1 + g), or the maximum of |g| if largest, on the circle of terms.

    g = sum t_n e^(i n theta). Returns (extremum, theta in [0, pi], rule).
    With B = sum_{n>=2} n^2 |a_n|, the n^2 test -a_1 >= B (or a_1 >= B),
    with a rounding allowance, proves that the minimum of S lies at theta =
    0 (or pi): S(theta) - S(0) >= (-a_1 - B)(1 - cos theta). A constant S
    has it at 0. That is RULE_ENDPOINT; otherwise _bisect brackets the
    minimum, RULE_BISECTED.
    """
    a, rounding = _cosine_polynomial(terms, largest)
    a_1 = a[1] if len(a) > 1 else 0.0
    weighted = sum(n * n * abs(a[n]) for n in range(2, len(a)))
    allowance = rounding + 2.0 * len(a) * _EPS * weighted

    def value(theta):
        g = _circle_sum(terms, theta)
        return abs(g) if largest else 1.0 + g.real

    for theta, slope in ((0.0, -a_1), (math.pi, a_1)):
        if slope - weighted >= allowance:
            return value(theta), theta, RULE_ENDPOINT
    # a few units of rounding in a sum of S: its terms add up to at most this scale
    scale = sum(map(abs, terms)) ** 2 if largest else sum(map(abs, a))
    s = (lambda theta: -value(theta) ** 2) if largest else value
    theta, lower = _bisect(s, abs(a_1) + weighted, 4.0 * len(a) * _EPS * scale)
    if lower is None:
        return value(theta), theta, RULE_BISECTED
    return (math.sqrt(-lower) if largest else lower), theta, RULE_BISECTED


def _bisect(s, curvature: float, closing: float) -> tuple:
    """(theta*, lower): where S is least among the angles of [0, pi] it visits.

    Branch and bound: S is sampled at the ends of _FIRST_ARCS arcs; an arc
    of width h whose bound min(ends) - curvature h^2/8 clears the best
    value less `closing` cannot hold the minimum and is dropped, and the
    others are bisected. Here curvature = sum n^2 |a_n| >= max |S''|. When
    no arc is left, the minimum lies within `closing` below S(theta*), and
    lower is None; past _EVALUATIONS_MAX evaluations, lower is the least
    bound of the arcs still open.
    """
    h = math.pi / _FIRST_ARCS
    thetas = [k * h for k in range(_FIRST_ARCS)] + [math.pi]
    values = [s(theta) for theta in thetas]
    k = min(range(len(values)), key=values.__getitem__)
    best, best_theta = values[k], thetas[k]
    arcs = list(zip(thetas, values, thetas[1:], values[1:]))
    evaluations = len(values)
    while True:
        slack = curvature * h * h / 8.0
        arcs = [arc for arc in arcs if min(arc[1], arc[3]) - slack < best - closing]
        if not arcs:
            return best_theta, None
        if evaluations >= _EVALUATIONS_MAX:
            return best_theta, min(best, min(min(arc[1], arc[3]) for arc in arcs) - slack)
        h *= 0.5
        split = []
        for lo, s_lo, hi, s_hi in arcs:
            mid = 0.5 * (lo + hi)
            s_mid = s(mid)
            if s_mid < best:
                best, best_theta = s_mid, mid
            split += ((lo, s_lo, mid, s_mid), (mid, s_mid, hi, s_hi))
        evaluations += len(arcs)
        arcs = split


class Certificate(_Record):
    """Verdict record for one certified quantity.

    ``observed`` holds the extremum of the summed cut on |z| = r_max, a
    minimum for the order quantities and a maximum for the deviation-bound
    check, proven to rounding, and ``argmin`` the point where it is taken:
    theta = 0 or pi when the n^2 test places it, or the angle that the
    branch and bound refined. ``semantics`` names the rule, "endpoint",
    "bisected" or "unsummed". ``margin`` is always the distance into the
    safe side, so the pass rule is uniformly margin >= -eval_tolerance,
    with hypotheses intact. ``argmin.radius`` is r_max. A table without a
    cut on r_max is not summed: ``reason`` says why, ``observed`` is NaN,
    and the verdict is fail. jobs.ReportDocument adds the job's grid.
    """

    __slots__ = ("quantity", "predicted", "observed", "argmin", "margin", "eval_tolerance",
                 "verdict", "hypothesis_ok", "reason", "series_tol", "semantics")

    def __init__(self, quantity: str, predicted: float, observed: float, argmin: EvalPoint,
                 margin: float, eval_tolerance: float, verdict: str, hypothesis_ok: bool,
                 reason: str = None, series_tol: float = SERIES_TOL,
                 semantics: str = f"{RULE_ENDPOINT}-min certificate on |z| = r_max"):
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "argmin", argmin)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "eval_tolerance", eval_tolerance)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "hypothesis_ok", hypothesis_ok)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "series_tol", series_tol)
        object.__setattr__(self, "semantics", semantics)

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "predicted": _finite_or_none(self.predicted),
            "observed": _finite_or_none(self.observed),
            "argmin": {
                "radius": self.argmin.radius,
                "angle": self.argmin.angle,
                "re": self.argmin.z.real,
                "im": self.argmin.z.imag,
            },
            "margin": _finite_or_none(self.margin),
            "eval_tolerance": self.eval_tolerance,
            "verdict": self.verdict,
            "hypothesis_ok": self.hypothesis_ok,
            "series_tol": self.series_tol,
            "semantics": self.semantics,
        }


# Every certified quantity Q has one coefficient table, whose sum is Q - 1:
# Q is 1 for the identity function, and the bound certificate needs |Q - 1|
# itself, so no 1 is ever subtracted from a computed Q. Certificates project
# the deviation, and the CLI's dump prints 1 + deviation.


def _verdict(margin: float, eval_tolerance: float, hypothesis_ok: bool, summed: bool) -> str:
    if not summed:
        return VERDICT_FAIL
    if not hypothesis_ok:
        return VERDICT_HYPOTHESIS
    return VERDICT_PASS if margin >= -eval_tolerance else VERDICT_FAIL


class _Claim(namedtuple("_Claim", "quantity predicted hypothesis_ok sampled coefficients subject "
                                  "largest", defaults=(False,))):
    """One certificate's prediction and sampled quantity, named ``sampled`` in dumps.

    The quantity minus 1 is the table coefficients(subject, tol, length);
    ``table(radius, series_tol)`` sizes it for the radius and returns
    it with its cut there, so predicting evaluates no series.
    ``largest`` marks the bound, which certifies a maximum.
    """

    __slots__ = ()

    def table(self, radius: float, series_tol: float) -> tuple:
        return _sized_table(self.coefficients, self.subject, radius, series_tol)


def _checked(r_max, eval_tolerance, series_tol, predicted) -> tuple:
    """The public functions' numbers, checked as a job's are when it is parsed, so
    run_job calls _certify directly; predicted is None or finite."""
    r_max = _check_radius(r_max, "r_max")
    series_tol, eval_tolerance = _check_tolerances(series_tol, eval_tolerance)
    if predicted is not None and not math.isfinite(predicted := _real(predicted, "predicted")):
        raise DomainError(f"predicted must be finite, got {predicted!r}")
    return r_max, eval_tolerance, series_tol, predicted


def _certify(claim: _Claim, r_max: float, eval_tolerance: float, series_tol: float,
             predicted: float) -> Certificate:
    """Take the claim's extremum on |z| = r_max and judge it against the prediction.

    The margin is the distance into the safe side: observed - target for an
    order, target - observed for the bound. Its callers check the numbers.
    """
    target = claim.predicted if predicted is None else float(predicted)
    table, (count, tail) = claim.table(r_max, series_tol)
    if count:
        observed, theta, rule = _extremum(_circle_terms(table, count, r_max), claim.largest)
        reason = None
    else:
        observed, theta, rule = math.nan, 0.0, RULE_UNSUMMED
        reason = _no_cut(table, r_max, tail)
    margin = target - observed if claim.largest else observed - target
    verdict = _verdict(margin, eval_tolerance, claim.hypothesis_ok, reason is None)
    return Certificate(
        claim.quantity, target, observed, EvalPoint.from_polar(r_max, theta), margin,
        eval_tolerance, verdict, claim.hypothesis_ok, reason, series_tol,
        f"{rule}-{'max' if claim.largest else 'min'} certificate on |z| = r_max",
    )


def _starlike_claim(spec: OperatorSpec) -> _Claim:
    report = starlike_delta(spec)
    return _Claim(
        QUANTITY_STARLIKE_OPERATOR, report.delta, report.hypothesis_ok, "star-log-deriv",
        _star_coefficients, spec,
    )


def certify_starlike(
    spec: OperatorSpec,
    r_max: float = R_MAX,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(z F'/F) > delta on |z| <= r_max for the rooted operator.

    ``predicted`` overrides the closed-form order; negative-control jobs
    use that to verify the certifier can fail.
    """
    return _certify(_starlike_claim(spec),
                    *_checked(r_max, eval_tolerance, series_tol, predicted))


def _convex_claim(factors) -> _Claim:
    factors = tuple(factors)
    report = convex_delta(factors)
    return _Claim(
        QUANTITY_CONVEX_OPERATOR, report.delta, report.hypothesis_ok, "convex-log-deriv",
        _log_derivative_coefficients, factors,
    )


def certify_convex(
    factors,
    r_max: float = R_MAX,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(1 + z F''/F') > delta for the zeta-free operator."""
    return _certify(_convex_claim(factors),
                    *_checked(r_max, eval_tolerance, series_tol, predicted))


def _ml_starlike_claim(params: MLParams, eta: float) -> _Claim:
    return _Claim(
        QUANTITY_STARLIKE_ML, eta, ml_starlike_hypothesis(params, eta), "ml-log-deriv",
        _log_derivative_coefficients, (FactorSpec(params, 1.0),),  # Q = z E'/E - 1
    )


def certify_ml_starlike(
    params: MLParams,
    eta: float,
    r_max: float = R_MAX,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(z E'/E) > eta for one normalized function."""
    return _certify(_ml_starlike_claim(params, eta),
                    *_checked(r_max, eval_tolerance, series_tol, predicted))


def _log_deriv_bound_claim(params: MLParams) -> _Claim:
    bound = log_deriv_bound(params)  # raises DomainError for beta at/below golden
    return _Claim(
        QUANTITY_LOG_DERIV_BOUND, bound, True, "ml-log-deriv",
        _log_derivative_coefficients, (FactorSpec(params, 1.0),), largest=True,
    )


def check_log_deriv_bound(
    params: MLParams,
    r_max: float = R_MAX,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Check the uniform bound on |z E'/E - 1| on |z| <= r_max.

    Passes when the observed maximum stays within eval_tolerance of the
    bound; the margin is bound - max so the sign convention matches the
    other certificates.
    """
    return _certify(_log_deriv_bound_claim(params),
                    *_checked(r_max, eval_tolerance, series_tol, predicted))
