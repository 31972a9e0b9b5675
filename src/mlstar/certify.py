"""Sampled-minimum certificates for starlikeness and convexity orders.

A certificate compares a predicted order against the minimum of the
relevant real part over a polar sampling grid of the unit disk. The real
parts involved are harmonic wherever the functions are nonvanishing, so
the disk minimum lives on the outermost sampled circle; inner radii are
kept as diagnostics. A certificate is finite-sample evidence, not a proof,
and says so in its serialized form.

The operator quantities, zF'/F and 1 + zF''/F', are each summed from one
coefficient table sized for the outermost circle, so they have no
denominator; a singularity within reach of a circle leaves the table
without a cut there, and the circle fails. The Mittag-Leffler kinds sum
z E'/E as a ratio of two series, whose denominator may vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import EVAL_TOLERANCE, FAILURE_FRACTION, GRID_ANGLES, R_MAX, SERIES_TOL
from .errors import DomainError, SeriesTruncationError
from .mittag_leffler import MLParams, _log_deriv_deviation
from .operators import (
    EvalPoint,
    OperatorSpec,
    _log_derivative_coefficients,
    _sized_table,
    _star_coefficients,
    _table_deviation,
)
from .orders import convex_delta, log_deriv_bound, ml_starlike_hypothesis, starlike_delta

__all__ = [
    "GridSpec",
    "Certificate",
    "FailedPoint",
    "certify_starlike",
    "certify_convex",
    "certify_ml_starlike",
    "check_log_deriv_bound",
    "sample_grid",
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

_FAILED_SAMPLE_CAP = 16


def default_radii(r_max: float = R_MAX) -> tuple:
    base = [r for r in (0.25, 0.5, 0.75, 0.9, 0.99) if r < r_max]
    return tuple(base + [r_max])


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling plan: ascending radii plus a uniform angle count.

    The open disk cannot be sampled at radius 1, so r_max < 1 stands in for
    the boundary; it is recorded in every certificate.
    """

    radii: tuple = None
    r_max: float = R_MAX
    angles: int = GRID_ANGLES

    def __post_init__(self):
        if not 0.0 < self.r_max < 1.0:
            raise DomainError(f"r_max must lie in (0, 1), got {self.r_max!r}")
        radii = self.radii
        if radii is None:
            radii = default_radii(self.r_max)
        radii = tuple(float(r) for r in radii)
        if not radii:
            raise DomainError("grid needs at least one radius")
        for a, b in zip(radii, radii[1:]):
            if not a < b:
                raise DomainError(f"radii must ascend strictly, got {radii!r}")
        if not (0.0 < radii[0] and radii[-1] <= self.r_max):
            raise DomainError(f"radii must lie in (0, r_max], got {radii!r}")
        object.__setattr__(self, "radii", radii)
        if not self.angles >= 8:
            raise DomainError(f"need at least 8 angles, got {self.angles!r}")

    def circle_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angles) / self.angles

    def total_points(self) -> int:
        return len(self.radii) * self.angles

    def to_dict(self) -> dict:
        return {"radii": list(self.radii), "r_max": self.r_max, "angles": self.angles}


@dataclass(frozen=True)
class FailedPoint:
    point: EvalPoint
    reason: str


@dataclass(frozen=True)
class Certificate:
    """Verdict record for one certified quantity.

    ``observed`` holds the extremal sampled value: a minimum for the order
    quantities and a maximum for the deviation-bound check. ``margin`` is
    always the distance into the safe side, so the pass rule is uniformly
    margin >= -eval_tolerance (with hypotheses intact and few enough failed
    points).
    """

    quantity: str
    predicted: float
    observed: float
    argmin: EvalPoint
    margin: float
    grid: GridSpec
    eval_tolerance: float
    verdict: str
    hypothesis_ok: bool
    failed_count: int = 0
    failed_sample: tuple = ()
    series_tol: float = SERIES_TOL
    semantics: str = "sampled-min certificate"

    def to_dict(self) -> dict:
        def clean(x):
            # keep reports strict JSON: no NaN/inf literals
            return x if x is None or math.isfinite(x) else None

        return {
            "quantity": self.quantity,
            "predicted": clean(self.predicted),
            "observed": clean(self.observed),
            "argmin": {
                "radius": self.argmin.radius,
                "angle": self.argmin.angle,
                "re": self.argmin.z.real,
                "im": self.argmin.z.imag,
            },
            "margin": clean(self.margin),
            "grid": self.grid.to_dict(),
            "eval_tolerance": self.eval_tolerance,
            "verdict": self.verdict,
            "hypothesis_ok": self.hypothesis_ok,
            "failed_points": {
                "count": self.failed_count,
                "sample": [
                    {"radius": f.point.radius, "angle": f.point.angle, "reason": f.reason}
                    for f in self.failed_sample
                ],
            },
            "series_tol": self.series_tol,
            "semantics": self.semantics,
        }


# Every certified quantity Q has one evaluator, evaluate(z) -> (Q - 1, bad),
# for the points z of one circle, where bad flags the points at which a
# normalized Mittag-Leffler value vanished; an operator quantity has no
# denominator and flags none. Q is 1 for the identity function, and the
# bound certificate needs |Q - 1| itself, so the evaluators return the
# deviation and never subtract 1 from a computed Q. Certificates project
# it, and the CLI's dump prints 1 + deviation.


def sample_grid(grid: GridSpec, evaluate) -> list:
    """Evaluate the quantity on each circle of the grid, radius-major.

    Returns one (radius, angles, deviation, failures) per circle, where
    failures maps an angle index to its reason. A SeriesTruncationError,
    which means the series has no cut on that circle, fails all of its
    points with the error's message, so one bad circle never aborts a
    certificate. Points not flagged but whose value is not finite fail too.
    """
    angles = grid.circle_angles()
    phase = np.exp(1j * angles)
    circles = []
    for r in grid.radii:
        try:
            deviation, bad = evaluate(r * phase)
            failures = dict.fromkeys(np.flatnonzero(bad).tolist(), "normalized value vanished")
        except SeriesTruncationError as exc:
            deviation = np.full(angles.shape, np.nan, dtype=complex)
            failures = dict.fromkeys(range(angles.size), str(exc))
        for idx in np.flatnonzero(~np.isfinite(deviation)):
            failures.setdefault(int(idx), "nonfinite value")
        circles.append((r, angles, deviation, failures))
    return circles


def _scan(grid: GridSpec, evaluate, largest: bool):
    """Minimize Re Q, or maximize |Q - 1| if largest, over the grid in deterministic order.

    Ties break toward the smallest radius, then the smallest angle index.
    Returns (extremum, argmin EvalPoint, failures, total_points).
    """
    sign = -1.0 if largest else 1.0
    best = math.inf
    best_point = None
    failures = []
    for r, angles, deviation, fails in sample_grid(grid, evaluate):
        masked = -np.abs(deviation) if largest else 1.0 + deviation.real
        for idx, reason in fails.items():
            masked[idx] = math.inf
            failures.append(
                FailedPoint(EvalPoint.from_polar(r, float(angles[idx])), reason)
            )
        k = int(np.argmin(masked))  # first occurrence, i.e. smallest angle
        if masked[k] < best:
            best = float(masked[k])
            best_point = EvalPoint.from_polar(r, float(angles[k]))
    if best_point is None or math.isinf(best):
        # nothing evaluated; the failure-fraction rule forces a fail verdict
        return math.nan, EvalPoint.from_polar(grid.radii[0], 0.0), failures, grid.total_points()
    return sign * best, best_point, failures, grid.total_points()


def _verdict(margin: float, eval_tolerance: float, hypothesis_ok: bool,
             failed: int, total: int) -> str:
    if failed > FAILURE_FRACTION * total:
        return VERDICT_FAIL
    if not hypothesis_ok:
        return VERDICT_HYPOTHESIS
    return VERDICT_PASS if margin >= -eval_tolerance else VERDICT_FAIL


def _table_evaluator(coefficients, subject, radius: float, series_tol: float):
    """An operator quantity, summed from one table sized for the circle |z| = radius."""
    table = _sized_table(coefficients, subject, radius, series_tol)
    return lambda z: (_table_deviation(table, z, series_tol), False)


class _Claim(NamedTuple):
    """One certificate's prediction and sampled quantity, named ``sampled`` in dumps.

    ``evaluator(radius, series_tol)`` builds the evaluator for circles up to
    the grid's outermost radius, so predicting evaluates no series.
    ``largest`` marks the bound, which certifies a maximum.
    """

    quantity: str
    predicted: float
    hypothesis_ok: bool
    sampled: str
    evaluator: object
    largest: bool = False


def _certify(claim: _Claim, grid: GridSpec, eval_tolerance: float, series_tol: float,
             predicted: float) -> Certificate:
    """Scan the claim's quantity over the grid and judge it against the prediction.

    The margin is the distance into the safe side: observed - target for an
    order, target - observed for the bound.
    """
    if series_tol > eval_tolerance:
        raise DomainError(f"series tolerance {series_tol!r} exceeds the margin tolerance "
                          f"{eval_tolerance!r}")
    grid = grid or GridSpec()
    target = claim.predicted if predicted is None else float(predicted)
    evaluate = claim.evaluator(grid.radii[-1], series_tol)
    observed, point, failures, total = _scan(grid, evaluate, claim.largest)
    margin = target - observed if claim.largest else observed - target
    verdict = _verdict(margin, eval_tolerance, claim.hypothesis_ok, len(failures), total)
    return Certificate(
        claim.quantity, target, observed, point, margin, grid,
        eval_tolerance, verdict, claim.hypothesis_ok,
        len(failures), tuple(failures[:_FAILED_SAMPLE_CAP]), series_tol,
    )


def _starlike_claim(spec: OperatorSpec) -> _Claim:
    report = starlike_delta(spec)
    return _Claim(
        QUANTITY_STARLIKE_OPERATOR, report.delta, report.hypothesis_ok, "star-log-deriv",
        lambda radius, tol: _table_evaluator(_star_coefficients, spec, radius, tol),
    )


def certify_starlike(
    spec: OperatorSpec,
    grid: GridSpec = None,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(z F'/F) > delta over the grid for the rooted operator.

    ``predicted`` overrides the closed-form order; negative-control jobs
    use that to verify the certifier can fail.
    """
    return _certify(_starlike_claim(spec), grid, eval_tolerance, series_tol, predicted)


def _convex_claim(factors) -> _Claim:
    factors = tuple(factors)
    report = convex_delta(factors)
    return _Claim(
        QUANTITY_CONVEX_OPERATOR, report.delta, report.hypothesis_ok, "convex-log-deriv",
        lambda radius, tol: _table_evaluator(_log_derivative_coefficients, factors, radius, tol),
    )


def certify_convex(
    factors,
    grid: GridSpec = None,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(1 + z F''/F') > delta for the zeta-free operator."""
    return _certify(_convex_claim(factors), grid, eval_tolerance, series_tol, predicted)


def _ml_starlike_claim(params: MLParams, eta: float) -> _Claim:
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must lie in [0, 1), got {eta!r}")
    return _Claim(
        QUANTITY_STARLIKE_ML, eta, ml_starlike_hypothesis(params, eta), "ml-log-deriv",
        lambda radius, tol: lambda z: _log_deriv_deviation(params, z, tol),
    )


def certify_ml_starlike(
    params: MLParams,
    eta: float,
    grid: GridSpec = None,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Certify Re(z E'/E) > eta for one normalized function."""
    return _certify(_ml_starlike_claim(params, eta), grid, eval_tolerance, series_tol, predicted)


def _log_deriv_bound_claim(params: MLParams) -> _Claim:
    bound = log_deriv_bound(params)  # raises DomainError for beta at/below golden
    return _Claim(
        QUANTITY_LOG_DERIV_BOUND, bound, True, "ml-log-deriv",
        lambda radius, tol: lambda z: _log_deriv_deviation(params, z, tol),
        largest=True,
    )


def check_log_deriv_bound(
    params: MLParams,
    grid: GridSpec = None,
    *,
    eval_tolerance: float = EVAL_TOLERANCE,
    series_tol: float = SERIES_TOL,
    predicted: float = None,
) -> Certificate:
    """Check the uniform bound on |z E'/E - 1| over the grid.

    Passes when the observed maximum stays within eval_tolerance of the
    bound; the margin is bound - max so the sign convention matches the
    other certificates.
    """
    return _certify(_log_deriv_bound_claim(params), grid, eval_tolerance, series_tol, predicted)
