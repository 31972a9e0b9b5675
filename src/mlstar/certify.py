"""Sampled-minimum certificates for starlikeness and convexity orders.

A certificate compares a predicted order against the extremum of the
certified quantity on the outermost circle |z| = r_max of a polar grid:
Re zF'/F, Re(1 + zF''/F') and Re z E'/E are harmonic wherever the
functions are nonvanishing, and |z E'/E - 1| is subharmonic, so each
extremum over |z| <= r_max lies on that circle. Certificates scan r_max;
dump samples every radius. A certificate is finite-sample evidence, not a
proof, and says so in its serialized form.

Every certified quantity is summed from one coefficient table, cut once
on r_max: |c_n| r^n grows with r, so that is a cut on the inner circles
that dump sums too. A cut bounds every circle sum by the finite sum of
|c_n| r_max^n, so no point fails alone: a certificate passes or fails
whole. A singularity within reach of r_max, such as a zero of E, leaves
the table without a cut; then no point is summed, and the certificate
fails with _no_cut's reason. Each circle's half k = 0 ... M/2 is one
matrix product of its own: the sum at r e^(2 pi i k/M) is
sum_n c_n r^n e^(2 pi i nk/M), against a cached cos/sin basis of
2 pi (nk mod M)/M, which folds a cut longer than M. The tables are real,
so the point M - k holds the conjugate of the value at k: one argmin over
r_max's half picks the point a scan of the whole circle would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .defaults import (
    EVAL_TOLERANCE,
    GRID_ANGLES,
    GRID_ANGLES_MAX,
    GRID_POINTS_MAX,
    R_MAX,
    SERIES_TOL,
)
from .errors import DomainError
from .mittag_leffler import MLParams
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

__all__ = [
    "GridSpec",
    "Certificate",
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


def default_radii(r_max: float = R_MAX) -> tuple:
    base = [r for r in (0.25, 0.5, 0.75, 0.9, 0.99) if r < r_max]
    return tuple(base + [r_max])


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling plan: ascending radii plus a uniform angle count.

    The open disk cannot be sampled at radius 1, so r_max < 1, the outermost
    radius, stands in for the boundary; it is recorded in every certificate.
    Certificates scan r_max; dump samples every radius. r_max alone (default
    R_MAX) picks default_radii, radii alone set r_max; given both, they must
    agree. A grid holds at most GRID_POINTS_MAX points, radii x angles.
    """

    radii: tuple = None
    r_max: float = None
    angles: int = GRID_ANGLES

    def __post_init__(self):
        r_max = None if self.r_max is None else _real(self.r_max, "r_max")
        if r_max is not None and not 0.0 < r_max < 1.0:
            raise DomainError(f"r_max must lie in (0, 1), got {r_max!r}")
        if self.radii is None:
            radii = default_radii(R_MAX if r_max is None else r_max)
        else:
            radii = tuple(_real(r, "a radius") for r in self.radii)
        if not radii:
            raise DomainError("grid needs at least one radius")
        for a, b in zip(radii, radii[1:]):
            if not a < b:
                raise DomainError(f"radii must ascend strictly, got {radii!r}")
        if not (0.0 < radii[0] and radii[-1] < 1.0):
            raise DomainError(f"radii must lie in (0, 1), got {radii!r}")
        if r_max is not None and r_max != radii[-1]:
            raise DomainError(f"r_max {r_max!r} is not the outermost radius {radii[-1]!r}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "r_max", radii[-1])
        if isinstance(self.angles, bool) or not isinstance(self.angles, (int, np.integer)):
            raise DomainError(f"angles must be an integer, got {self.angles!r}")
        if not 8 <= self.angles <= GRID_ANGLES_MAX:
            raise DomainError(f"angles must lie in [8, {GRID_ANGLES_MAX}], got {self.angles!r}")
        object.__setattr__(self, "angles", int(self.angles))
        if self.total_points() > GRID_POINTS_MAX:
            raise DomainError(f"a grid holds at most {GRID_POINTS_MAX} points, got "
                              f"{len(radii)} radii x {self.angles} angles")

    def circle_angles(self) -> np.ndarray:
        return self.circle_angle(np.arange(self.angles))

    def circle_angle(self, k):
        """The angle 2 pi k/angles of point k of every circle; k may be an index array."""
        return 2.0 * np.pi * k / self.angles

    def total_points(self) -> int:
        return len(self.radii) * self.angles

    def to_dict(self) -> dict:
        return {"radii": list(self.radii), "r_max": self.r_max, "angles": self.angles}


# Bases kept by _circle_basis; one holds rows x (M + 2) doubles: at 4096
# angles 0.5 MB for 16 rows, and 8.4 MB for the 256 that the longest cut
# under SERIES_TERM_CAP needs.
_BASES = 4


@lru_cache(maxsize=_BASES)
def _circle_basis(rows: int, m: int) -> np.ndarray:
    """cos and sin of 2 pi n k/m, interleaved, for n < rows and k = 0 ... m/2.

    Row n holds (cos, sin) pairs, so a row vector of terms times the basis
    reads as the complex sums at the angles 2 pi k/m. Each angle is taken
    from n k mod m and reduced to (-pi, pi] first, and sin is exactly 0
    where 2 n k = 0 mod m, at k = 0 and k = m/2.
    """
    j = np.arange(rows)[:, None] * np.arange(m // 2 + 1) % m
    angle = 2.0 * np.pi * np.where(2 * j > m, j - m, j) / m
    basis = np.empty((rows, m // 2 + 1, 2))
    basis[..., 0] = np.cos(angle)
    basis[..., 1] = np.where(2 * j % m == 0, 0.0, np.sin(angle))
    basis = basis.reshape(rows, -1)
    basis.flags.writeable = False
    return basis


def _half_circle_sums(r: float, m: int, table, count: int) -> np.ndarray:
    """The sums of table[:count] at r e^(2 pi i k/m), k = 0 ... m/2: m/2 + 1 complex values.

    The cut becomes an array here, once: its terms c_n r^n, as a
    (1 x count) row, times _circle_basis give the half in one product; the
    basis has a power of two rows, at least 16, so that few cuts share one.
    """
    terms = np.array(table[:count]) * r ** np.arange(count)
    rows = max(16, 1 << (count - 1).bit_length())
    return (terms[None] @ _circle_basis(rows, m)[:count])[0].view(complex)


def _mirror(half, m: int) -> np.ndarray:
    """The full circle k = 0 ... m - 1 from its half: the point m - k is the conjugate of k."""
    return np.concatenate((half, half[(m + 1) // 2 - 1 : 0 : -1].conj()))


@dataclass(frozen=True)
class Certificate:
    """Verdict record for one certified quantity.

    ``observed`` holds the extremal sampled value: a minimum for the order
    quantities and a maximum for the deviation-bound check. ``margin`` is
    always the distance into the safe side, so the pass rule is uniformly
    margin >= -eval_tolerance, with hypotheses intact. A table without a
    cut on r_max is not summed: ``reason`` says why, ``observed`` is NaN,
    all M points of r_max count as failed, and the verdict is fail.
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
    reason: str = None
    series_tol: float = SERIES_TOL
    semantics: str = "sampled-min certificate on |z| = r_max"

    @property
    def failed_count(self) -> int:
        """The points of r_max left unsummed: none, or all M when there is a reason."""
        return 0 if self.reason is None else self.grid.angles

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
            "failed_points": {"count": self.failed_count, "reason": self.reason},
            "series_tol": self.series_tol,
            "semantics": self.semantics,
        }


# Every certified quantity Q has one coefficient table, whose sum is Q - 1:
# Q is 1 for the identity function, and the bound certificate needs |Q - 1|
# itself, so no 1 is ever subtracted from a computed Q. Certificates project
# the deviation, and the CLI's dump prints 1 + deviation.


def sample_grid(grid: GridSpec, table, cut):
    """Sum the quantity's table on each circle of the grid in turn, for dump.

    cut is the table's cut on r_max, as _sized_table returns it. Returns
    None when the table has no cut: then no point is summed. Otherwise it
    returns an iterator over the radii in grid order that sums each circle
    as it is reached: the deviation at all M angles, a complex array. Each
    circle is its own product, the one _scan makes, so the circle r_max is
    what _scan scans, bit for bit, and no circle moves with the others.
    """
    count, _ = cut
    if not count:
        return None
    m = grid.angles
    return (_mirror(_half_circle_sums(r, m, table, count), m) for r in grid.radii)


def _scan(grid: GridSpec, table, cut, largest: bool):
    """Minimize Re Q, or maximize |Q - 1| if largest, over the circle |z| = r_max.

    Returns (extremum, argmin EvalPoint, reason); ties go to the smallest
    angle index. It scans the half of r_max, the first of each pair of
    mirror points. A table without a cut is not summed: the extremum is
    NaN at angle 0, and the reason is _no_cut's; otherwise it is None.
    """
    r, m = grid.r_max, grid.angles
    count, tail = cut
    if not count:
        return math.nan, EvalPoint.from_polar(r, 0.0), _no_cut(table, r, tail)
    half = _half_circle_sums(r, m, table, count)
    values = -np.abs(half) if largest else 1.0 + half.real
    k = int(np.argmin(values))
    best = float(values[k])
    return (-best if largest else best), EvalPoint.from_polar(r, grid.circle_angle(k)), None


def _verdict(margin: float, eval_tolerance: float, hypothesis_ok: bool, summed: bool) -> str:
    if not summed:
        return VERDICT_FAIL
    if not hypothesis_ok:
        return VERDICT_HYPOTHESIS
    return VERDICT_PASS if margin >= -eval_tolerance else VERDICT_FAIL


class _Claim(NamedTuple):
    """One certificate's prediction and sampled quantity, named ``sampled`` in dumps.

    The quantity minus 1 is the table coefficients(subject, tol, length);
    ``table(radius, series_tol)`` sizes it for a grid's r_max and returns
    it with its cut there, so predicting evaluates no series.
    ``largest`` marks the bound, which certifies a maximum.
    """

    quantity: str
    predicted: float
    hypothesis_ok: bool
    sampled: str
    coefficients: object
    subject: object
    largest: bool = False

    def table(self, radius: float, series_tol: float) -> tuple:
        return _sized_table(self.coefficients, self.subject, radius, series_tol)


def _certify(claim: _Claim, grid: GridSpec, eval_tolerance: float, series_tol: float,
             predicted: float) -> Certificate:
    """Scan the claim's quantity on the grid's r_max and judge it against the prediction.

    The margin is the distance into the safe side: observed - target for an
    order, target - observed for the bound.
    """
    if series_tol > eval_tolerance:
        raise DomainError(f"series tolerance {series_tol!r} exceeds the margin tolerance "
                          f"{eval_tolerance!r}")
    grid = grid or GridSpec()
    target = claim.predicted if predicted is None else float(predicted)
    table, cut = claim.table(grid.r_max, series_tol)
    observed, point, reason = _scan(grid, table, cut, claim.largest)
    margin = target - observed if claim.largest else observed - target
    verdict = _verdict(margin, eval_tolerance, claim.hypothesis_ok, reason is None)
    return Certificate(
        claim.quantity, target, observed, point, margin, grid,
        eval_tolerance, verdict, claim.hypothesis_ok, reason, series_tol,
        f"sampled-{'max' if claim.largest else 'min'} certificate on |z| = r_max",
    )


def _starlike_claim(spec: OperatorSpec) -> _Claim:
    report = starlike_delta(spec)
    return _Claim(
        QUANTITY_STARLIKE_OPERATOR, report.delta, report.hypothesis_ok, "star-log-deriv",
        _star_coefficients, spec,
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
        _log_derivative_coefficients, factors,
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
        _log_derivative_coefficients, (FactorSpec(params, 1.0),),  # Q = z E'/E - 1
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
        _log_derivative_coefficients, (FactorSpec(params, 1.0),), largest=True,
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
