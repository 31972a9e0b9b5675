"""Integral operators built from normalized Mittag-Leffler factors.

The central object is

    F(z) = { zeta * Integral_0^z t^(zeta-1) * Prod_j (E_j(t)/t)^(1/lambda_j) dt }^(1/zeta)

with every many-valued piece on the branch continued from the origin, where
the bracketed product equals 1. Integration runs along the radial segment
t = z*s with a graded substitution s = w^q:

    F(z)^zeta = z^zeta * q*zeta * Integral_0^1 w^(q*zeta - 1) P(z*w^q) dw,

where P is the factor product. The exponent q is an integer making q*zeta
an integer whenever possible (the integrand is then analytic at w = 0, and
Gauss-Legendre panels converge spectrally); otherwise it is large enough
that the endpoint exponent q*zeta - 1 stays at 4 or above.

The quantity z F'(z)/F(z) is computed from the exact identity

    z F'(z)/F(z) = z^zeta * Prod_j (E_j(z)/z)^(1/lambda_j) / F(z)^zeta,

so no numerical differentiation is ever involved; the z^zeta factors cancel
and only the ratio P(z) / Integral(P along the ray) remains. Likewise
1 + z F''/F' for the zeta-free convex variant is the closed form

    sum_j (1/lambda_j) * (z E_j'/E_j) + 1 - sum_j (1/lambda_j).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defaults import (
    DENOM_GUARD,
    PANEL_CAP,
    QUAD_TOL_VALUE,
    RAY_STEP_CAP,
    RAY_STEPS,
    SERIES_TOL,
)
from .errors import (
    DegenerateOperatorError,
    DomainError,
    NearZeroDenominatorError,
    PathResolutionError,
    QuadratureConvergenceError,
)
from .mittag_leffler import MLParams, _log_deriv_deviation, _ml_ratio_values
from .numerics import (
    QuadratureResult,
    _panel_nodes,
    _unwrap_along,
    principal_power,
    tracked_power,
)

__all__ = [
    "FactorSpec",
    "OperatorSpec",
    "EvalPoint",
    "product_term",
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


def product_term(spec: OperatorSpec, t: complex, trackers) -> complex:
    """Prod_j (E_j(t)/t)^(1/lambda_j) at one path point.

    ``trackers`` holds one BranchTracker per factor, owned by the caller's
    walk from the origin; branch errors and zero hits propagate.
    """
    t = complex(t)
    if t == 0:
        raise DomainError("product_term is defined for t != 0 (limit 1 at 0)")
    out = 1.0 + 0j
    for factor, tracker in zip(spec.factors, trackers, strict=True):
        # the normalized E(t)/t, exact down to tiny |t|
        ratio = complex(_ml_ratio_values(factor.params, np.array([t]))[0])
        if abs(ratio) < DENOM_GUARD:
            raise NearZeroDenominatorError(
                f"factor {factor.params} vanished at t = {t!r}", z=t
            )
        out *= tracked_power(ratio, 1.0 / factor.lam, tracker)
    return out


# --- vectorized ray engine --------------------------------------------------


def _product_logs(factors, t: np.ndarray, series_tol: float):
    """sum_j (1/lambda_j) * log(E_j(t)/t) with phases continued along rows.

    Rows of ``t`` are paths whose moduli ascend from the origin; the phase
    of every factor is unwrapped from its limit 0 there. The zero guard is
    on the ratio E(t)/t (which is 1 at the origin), so arbitrarily small
    path points stay valid. Returns (logs, denom_bad, phase_bad) where the
    masks flag whole rows.
    """
    logs = np.zeros(t.shape, dtype=complex)
    denom_bad = np.zeros(t.shape[:-1], dtype=bool)
    phase_bad = np.zeros(t.shape[:-1], dtype=bool)
    for factor in factors:
        u = _ml_ratio_values(factor.params, t, series_tol)
        bad = np.abs(u) < DENOM_GUARD
        denom_bad |= np.any(bad, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = np.where(bad, 1.0, u)
            phases, jump_bad = _unwrap_along(np.angle(u))
            logs = logs + (np.log(np.abs(u)) + 1j * phases) / factor.lam
        phase_bad |= jump_bad
    return logs, denom_bad, phase_bad


def _substitution_power(zeta: float) -> float:
    """Exponent q of the graded substitution s = w**q for one zeta.

    A small integer q with q*zeta an integer makes the weighted integrand
    analytic at w = 0; failing that, q*zeta - 1 >= 4 keeps it smooth enough
    for the dyadic panel ladder. q stays small so the w^(q*zeta - 1) weight
    never concentrates all nodes at the far endpoint. Very large zeta keeps
    q = 1/zeta, whose integrand is nearly constant instead of layered.
    """
    if zeta > 32.0:
        return 1.0 / zeta
    for q in range(1, 5):
        if abs(q * zeta - round(q * zeta)) < 1e-12:
            return float(q)
    return float(math.ceil(5.0 / zeta))


def _ray_sweep(
    factors,
    z_rows,
    zeta: float,
    quad_tol: float,
    series_tol: float = SERIES_TOL,
    panel_cap: int = PANEL_CAP,
):
    """Evaluate P(z) and G(z) = zeta * Integral_0^1 s^(zeta-1) P(z*s) ds per row.

    P is the factor product continued from the origin; the endpoint z is
    appended to each pass so that P(z) and the integral share one branch
    walk. Returns (p_end, g, err, panels, denom_bad, phase_bad); rows whose
    err exceeds quad_tol did not converge within the panel cap.
    """
    z = np.asarray(z_rows, dtype=complex).reshape(-1)
    q = _substitution_power(zeta)
    scale = q * zeta
    previous = None
    err = np.full(z.shape, np.inf)
    n_panels = 1
    while n_panels <= panel_cap:
        x, w = _panel_nodes(n_panels)
        s = np.concatenate([x**q, [1.0]])
        t = z[:, None] * s[None, :]
        logs, denom_bad, phase_bad = _product_logs(factors, t, series_tol)
        with np.errstate(over="ignore", invalid="ignore"):
            p_vals = np.exp(logs)
            finite = np.isfinite(p_vals).all(axis=-1)
            denom_bad |= ~finite
            weight = scale * x ** (scale - 1.0)
            g = (p_vals[:, :-1] * weight[None, :]) @ w
            p_end = p_vals[:, -1]
        if previous is not None:
            err = np.abs(g - previous)
            good = ~(denom_bad | phase_bad)
            worst = float(np.max(np.where(good, err, 0.0))) if good.any() else 0.0
            if worst <= quad_tol:
                return p_end, g, err, n_panels, denom_bad, phase_bad
        previous = g
        n_panels *= 2
    return p_end, g, err, panel_cap, denom_bad, phase_bad


def _sweep_single(factors, z: complex, zeta: float, quad_tol: float, series_tol: float):
    """One-point sweep that converts row flags into exceptions."""
    p_end, g, err, panels, denom_bad, phase_bad = _ray_sweep(
        factors, [z], zeta, quad_tol, series_tol
    )
    if denom_bad[0]:
        raise NearZeroDenominatorError(
            f"a factor vanished or overflowed along the ray to {z!r}", z=z
        )
    if phase_bad[0]:
        raise PathResolutionError(
            f"a factor phase jumped by a half turn along the ray to {z!r}"
        )
    if err[0] > quad_tol:
        raise QuadratureConvergenceError(
            f"operator quadrature stalled at error {float(err[0]):g} for z = {z!r}",
            best=QuadratureResult(complex(g[0]), float(err[0]), panels),
        )
    return complex(p_end[0]), complex(g[0])


def f_zeta_power(
    spec: OperatorSpec,
    z,
    tol: float = QUAD_TOL_VALUE,
    series_tol: float = SERIES_TOL,
) -> complex:
    """The brace contents: zeta * Integral_0^z t^(zeta-1) P(t) dt.

    Computed as z^zeta (principal) times the regularized ray integral G(z).
    """
    zc = _as_point(z)
    _, g = _sweep_single(spec.factors, zc, spec.zeta, tol, series_tol)
    return principal_power(zc, spec.zeta) * g


def star_log_deriv(
    spec: OperatorSpec,
    z,
    tol: float = QUAD_TOL_VALUE,
    series_tol: float = SERIES_TOL,
) -> complex:
    """z F'(z)/F(z) via the product/integral identity, equal to P(z)/G(z)."""
    zc = _as_point(z)
    p_end, g = _sweep_single(spec.factors, zc, spec.zeta, tol, series_tol)
    if abs(g) < DENOM_GUARD:
        raise DegenerateOperatorError(
            f"operator integral vanished at z = {zc!r}; zF'/F is undefined"
        )
    return p_end / g


def f_value(
    spec: OperatorSpec,
    z,
    tol: float = QUAD_TOL_VALUE,
    series_tol: float = SERIES_TOL,
) -> complex:
    """F(z) itself, with the outer 1/zeta root continued from the origin.

    F factors exactly as z * G(z)^(1/zeta) with G(0) = 1, so the root's
    branch is fixed by tracking arg G outward along the ray on a ladder of
    intermediate radii (refined up to the step cap on a phase jump).
    """
    zc = _as_point(z)
    steps = RAY_STEPS
    while True:
        ladder = zc * np.geomspace(1e-3, 1.0, steps)
        p_end, g, err, panels, denom_bad, phase_bad = _ray_sweep(
            spec.factors, ladder, spec.zeta, tol, series_tol
        )
        if denom_bad.any():
            raise NearZeroDenominatorError(
                f"a factor vanished or overflowed along the ray to {zc!r}", z=zc
            )
        if phase_bad.any():
            raise PathResolutionError(
                f"a factor phase jumped by a half turn along the ray to {zc!r}"
            )
        if float(np.max(err)) > tol:
            raise QuadratureConvergenceError(
                f"operator quadrature stalled for z = {zc!r}",
                best=QuadratureResult(complex(g[-1]), float(np.max(err)), panels),
            )
        if np.min(np.abs(g)) < DENOM_GUARD:
            raise DegenerateOperatorError(
                f"operator integral vanished along the ray to {zc!r}"
            )
        theta, jump = _unwrap_along(np.angle(g)[None, :])
        if not jump[0]:
            break
        if steps >= RAY_STEP_CAP:
            raise PathResolutionError(
                f"arg of the ray integral jumped by a half turn even with "
                f"{steps} ray steps toward {zc!r}"
            )
        steps *= 2
    g_end = complex(g[-1])
    theta_end = float(theta[0, -1])
    return zc * cmath.exp((math.log(abs(g_end)) + 1j * theta_end) / spec.zeta)


def f_conv_value(
    factors,
    z,
    tol: float = QUAD_TOL_VALUE,
    series_tol: float = SERIES_TOL,
) -> complex:
    """The zeta-free operator Integral_0^z P(t) dt, i.e. z * G(z) at zeta = 1."""
    factors = tuple(factors)
    if not factors:
        raise DomainError("an operator needs at least one factor")
    zc = _as_point(z)
    _, g = _sweep_single(factors, zc, 1.0, tol, series_tol)
    return zc * g


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
