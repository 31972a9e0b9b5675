"""Foundation numerics.

Gamma quotients free of overflow, principal-branch complex powers,
phase-tracked powers for branch continuation along paths, and adaptive
composite Gauss-Legendre quadrature on [0, 1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defaults import GL_NODES, PANEL_CAP
from .errors import DomainError, PathResolutionError, QuadratureConvergenceError

__all__ = [
    "BranchTracker",
    "QuadratureResult",
    "gamma_ratio",
    "principal_power",
    "tracked_power",
    "integrate_gl",
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


@dataclass
class BranchTracker:
    """Phase state for one factor along one path.

    Single-path, single-caller state; never share a tracker between
    concurrent evaluations.
    """

    previous_log_imag: float = 0.0
    initialized: bool = False


# Steps of at least (almost) a half turn are ambiguous: the true phase may
# have moved either way around the circle.
_JUMP_LIMIT = math.pi * (1.0 - 1e-9)


def tracked_power(w: complex, e: float, tracker: BranchTracker) -> complex:
    """w**e with the log phase continued from the tracker's previous point.

    The first call seeds the tracker with the principal phase; later calls
    pick the phase congruent to the principal one that is nearest the
    tracked value. A step of a half turn or more raises
    PathResolutionError and the caller must refine its path.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("tracked_power: w = 0 has no logarithm")
    theta = _principal_arg(w)
    if tracker.initialized:
        step = math.remainder(theta - tracker.previous_log_imag, 2.0 * math.pi)
        if abs(step) >= _JUMP_LIMIT:
            raise PathResolutionError(
                f"phase stepped by {step:+.6f} rad at w={w!r}; refine the path"
            )
        theta = tracker.previous_log_imag + step
    tracker.previous_log_imag = theta
    tracker.initialized = True
    return cmath.exp(e * complex(math.log(abs(w)), theta))


def _unwrap_along(phases: np.ndarray):
    """Continue principal phases along the last axis, seeded at 0.

    Paths are assumed to start next to the origin of whatever quantity is
    being tracked, where the phase is 0. Returns (unwrapped, bad) where
    ``bad`` flags rows containing an ambiguous (>= half turn) step.
    """
    steps = np.empty_like(phases)
    steps[..., 0] = phases[..., 0]
    steps[..., 1:] = np.diff(phases, axis=-1)
    steps = np.mod(steps + np.pi, 2.0 * np.pi) - np.pi
    bad = np.any(np.abs(steps) >= _JUMP_LIMIT, axis=-1)
    return np.cumsum(steps, axis=-1), bad


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with the last refinement's error estimate."""

    value: complex
    error_estimate: float
    panels_used: int


_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)


def _panel_nodes(n_panels: int):
    """Composite Gauss-Legendre nodes and weights on (0, 1), ascending."""
    half = 0.5 / n_panels
    offsets = np.arange(n_panels) / n_panels
    x = (offsets[:, None] + (_GL_X + 1.0)[None, :] * half).reshape(-1)
    w = np.broadcast_to(_GL_W * half, (n_panels, GL_NODES)).reshape(-1).copy()
    return x, w


def _integrate_batches(batch_eval, target_tol: float, panel_cap: int):
    """Dyadic panel ladder shared by the scalar and array front ends.

    ``batch_eval(x)`` receives all nodes of one refinement pass in ascending
    order and returns their values. The error estimate is the magnitude of
    the difference between consecutive passes.
    """
    previous = None
    error = math.inf
    n_panels = 1
    while n_panels <= panel_cap:
        x, w = _panel_nodes(n_panels)
        current = complex(np.sum(np.asarray(batch_eval(x)) * w))
        if previous is not None:
            error = abs(current - previous)
            if error <= target_tol:
                return current, error, n_panels
        previous = current
        n_panels *= 2
    raise QuadratureConvergenceError(
        f"no convergence to {target_tol:g} within {panel_cap} panels "
        f"(best error estimate {error:g})",
        best=QuadratureResult(previous, error, panel_cap),
    )


def integrate_gl(f, target_tol: float, panel_cap: int = PANEL_CAP) -> QuadratureResult:
    """Integrate a complex-valued f over [0, 1] to the requested tolerance.

    16-node Gauss-Legendre panels are refined dyadically until the estimate
    |result(n panels) - result(2n panels)| drops to target_tol. Nodes are
    visited in ascending order within each pass, so integrands that track
    state along the path see a monotone sweep.
    """
    if not target_tol > 0.0:
        raise DomainError(f"integrate_gl needs target_tol > 0, got {target_tol!r}")

    def batch(x):
        return np.array([complex(f(float(xi))) for xi in x])

    value, error, panels = _integrate_batches(batch, target_tol, panel_cap)
    return QuadratureResult(value, error, panels)
