"""Closed-form starlikeness and convexity orders with hypothesis checks."""

from __future__ import annotations

import math

from .errors import DomainError
from .mittag_leffler import MLParams
from .operators import OperatorSpec, _check_eta, _check_factors
from .records import _Record

__all__ = [
    "GOLDEN_RATIO",
    "psi",
    "phi",
    "log_deriv_bound",
    "ml_starlike_hypothesis",
    "starlike_delta",
    "convex_delta",
    "StarlikeOrderReport",
    "ConvexOrderReport",
]

GOLDEN_RATIO = 0.5 * (1.0 + math.sqrt(5.0))


def psi(eta: float) -> float:
    """Beta threshold above which the normalized function is starlike of order eta.

    psi(eta) = [(3 - eta) + sqrt(5 eta^2 - 18 eta + 17)] / [2 (1 - eta)],
    strictly increasing on [0, 1) and divergent as eta -> 1.
    """
    eta = _check_eta(float(eta))
    return ((3.0 - eta) + math.sqrt(5.0 * eta * eta - 18.0 * eta + 17.0)) / (
        2.0 * (1.0 - eta)
    )


def phi(beta: float) -> float:
    """Bound coefficient (2 beta + 1) / (beta^2 - beta - 1).

    Defined and strictly decreasing for beta above the golden ratio, where
    the denominator is positive.
    """
    beta = float(beta)
    if not beta > GOLDEN_RATIO:
        raise DomainError(
            f"beta must exceed (1 + sqrt 5)/2 = {GOLDEN_RATIO:.10f}, got {beta!r}"
        )
    return (2.0 * beta + 1.0) / (beta * beta - beta - 1.0)


def ml_starlike_hypothesis(params: MLParams, eta: float) -> bool:
    """Whether the normalized function meets the hypotheses of starlikeness
    of order eta: alpha >= 1 and beta >= psi(eta)."""
    return params.alpha >= 1.0 and params.beta >= psi(eta)


def log_deriv_bound(params: MLParams) -> float:
    """Uniform disk bound on |z E'/E - 1| for the normalized function."""
    return phi(params.beta)


class StarlikeOrderReport(_Record):
    """Predicted starlikeness order of the operator plus hypothesis status;
    hypothesis_sum is sum (1 - eta_j) / lambda_j."""

    __slots__ = ("delta", "hypothesis_sum", "zeta", "hypothesis_ok")

    def __init__(self, delta: float, hypothesis_sum: float, zeta: float, hypothesis_ok: bool):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "hypothesis_sum", hypothesis_sum)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "hypothesis_ok", hypothesis_ok)


class ConvexOrderReport(_Record):
    """Predicted convexity order of the zeta-free operator plus hypothesis status;
    bound_sum is phi(beta_min) * sum 1/lambda_j."""

    __slots__ = ("delta", "beta_min", "bound_sum", "hypothesis_ok")

    def __init__(self, delta: float, beta_min: float, bound_sum: float, hypothesis_ok: bool):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "beta_min", beta_min)
        object.__setattr__(self, "bound_sum", bound_sum)
        object.__setattr__(self, "hypothesis_ok", hypothesis_ok)


def starlike_delta(spec: OperatorSpec) -> StarlikeOrderReport:
    """Predicted order: the positive root of 2 zeta d^2 + b d - 1 = 0 where
    b = sum 2(1 - eta_j)/lambda_j - 2 zeta + 1.

    The order is reported even when the hypotheses fail; the flag records
    whether sum (1 - eta_j)/lambda_j <= zeta and beta_j >= psi(eta_j) with
    alpha_j >= 1 for every factor.
    """
    zeta = spec.zeta
    hyp_sum = sum((1.0 - f.eta) / f.lam for f in spec.factors)
    # the equation times k: past 2^1020, 8 zeta or 2 hyp_sum would overflow at k = 1, and
    # k = 1/16 scales every step exactly, so both give the same root where both are finite
    k = 1.0 if zeta < 2.0 ** 1020 and hyp_sum < 2.0 ** 1020 else 0.0625
    b = 2.0 * (hyp_sum * k) - 2.0 * (zeta * k) + k
    root = math.hypot(b, math.sqrt(8.0 * (zeta * k) * k))  # b^2 would overflow past 1e154
    # for b > 0 the textbook form cancels when 8 zeta << b^2; its conjugate does not
    delta = 2.0 * k / (b + root) if b > 0.0 else (-b + root) / (4.0 * (zeta * k))
    hypothesis_ok = hyp_sum <= zeta and all(
        ml_starlike_hypothesis(f.params, f.eta) for f in spec.factors
    )
    return StarlikeOrderReport(delta, hyp_sum, zeta, hypothesis_ok)


def convex_delta(factors) -> ConvexOrderReport:
    """Predicted convexity order 1 - phi(min beta_j) * sum 1/lambda_j.

    Every beta_j must exceed the golden ratio for the bound coefficient to
    exist; the flag additionally records whether the order lands in [0, 1).
    """
    factors = _check_factors(factors)
    beta_min = min(f.params.beta for f in factors)
    bound_sum = phi(beta_min) * sum(1.0 / f.lam for f in factors)
    delta = 1.0 - bound_sum
    hypothesis_ok = 0.0 <= delta < 1.0 and all(f.params.alpha >= 1.0 for f in factors)
    return ConvexOrderReport(delta, beta_min, bound_sum, hypothesis_ok)
