"""Independent reference values for checking mlstar's outputs.

Shares no code with mlstar. Series coefficients come from math.lgamma, so
they stay finite for any beta; alpha = 2 with beta in {1, 2, 3, 4} also has
hyperbolic closed forms. The rooted operator's quantity

    z F'/F = P(z) / Integral_0^1 P(z * w^(1/zeta)) dw,   P(t) = Prod_j (E_j(t)/t)^(1/lambda_j),

is integrated with fixed Gauss-Legendre panels graded geometrically toward
w = 0, where w^(1/zeta) is not smooth; the panel layout never adapts.
Operators are described by the job-document dicts that mlstar reads
(keys "kind", "factors", "zeta", "alpha", "beta", "eta", "lambda").
"""

from __future__ import annotations

import math

import numpy as np

_COEFF_EPS = 1e-18
_COEFF_CAP = 2000
# closed forms lose digits to cancellation near the origin; use the series there
_CLOSED_FORM_MIN_ABS = 0.1
_CLOSED_FORM_BETAS = (1.0, 2.0, 3.0, 4.0)

# 12-node panels [2^-(k+1), 2^-k] for k < 48, plus [0, 2^-48]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_EDGES = np.concatenate([[0.0], 0.5 ** np.arange(48, -1, -1)])
_LO, _HI = _EDGES[:-1, None], _EDGES[1:, None]
RAY_NODES = ((_HI - _LO) * 0.5 * (_GL_X + 1.0) + _LO).ravel()
RAY_WEIGHTS = ((_HI - _LO) * 0.5 * _GL_W).ravel()


# --- orders and hypotheses, straight from the closed formulas -----------------


def psi(eta: float) -> float:
    return ((3.0 - eta) + math.sqrt(5.0 * eta * eta - 18.0 * eta + 17.0)) / (2.0 * (1.0 - eta))


def phi(beta: float) -> float:
    return (2.0 * beta + 1.0) / (beta * beta - beta - 1.0)


def eta_limit(beta: float) -> float:
    """Largest eta in [0, 1) with psi(eta) <= beta, by bisection (psi increases)."""
    if beta < psi(0.0):
        raise ValueError(f"no eta satisfies psi(eta) <= {beta}")
    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) <= beta:
            lo = mid
        else:
            hi = mid
    return lo


def predicted_order(op: dict):
    """(predicted order or bound, hypotheses hold) for one job operator."""
    kind = op["kind"]
    if kind == "starlike":
        zeta = op["zeta"]
        hyp_sum = sum((1.0 - f.get("eta", 0.0)) / f["lambda"] for f in op["factors"])
        b = 2.0 * hyp_sum - 2.0 * zeta + 1.0
        delta = (-b + math.sqrt(b * b + 8.0 * zeta)) / (4.0 * zeta)
        ok = hyp_sum <= zeta and all(
            f["alpha"] >= 1.0 and f["beta"] >= psi(f.get("eta", 0.0)) for f in op["factors"])
        return delta, ok
    if kind == "convex":
        beta_min = min(f["beta"] for f in op["factors"])
        delta = 1.0 - phi(beta_min) * sum(1.0 / f["lambda"] for f in op["factors"])
        return delta, 0.0 <= delta < 1.0 and all(f["alpha"] >= 1.0 for f in op["factors"])
    if kind == "ml-starlike":
        return op["eta"], op["alpha"] >= 1.0 and op["beta"] >= psi(op["eta"])
    return phi(op["beta"]), True


# --- the Mittag-Leffler series ------------------------------------------------


def ml_coefficients(alpha: float, beta: float) -> np.ndarray:
    """a_n = Gamma(beta) / Gamma(alpha*n + beta) for n = 0, 1, ...

    u(z) = sum a_n z^n is E(z)/z of the normalized function. Summation stops
    once (n+1) a_n < 1e-18 and the coefficient ratio, which decreases with n,
    is below 1/2, so the dropped tail of u and of its derivative on |z| <= 1
    is below 1e-17.
    """
    lg_beta = math.lgamma(beta)
    coeffs = [1.0]
    for n in range(1, _COEFF_CAP):
        a = math.exp(lg_beta - math.lgamma(alpha * n + beta))
        coeffs.append(a)
        if (n + 1) * a < _COEFF_EPS and a < 0.5 * coeffs[-2]:
            return np.array(coeffs)
    raise ValueError(f"series for alpha={alpha}, beta={beta} did not decay")


def _horner(coeffs, z):
    acc = np.full(np.shape(z), coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _series_ratio_and_log_deriv(alpha, beta, z):
    a = ml_coefficients(alpha, beta)
    u = _horner(a, z)
    return u, _horner(a * np.arange(1, len(a) + 1), z) / u


def _closed_ratio_and_log_deriv(beta, z):
    """u = E(z)/z normalized and z f'/f for alpha = 2 through sqrt(z)."""
    s = np.sqrt(z)
    ch, sh = np.cosh(s), np.sinh(s)
    if beta == 1.0:
        u, du_ds = ch, sh
    elif beta == 2.0:
        u, du_ds = sh / s, ch / s - sh / s**2
    elif beta == 3.0:
        u, du_ds = 2.0 * (ch - 1.0) / s**2, 2.0 * sh / s**2 - 4.0 * (ch - 1.0) / s**3
    else:
        u = 6.0 * (sh - s) / s**3
        du_ds = 6.0 * (ch - 1.0) / s**3 - 18.0 * (sh - s) / s**4
    # f = z u, so z f'/f = 1 + z u'/u with d/dz = d/ds / (2 s)
    return u, 1.0 + 0.5 * s * du_ds / u


def ml_ratio_and_log_deriv(alpha: float, beta: float, z):
    """(E(z)/z, z E'(z)/E(z)) of the normalized function on an array of z."""
    z = np.asarray(z, dtype=complex)
    u, ld = _series_ratio_and_log_deriv(alpha, beta, z)
    if alpha == 2.0 and beta in _CLOSED_FORM_BETAS:
        far = np.abs(z) >= _CLOSED_FORM_MIN_ABS
        if far.any():
            u_c, ld_c = _closed_ratio_and_log_deriv(beta, z[far])
            u[far], ld[far] = u_c, ld_c
    return u, ld


def ml_value(alpha: float, beta: float, z):
    """The normalized function Gamma(beta) z E(z)."""
    z = np.asarray(z, dtype=complex)
    return z * ml_ratio_and_log_deriv(alpha, beta, z)[0]


# --- the integral operators -----------------------------------------------------


def _factor_product(factors, t):
    """P(t) with every factor's phase continued outward along the last axis.

    Rows of t start next to the origin, where each E/t is 1 and its phase 0.
    """
    log_p = np.zeros(t.shape, dtype=complex)
    for f in factors:
        a = ml_coefficients(f["alpha"], f["beta"])
        u = _horner(a, t)
        log_p += (np.log(np.abs(u)) + 1j * np.unwrap(np.angle(u), axis=-1)) / f["lambda"]
    return np.exp(log_p)


def _ray_integral(factors, zeta, z):
    """(P(z), G(z)) with G(z) = Integral_0^1 P(z w^(1/zeta)) dw, for a 1-D z."""
    s = np.concatenate([RAY_NODES ** (1.0 / zeta), [1.0]])
    p = _factor_product(factors, z[:, None] * s[None, :])
    return p[:, -1], p[:, :-1] @ RAY_WEIGHTS


def star_log_deriv(factors, zeta: float, z):
    """z F'/F of the rooted operator on a 1-D array of z."""
    p_end, g = _ray_integral(factors, zeta, np.atleast_1d(np.asarray(z, dtype=complex)))
    return p_end / g


def operator_value(factors, zeta: float, z):
    """F(z) = z G(z)^(1/zeta) with the principal root.

    The principal root is the one continued from the origin as long as G
    stays off the negative real axis along the ray; at zeta = 1 no root is
    taken at all.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _, g = _ray_integral(factors, zeta, z)
    return z * g ** (1.0 / zeta)


def convex_quantity(factors, z):
    """1 + z F''/F' of the zeta-free operator."""
    z = np.asarray(z, dtype=complex)
    total = np.full(z.shape, 1.0 - sum(1.0 / f["lambda"] for f in factors), dtype=complex)
    for f in factors:
        total += ml_ratio_and_log_deriv(f["alpha"], f["beta"], z)[1] / f["lambda"]
    return total


def quantity(op: dict, z):
    """The complex quantity a certificate of this operator samples, at z."""
    kind = op["kind"]
    if kind == "starlike":
        return star_log_deriv(op["factors"], op["zeta"], z)
    if kind == "convex":
        return convex_quantity(op["factors"], z)
    return ml_ratio_and_log_deriv(op["alpha"], op["beta"], z)[1]


def certified_values(op: dict, z):
    """The real values a certificate extremizes: Re(quantity), or |quantity - 1|
    for the log-derivative bound, whose certificate takes a maximum."""
    q = quantity(op, z)
    if op["kind"] == "log-deriv-bound":
        return np.abs(q - 1.0)
    return np.real(q)
