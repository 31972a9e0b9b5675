"""Independent reference implementations used to check the package.

Everything here is deliberately primitive and shares no code with the
library: hyperbolic closed forms via cmath, direct series summation with
math.gamma, fixed-panel Gauss-Legendre quadrature with no adaptivity, and
plain-loop grid minima. Two sums the package once ran are kept as they
were: Horner over an array of points, and the product that summed several
circles at once against the package's cos/sin basis.
"""

import cmath
import math

import numpy as np

from mlstar.certify import _circle_basis


def e21(z):
    z = complex(z)
    return z * cmath.cosh(cmath.sqrt(z))


def e22(z):
    w = cmath.sqrt(complex(z))
    return w * cmath.sinh(w)


def e23(z):
    return 2.0 * (cmath.cosh(cmath.sqrt(complex(z))) - 1.0)


def e24(z):
    z = complex(z)
    if abs(z) < 1e-10:
        return z * (1.0 + z / 20.0)
    w = cmath.sqrt(z)
    return 6.0 * (cmath.sinh(w) - w) / w


CLOSED = {(2, 1): e21, (2, 2): e22, (2, 3): e23, (2, 4): e24}


def e24_log_deriv(z):
    """z E'/E for the (2, 4) closed form, differentiated analytically."""
    z = complex(z)
    w = cmath.sqrt(z)
    value = 6.0 * (cmath.sinh(w) - w) / w
    # d/dz = d/dw / (2w)
    dvalue = 6.0 * ((cmath.cosh(w) - 1.0) / w - (cmath.sinh(w) - w) / (w * w)) / (2.0 * w)
    return z * dvalue / value


def exp_star_quantity(z):
    """z F'/F for F(z) = e^z - 1, the operator of one (1, 1) factor."""
    z = complex(z)
    return z * cmath.exp(z) / (cmath.exp(z) - 1.0)


def direct_series_raw(alpha, beta, z, terms=200):
    """Plain summation of z^n / Gamma(alpha n + beta) with math.gamma."""
    total = 0j
    zpow = 1.0 + 0j
    for n in range(terms):
        x = alpha * n + beta
        try:
            coeff = 1.0 / math.gamma(x)
        except OverflowError:
            coeff = 0.0
        total += coeff * zpow
        zpow *= z
    return total


def direct_series_norm(alpha, beta, z, terms=200):
    return math.gamma(beta) * z * direct_series_raw(alpha, beta, z, terms)


_REF_X, _REF_W = np.polynomial.legendre.leggauss(24)


def fixed_panel_integral(f, a, b, panels):
    """Composite 24-node Gauss-Legendre with a fixed panel count."""
    total = 0j
    width = (b - a) / panels
    for k in range(panels):
        lo = a + k * width
        mid = lo + 0.5 * width
        for x, w in zip(_REF_X, _REF_W):
            total += w * f(mid + 0.5 * width * x)
    return total * 0.5 * width


def integrated_series(alpha, beta, z, terms=40):
    """Term-by-term integral of E(t)/t from 0 to z via math.gamma coefficients."""
    gb = math.gamma(beta)
    total = 0j
    zpow = complex(z)
    for n in range(1, terms + 1):
        coeff = gb / math.gamma(alpha * (n - 1) + beta)
        total += coeff * zpow / n
        zpow *= z
    return total


def brute_min_re(fn, radii, angle_count):
    """Plain double-loop minimum of Re fn over a polar grid."""
    best = math.inf
    for r in radii:
        for k in range(angle_count):
            theta = 2.0 * math.pi * k / angle_count
            value = complex(fn(r * cmath.exp(1j * theta)))
            best = min(best, value.real)
    return best


def brute_max_abs_dev(fn, radii, angle_count):
    """Plain double-loop maximum of |fn - 1| over a polar grid."""
    worst = 0.0
    for r in radii:
        for k in range(angle_count):
            theta = 2.0 * math.pi * k / angle_count
            value = complex(fn(r * cmath.exp(1j * theta)))
            worst = max(worst, abs(value - 1.0))
    return worst


def horner(coeffs, z):
    """sum coeffs[n] z^n at every point of the array z."""
    acc = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def half_circle_sums(radii, m, table, count):
    """The sums of table[:count] at r e^(2 pi i k/m), k = 0 ... m/2, for each r of radii.

    Returns a (radii x (m/2 + 1)) complex array, one row per circle, from
    one product of every circle's terms c_n r^n with the basis.
    """
    terms = table[:count] * np.asarray(radii)[:, None] ** np.arange(count)
    rows = max(16, 1 << (count - 1).bit_length())
    return (terms @ _circle_basis(rows, m)[:count]).view(complex)
