"""Independent reference implementations used to check the package.

Everything here is deliberately primitive and shares no code with the
library: hyperbolic closed forms via cmath, direct series summation with
math.gamma, fixed-panel Gauss-Legendre quadrature with no adaptivity, and
plain-loop grid minima. Sums the package once ran are kept as they
were: Horner over an array of points, the circle sums against a cached
cos/sin basis, which the package's Horner sums must match, and the
product that summed several circles at once against that basis.
"""

import cmath
import math
from functools import lru_cache

import numpy as np


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


def half_circle_sums(radii, m, terms):
    """The sums of the terms at r e^(2 pi i k/m), k = 0 ... m/2, for each r of radii.

    Returns a (radii x (m/2 + 1)) complex array, one row per circle, from
    one product of every circle's terms c_n r^n with the basis.
    """
    count = len(terms)
    terms = np.asarray(terms) * np.asarray(radii)[:, None] ** np.arange(count)
    rows = max(16, 1 << (count - 1).bit_length())
    return (terms @ _circle_basis(rows, m)[:count]).view(complex)


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


def dense_extremum(terms, largest, samples=20001):
    """(best, values): the least of Re(1 + g), or the largest |g| if largest, and
    the values at `samples` equally spaced angles of [0, pi], ends included.

    g = sum terms[n] e^(i n theta), summed against cos and sin of each angle
    n theta in numpy, with no Horner and no mirror. best also takes a second
    grid of `samples` angles across the two spacings beside the best sample,
    so that it lies within about 1e-17 of the extremum, not a spacing's gap.
    """
    terms = np.asarray(terms, dtype=float)

    def evaluate(theta):
        phase = np.arange(len(terms))[:, None] * theta
        g = terms @ np.cos(phase) + 1j * (terms @ np.sin(phase))
        return np.abs(g) if largest else 1.0 + g.real

    pick = np.argmax if largest else np.argmin
    theta = np.linspace(0.0, np.pi, samples)
    values = evaluate(theta)
    k = int(pick(values))
    fine = evaluate(np.linspace(theta[max(k - 1, 0)], theta[min(k + 1, samples - 1)], samples))
    best = float(max(values.max(), fine.max()) if largest else min(values.min(), fine.min()))
    return best, np.concatenate((values, fine))
