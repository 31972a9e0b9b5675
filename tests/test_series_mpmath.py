"""The series engine against mpmath at 40 digits, across the Gamma overflow.

The reference sums the normalized series with exact arguments
alpha*(n-1) + beta, so it checks the coefficient table, its cut and the
Horner sums together, from beta = 0.2 up to beta = 1e6.
"""

import cmath

import mpmath
import pytest

from mlstar import MLParams, SeriesTruncationError, log_deriv, ml_norm, ml_norm_deriv

from cli_runner import invoke
from conftest import ml_table_deviation

ALPHAS = (1.0, 1.92, 2.7, 5.0)
BETAS = (0.2, 1.0, 4.0, 167.93, 171.7, 175.0, 200.0, 1e3, 1e6)
# Angles stay off the negative axis: at z = -0.999 the derivative of the
# alpha = beta = 1 function, (1 + z) e^z, is 4e-4, and no sum of terms near
# 1 can carry it to 1e-13 relative.
POINTS = tuple(
    r * cmath.exp(1j * theta)
    for r in (0.3, 0.999)
    for theta in (0.0, 0.9, 2.0, 2.8)
)


def reference(alpha, beta, z):
    """(u, sum (n-1) c_n z^(n-1)) with c_n = Gamma(beta)/Gamma(alpha(n-1)+beta)."""
    with mpmath.workdps(40):
        a, b, zm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpc(z)
        log_gb = mpmath.loggamma(b)
        u = w = mpmath.mpc(0)
        for n in range(1, 400):
            term = mpmath.exp(log_gb - mpmath.loggamma(a * (n - 1) + b)) * zm ** (n - 1)
            u += term
            w += (n - 1) * term
            if n > 2 and abs(term) * n < mpmath.mpf(10) ** -45:
                break
        return u, w


def rel_err(mine, truth):
    return float(abs(mpmath.mpc(mine) - truth) / abs(truth))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", BETAS)
def test_values_match_mpmath(alpha, beta):
    params = MLParams(alpha, beta)
    for z in POINTS:
        u, w = reference(alpha, beta, z)
        assert rel_err(ml_norm(params, z).value, z * u) <= 1e-13
        assert rel_err(ml_norm_deriv(params, z).value, u + w) <= 1e-13
        assert rel_err(log_deriv(params, z), 1 + w / u) <= 1e-13


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", BETAS)
def test_deviation_matches_mpmath(alpha, beta):
    # |z E'/E - 1|, the quantity of the log-deriv-bound certificate, from its table
    params = MLParams(alpha, beta)
    z = [complex(p) for p in POINTS]
    if beta == 0.2 and alpha < 5.0:
        # E has a zero inside the disk, a pole of z E'/E, so the table has no
        # cut at r = 0.999; log_deriv keeps its ratio there (see above)
        with pytest.raises(SeriesTruncationError):
            ml_table_deviation(params, z)
        return
    deviation = ml_table_deviation(params, z)
    for k, point in enumerate(POINTS):
        u, w = reference(alpha, beta, point)
        truth = float(abs(w / u))
        assert abs(abs(complex(deviation[k])) - truth) <= 1e-12 * truth + 1e-14


@pytest.mark.parametrize("alpha", (1.0, 2.5))
@pytest.mark.parametrize("beta", (0.5, 1.0, 4.0))
@pytest.mark.parametrize("tol", ("0.5", "1e-3", "1e-6", "1e-9"))
def test_deriv_row_tail_bounds_its_error(alpha, beta, tol):
    # an eval --deriv row prints z E'/E to repr precision with a bound on its
    # error; at alpha 2.5, beta 4, z 0.1 and 1e-9 the tail is 4.8e-13, which
    # 12 printed digits used to miss by 7x
    points = (0.1, -0.9, 0.6j, 0.95 * cmath.exp(2j))
    argv = ["--tol", tol, "eval", "--deriv", "--alpha", str(alpha), "--beta", str(beta)]
    for z in points:
        argv += ["--z", str(z)]
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    rows = result.output.splitlines()
    assert len(rows) == len(points)
    for z, row in zip(points, rows):
        _, value, _, tail = row.split()
        u, w = reference(alpha, beta, z)
        error = abs(complex(value) - complex(1 + w / u))
        assert error <= float(tail.removeprefix("tail=")), row
