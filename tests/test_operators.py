import cmath
import math

import mpmath
import numpy as np
import pytest

from mlstar import (
    DomainError,
    EvalPoint,
    FactorSpec,
    MLParams,
    OperatorSpec,
    SeriesTruncationError,
    certify_convex,
    certify_starlike,
    convex_log_deriv,
    f_conv_value,
    f_value,
    f_zeta_power,
    star_log_deriv,
)
from mlstar.certify import GridSpec, VERDICT_FAIL
from mlstar.defaults import SERIES_TERM_CAP
from mlstar.numerics import series_solve
from mlstar.operators import _log_derivative_coefficients, _sized_table, _star_coefficients

from conftest import random_disk_points
from oracles import (
    direct_series_raw,
    e24,
    exp_star_quantity,
    fixed_panel_integral,
    integrated_series,
)

# frozen from oracles: z e^z / (e^z - 1) at z = 0.5
EXP_STAR_AT_05 = 1.270747041268399
# frozen from oracles: integral of sinh(sqrt t)/sqrt t from 0 to 0.25 = 2[cosh(0.5) - 1]
CONV_22_AT_025 = 0.2552519304127614


def single(alpha, beta, lam=1.0, zeta=1.0, eta=0.0):
    return OperatorSpec((FactorSpec(MLParams(alpha, beta), lam, eta),), zeta)


class TestSpecs:
    def test_empty_factor_list_rejected(self):
        with pytest.raises(DomainError):
            OperatorSpec((), 1.0)

    def test_bad_zeta_rejected(self):
        with pytest.raises(DomainError):
            OperatorSpec((FactorSpec(MLParams(1, 1), 1.0),), 0.0)

    def test_factor_validation(self):
        with pytest.raises(DomainError):
            FactorSpec(MLParams(1, 1), 0.0)
        with pytest.raises(DomainError):
            FactorSpec(MLParams(1, 1), 1.0, eta=1.0)

    def test_non_finite_rejected(self):
        params = MLParams(1, 1)
        for lam in (math.inf, math.nan):
            with pytest.raises(DomainError):
                FactorSpec(params, lam)
        for zeta in (math.inf, math.nan):
            with pytest.raises(DomainError):
                OperatorSpec((FactorSpec(params, 1.0),), zeta)

    def test_eval_point(self):
        point = EvalPoint.from_polar(0.5, math.pi)
        assert point.z == pytest.approx(-0.5, abs=1e-15)
        with pytest.raises(DomainError):
            EvalPoint.from_polar(1.0, 0.0)
        with pytest.raises(DomainError):
            EvalPoint.from_complex(0.0)


class TestProductTerm:
    """P(t) = Prod_j (E_j(t)/t)^(1/lambda_j) through the coefficients of t P'/P."""

    def test_exponential_factor(self, rng):
        # (E_{1,1}(t)/t)^(1/lambda) = e^(t/lambda): t P'/P = t/lambda
        for lam in (1.0, 0.4, 3.0):
            factors = (FactorSpec(MLParams(1, 1), lam),)
            q = _log_derivative_coefficients(factors, 1e-14, SERIES_TERM_CAP)
            assert q[1] == pytest.approx(1.0 / lam, rel=1e-15)
            assert np.max(np.abs(q[2:])) <= 1e-15
            # and Integral_0^z e^(t/lambda) dt = lambda (e^(z/lambda) - 1)
            for z in random_disk_points(rng, 10, r_min=0.1):
                z = complex(z)
                expected = lam * (cmath.exp(z / lam) - 1.0)
                assert abs(f_conv_value(factors, z) - expected) <= 1e-14 * abs(expected)

    def test_limit_toward_origin(self):
        spec = single(2, 4)
        q = _log_derivative_coefficients(spec.factors, 1e-14, SERIES_TERM_CAP)
        assert q[0] == 0.0  # P(0) = 1
        assert star_log_deriv(spec, 1e-7) == pytest.approx(1.0, abs=1e-6)
        # F(z)/z stays exact where F itself underflows
        assert f_value(spec, 1e-300) / 1e-300 == pytest.approx(1.0, abs=1e-15)

    def test_zero_rejected(self):
        for fn in (star_log_deriv, f_value, f_zeta_power):
            with pytest.raises(DomainError):
                fn(single(1, 1), 0.0)

    def test_exponent_additivity(self):
        # two identical factors at doubled lambda act like one factor
        params = MLParams(2, 3)
        one = _log_derivative_coefficients((FactorSpec(params, 1.0),), 1e-14, SERIES_TERM_CAP)
        two = _log_derivative_coefficients(
            (FactorSpec(params, 2.0), FactorSpec(params, 2.0)), 1e-14, SERIES_TERM_CAP
        )
        assert np.max(np.abs(one - two)) <= 1e-16


class TestZetaPower:
    def test_identity_product_gives_z_to_zeta(self, identity_product, rng):
        for zeta in (0.5, 1.0, 2.7):
            spec = single(1, 1, zeta=zeta)
            for z in random_disk_points(rng, 10, r_min=0.05):
                z = complex(z)
                expected = cmath.exp(zeta * cmath.log(z))
                assert f_zeta_power(spec, z) == pytest.approx(expected, rel=1e-12)

    def test_against_reference_quadrature(self):
        # zeta = 1, single (2, 4) factor at z = 0.81, on the real axis
        spec = single(2, 4)
        mine = f_zeta_power(spec, 0.81, tol=1e-12)

        def integrand(t):
            return e24(t) / t if t != 0 else 1.0

        reference = fixed_panel_integral(integrand, 0.0, 0.81, panels=160)
        assert abs(mine - reference) <= 1e-11

    def test_zeta_two_reproducible(self):
        # each zeta's value must be stable against a 10x tighter quadrature
        spec = single(2, 4, zeta=2.0)
        coarse = f_zeta_power(spec, 0.5 + 0.3j, tol=1e-9)
        fine = f_zeta_power(spec, 0.5 + 0.3j, tol=1e-10)
        assert abs(coarse - fine) <= 1e-9 + 1e-10

    def test_fractional_zeta_against_series_oracle(self):
        # zeta * sum_k p_k z^(zeta+k)/(zeta+k) with p_k the product's Taylor
        # coefficients, for a single (2, 4) factor at lambda = 1
        z = 0.7
        for zeta in (1.5, 2.0, math.e):
            spec = single(2, 4, zeta=zeta)
            mine = f_zeta_power(spec, z, tol=1e-12)
            oracle = zeta * sum(
                (math.gamma(4) / math.gamma(2 * k + 4)) * z ** (zeta + k) / (zeta + k)
                for k in range(40)
            )
            assert abs(mine - oracle) <= 1e-11


class TestFValue:
    def test_identity_product_is_identity(self, identity_product, rng):
        for zeta in (0.5, 1.0, 3.0):
            spec = single(1, 1, zeta=zeta)
            for z in random_disk_points(rng, 5, r_min=0.05):
                z = complex(z)
                assert f_value(spec, z) == pytest.approx(z, rel=1e-11)

    def test_zeta_one_is_plain_integral(self):
        spec = single(1, 1)
        value = f_value(spec, 0.5, tol=1e-12)
        assert value == pytest.approx(math.exp(0.5) - 1.0, rel=1e-11)

    def test_series_integration_oracle(self):
        spec = single(2, 4)
        value = f_value(spec, 0.25, tol=1e-12)
        assert abs(value - integrated_series(2, 4, 0.25, terms=40)) <= 1e-12

    def test_normalization_near_origin(self):
        spec = single(2, 2, zeta=2.0)
        z = 1e-4
        assert f_value(spec, z) / z == pytest.approx(1.0, abs=1e-3)

    def test_zeta_consistency_against_refined_quadrature(self, rng):
        # reproducibility of each zeta branch at 100 random points
        for zeta in (1.0, 2.0):
            spec = single(2, 3, lam=1.5, zeta=zeta)
            points = random_disk_points(rng, 100, r_min=1e-3)
            for z in points:
                z = complex(z)
                coarse = f_value(spec, z, tol=1e-9)
                fine = f_value(spec, z, tol=1e-10)
                assert abs(coarse - fine) <= 1e-9 + 1e-10


    def test_small_zeta_against_mpmath(self):
        # at zeta = 0.001, F = z G^1000 is moderate while P^(1/zeta) and
        # (G/P)^(1/zeta) reach e^(+-900); G = Integral_0^1 e^(z w^1000) dw
        mpmath.mp.dps = 30
        spec = single(1, 1, zeta=0.001)
        for z in (0.9, -0.9, 0.5 + 0.7j):
            g = mpmath.quad(lambda w: mpmath.exp(mpmath.mpc(z) * w**1000),
                            [0, 0.99, 0.995, 0.999, 1])
            expected = complex(z * g**1000)
            assert abs(f_value(spec, z) - expected) <= 1e-13 * abs(expected)


class TestStarLogDeriv:
    def test_identity_product_gives_one(self, identity_product):
        spec = single(1, 1, zeta=2.0)
        assert star_log_deriv(spec, 0.3 + 0.4j) == pytest.approx(1.0, abs=1e-12)

    def test_limit_at_origin(self):
        spec = single(2, 4)
        assert star_log_deriv(spec, 1e-5) == pytest.approx(1.0, abs=1e-4)

    def test_exponential_oracle(self):
        spec = single(1, 1)
        mine = star_log_deriv(spec, 0.5, tol=1e-12)
        assert mine == pytest.approx(EXP_STAR_AT_05, abs=1e-10)
        assert mine == pytest.approx(exp_star_quantity(0.5), abs=1e-10)

    def test_matches_centered_difference_of_f(self, rng):
        # z [F(z+h) - F(z-h)] / (2 h F(z)) approaches zF'/F at order h^2
        spec = single(2, 3, lam=2.0, zeta=1.0)
        worst = 0.0
        for z in random_disk_points(rng, 100, r_max=0.9, r_min=0.1):
            z = complex(z)
            h = 1e-4 * (1.0 - abs(z))
            exact = star_log_deriv(spec, z, tol=1e-12)
            diff = (
                z
                * (f_value(spec, z + h, tol=1e-12) - f_value(spec, z - h, tol=1e-12))
                / (2.0 * h * f_value(spec, z, tol=1e-12))
            )
            worst = max(worst, abs(diff - exact) / h**2)
        assert worst <= 50.0  # |error| = O(h^2) with a modest constant

    def test_overflowing_weight_reported(self):
        # 1/lambda = 1e7 overflows the coefficients of the product
        spec = single(1, 1, lam=1e-7)
        with pytest.raises(SeriesTruncationError):
            star_log_deriv(spec, 0.9)

    def test_zero_of_g_fails_past_it(self):
        # P = e^(25 t) at zeta = 1: G = (e^(25 z) - 1)/(25 z) vanishes at
        # +-2 pi i/25, |z| = 0.2513, where zF'/F = 25 z e^(25 z)/(e^(25 z) - 1)
        # has a pole, so its series converges inside and on no circle outside
        spec = single(1, 1, lam=1 / 25)
        z = 0.2j
        expected = 25 * z * cmath.exp(25 * z) / (cmath.exp(25 * z) - 1)
        assert abs(star_log_deriv(spec, z) - expected) <= 1e-12
        for fn in (star_log_deriv, f_value):
            with pytest.raises(SeriesTruncationError):
                fn(spec, 0.5j)
        cert = certify_starlike(spec, GridSpec(radii=(0.1, 0.2, 0.3, 0.5, 0.999), angles=32))
        assert cert.failed_count == 3 * 32
        assert cert.verdict == VERDICT_FAIL
        assert all(failed.point.radius > 0.2513 for failed in cert.failed_sample)


class TestConvexSide:
    def test_limit_at_origin(self):
        factors = (FactorSpec(MLParams(2, 3), 1.0), FactorSpec(MLParams(1, 2), 0.5))
        assert convex_log_deriv(factors, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_case(self):
        factors = (FactorSpec(MLParams(1, 1), 1.0),)
        assert convex_log_deriv(factors, 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_large_lambda_flattens_to_one(self, rng):
        factors = (FactorSpec(MLParams(2, 2), 1e6),)
        for z in random_disk_points(rng, 10, r_min=0.1):
            assert convex_log_deriv(factors, complex(z)) == pytest.approx(1.0, abs=1e-5)

    def test_conv_value_closed_form(self):
        factors = (FactorSpec(MLParams(2, 2), 1.0),)
        value = f_conv_value(factors, 0.25, tol=1e-12)
        assert value == pytest.approx(CONV_22_AT_025, abs=1e-11)

    def test_conv_value_leading_series(self):
        # F = z + (c2/2) z^2 + O(z^3) with c2 = Gamma(3)/Gamma(5) = 1/12
        factors = (FactorSpec(MLParams(2, 3), 1.0),)
        z = 1e-3
        value = f_conv_value(factors, z, tol=1e-13)
        assert abs(value - (z + z * z / 24.0)) <= 1e-12

    def test_identity_product_stub(self, identity_product):
        factors = (FactorSpec(MLParams(1, 1), 1.0),)
        assert f_conv_value(factors, 0.37) == pytest.approx(0.37, rel=1e-12)

    def test_empty_factors_rejected(self):
        with pytest.raises(DomainError):
            convex_log_deriv((), 0.5)
        with pytest.raises(DomainError):
            f_conv_value((), 0.5)


def _oracle_product(factors, t):
    """P(t) from plain series sums and principal powers."""
    out = 1.0 + 0j
    for f in factors:
        beta = f.params.beta
        ratio = math.gamma(beta) * direct_series_raw(f.params.alpha, beta, t, terms=60)
        out *= cmath.exp(cmath.log(ratio) / f.lam)
    return out


def _mp_table(alpha, beta, terms):
    return [mpmath.gamma(beta) / mpmath.gamma(alpha * k + beta) for k in range(terms)]


def _mp_times(x, y):
    return [mpmath.fsum(x[i] * y[k - i] for i in range(k + 1)) for k in range(len(x))]


def _mp_power(x, e):
    """x^e for an integer e >= 0, by Cauchy products."""
    out = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(x) - 1)
    while e:
        if e & 1:
            out = _mp_times(out, x)
        x, e = _mp_times(x, x), e >> 1
    return out


def _mp_divide(b, a):
    """The series B/A, to the length of b."""
    x = []
    for n in range(len(b)):
        x.append((b[n] - mpmath.fsum(a[k] * x[n - k] for k in range(1, n + 1))) / a[0])
    return x


class TestCoefficientEngine:
    """The operator series against independent evaluations."""

    def test_three_factors_against_fixed_panel_quadrature(self):
        # every E_j(t)/t stays near 1 on the disk, so principal powers are
        # the branch continued from the origin
        factors = (
            FactorSpec(MLParams(1.5, 5.0), 2.0),
            FactorSpec(MLParams(2.0, 6.5), 3.0),
            FactorSpec(MLParams(2.5, 4.0), 1.5),
        )
        zeta = 0.37
        spec = OperatorSpec(factors, zeta)
        # s = w^(1/zeta) turns G = zeta Integral_0^1 s^(zeta-1) P(z s) ds into
        # Integral_0^1 P(z w^(1/zeta)) dw; panels grade toward the w^2.7 endpoint
        edges = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        for theta in (0.3, 2.0, math.pi, -1.1):
            z = 0.999 * cmath.exp(1j * theta)
            g = sum(
                fixed_panel_integral(lambda w: _oracle_product(factors, z * w ** (1 / zeta)),
                                     a, b, panels=4)
                for a, b in zip(edges, edges[1:])
            )
            conv = z * fixed_panel_integral(lambda s: _oracle_product(factors, z * s),
                                            0.0, 1.0, panels=4)
            assert abs(star_log_deriv(spec, z) - _oracle_product(factors, z) / g) <= 1e-12
            assert abs(f_zeta_power(spec, z) - cmath.exp(zeta * cmath.log(z)) * g) <= 1e-12
            assert abs(f_value(spec, z) - z * cmath.exp(cmath.log(g) / zeta)) <= 1e-12
            assert abs(f_conv_value(factors, z) - conv) <= 1e-12

    def test_large_zeta_against_mpmath(self):
        # zeta = 40 with integer powers 25 and 15: P's coefficients are exact
        # Cauchy powers of the factor tables at 40 digits
        mpmath.mp.dps = 40
        terms = 120
        p = _mp_times(_mp_power(_mp_table(1, mpmath.mpf("3.6"), terms), 25),
                      _mp_power(_mp_table(2, 5, terms), 15))
        z, zeta = mpmath.mpf("-0.999"), 40
        expected = mpmath.fsum(c * z**n for n, c in enumerate(p)) / mpmath.fsum(
            c * zeta / (n + zeta) * z**n for n, c in enumerate(p)
        )
        spec = OperatorSpec(
            (FactorSpec(MLParams(1, 3.6), 1 / 25), FactorSpec(MLParams(2, 5), 1 / 15)), 40.0
        )
        assert abs(star_log_deriv(spec, -0.999) - float(expected)) <= 1e-9

    @pytest.mark.parametrize("zeta, factors", [
        (40, ((1, "3.6", 25), (2, 5, 15))),
        ("0.37", ((2, 4, 1), (1.5, 6, 2))),
    ])
    def test_tables_against_mpmath(self, zeta, factors):
        # 1/lambda is an integer, so P is an exact Cauchy power at 40 digits;
        # G = zeta Integral_0^1 s^(zeta-1) P(zs) ds has g_n = zeta p_n / (n + zeta)
        mpmath.mp.dps = 40
        terms = 40
        zeta = mpmath.mpf(zeta)
        p = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)
        for alpha, beta, power in factors:
            p = _mp_times(p, _mp_power(_mp_table(alpha, mpmath.mpf(beta), terms), power))
        g = [zeta * c / (n + zeta) for n, c in enumerate(p)]
        expected = {
            "q": _mp_divide([n * c for n, c in enumerate(p)], p),
            "h": _mp_divide(g, p),
            "v": _mp_divide(p, g),
        }
        spec = OperatorSpec(
            tuple(FactorSpec(MLParams(alpha, float(beta)), 1 / power)
                  for alpha, beta, power in factors),
            float(zeta),
        )
        v = _star_coefficients(spec, 1e-14, terms)
        assert v[0] == 0.0
        v[0] = 1.0  # zF'/F = 1 + (zF'/F - 1)
        mine = {
            "q": _log_derivative_coefficients(spec.factors, 1e-14, terms),
            "h": series_solve(v, [1.0], terms),
            "v": v,
        }
        for name, table in expected.items():
            table = np.array([float(c) for c in table])
            assert np.max(np.abs(mine[name][:terms] - table)) <= 1e-13 * np.max(np.abs(table))

    def test_convex_table_against_mpmath(self):
        # r1-convex-34 of the series-grid benchmark: 1/lambda = 27.2 amplifies
        # the error of a sum of pointwise ratios to 1.7e-13
        alpha, beta, lam = 2.3850243763175847, 109.39713617197285, 0.03678589915801971
        factors = (FactorSpec(MLParams(alpha, beta), lam),)
        argmin = certify_convex(factors).argmin.z
        mpmath.mp.dps = 40
        table = _mp_table(alpha, mpmath.mpf(beta), 30)
        for z in (argmin, 0.999, 0.999j, 0.999 * cmath.exp(2j)):
            w = mpmath.mpc(z)
            u = mpmath.fsum(c * w**k for k, c in enumerate(table))
            du = mpmath.fsum(k * c * w**k for k, c in enumerate(table))
            expected = complex(1 + du / u / mpmath.mpf(lam))
            assert abs(convex_log_deriv(factors, z) - expected) <= 5e-14

    def test_sized_table_is_a_prefix_of_the_full_solve(self):
        spec = single(2, 4)
        table = _sized_table(_star_coefficients, spec, 0.9, 1e-14)
        assert len(table) < SERIES_TERM_CAP
        full = _star_coefficients(spec, 1e-14, SERIES_TERM_CAP)
        assert np.array_equal(table, full[: len(table)])

    def test_growing_product_without_cancellation(self):
        # P = e^(25 t): summed as a series, P(-0.999) = e^-25 would cancel
        # terms near e^25; G = 25 Integral_0^1 s^24 e^(25 z s) ds
        mpmath.mp.dps = 30
        spec = single(1, 1, lam=1 / 25, zeta=25.0)
        z = mpmath.mpf("-0.999")
        g = 25 * mpmath.quad(lambda s: s**24 * mpmath.exp(25 * z * s), [0, 1])
        assert abs(star_log_deriv(spec, -0.999) - float(mpmath.exp(25 * z) / g)) <= 1e-12
        assert abs(f_zeta_power(spec, -0.999) / complex(z ** mpmath.mpf(25) * g) - 1) <= 1e-12

    def test_zero_in_disk_fails_past_it(self):
        # E_{1,0.2} vanishes at -0.2448; (E/t)^(1/2) branches there, so its
        # series converges on the circles inside and on none outside
        spec = single(1, 0.2, lam=2.0)
        grid = GridSpec(radii=(0.1, 0.15, 0.25, 0.5, 0.999), angles=32)
        cert = certify_starlike(spec, grid)
        assert cert.failed_count == 3 * 32
        assert cert.verdict == VERDICT_FAIL
        assert cert.argmin.radius < 0.2448
        for failed in cert.failed_sample:
            assert failed.point.radius > 0.2448
            assert "tail" in failed.reason
        for z in (0.25, -0.3, 0.9j):
            for fn in (star_log_deriv, f_value, f_zeta_power):
                with pytest.raises(SeriesTruncationError):
                    fn(spec, z)
        assert math.isfinite(star_log_deriv(spec, -0.15).real)
