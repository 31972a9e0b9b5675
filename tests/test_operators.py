import cmath
import dataclasses
import functools
import json
import math
import sys
import threading
from pathlib import Path

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
from mlstar import mittag_leffler, operators
from mlstar.certify import VERDICT_FAIL
from mlstar.defaults import SERIES_TERM_CAP
from mlstar.jobs import GridSpec, load_job, parse_job, run_job
from mlstar.numerics import series_solve
from mlstar.operators import (
    _log_derivative_coefficients,
    _operator_cut,
    _sized_table,
    _star_coefficients,
)

from conftest import dump_circles, random_disk_points, table_deviation
from oracles import (
    _BASES,
    _circle_basis,
    direct_series_raw,
    e24,
    exp_star_quantity,
    fixed_panel_integral,
    half_circle_sums,
    horner,
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

    def test_a_modulus_past_the_double_range_is_a_domain_error(self):
        # abs() of this z raises OverflowError; its modulus is taken without it
        spec, z = single(2, 4), 1.5e308 + 1.5e308j
        for fn in (f_value, f_zeta_power, star_log_deriv):
            with pytest.raises(DomainError, match=r"\|z\| must be <= 1"):
                fn(spec, z)
        with pytest.raises(DomainError, match=r"\|z\| must be <= 1"):
            convex_log_deriv(spec.factors, z)

    def test_eval_point(self):
        point = EvalPoint.from_polar(0.5, math.pi)
        assert point.z == pytest.approx(-0.5, abs=1e-15)
        assert EvalPoint.from_polar(1.0, 0.0).z == 1.0  # the closed disk's boundary
        with pytest.raises(DomainError, match=r"radius must lie in \(0, 1\]"):
            EvalPoint.from_polar(1.0000000000000002, 0.0)


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
        # z^zeta has no principal power at 0
        with pytest.raises(DomainError):
            f_zeta_power(single(1, 1), 0.0)
        with pytest.raises(DomainError):
            f_conv_value(single(1, 1).factors, 0j)

    def test_values_at_the_origin(self):
        # every table is summed exactly at 0, where zF'/F = 1 + zF''/F' = 1 and F = 0
        spec = single(2, 4, zeta=0.5)
        assert star_log_deriv(spec, 0.0) == 1.0
        assert convex_log_deriv(spec.factors, 0j) == 1.0
        assert f_value(spec, 0.0) == 0.0
        for fn in (star_log_deriv, f_value):
            with pytest.raises(DomainError, match=r"\|z\| must be <= 1"):
                fn(spec, 1.0000000000000002)
        with pytest.raises(DomainError, match=r"\|z\| must be <= 1"):
            convex_log_deriv(spec.factors, -1.0000000000000002)

    def test_exponent_additivity(self):
        # two identical factors at doubled lambda act like one factor
        params = MLParams(2, 3)
        one = _log_derivative_coefficients((FactorSpec(params, 1.0),), 1e-14, SERIES_TERM_CAP)
        two = _log_derivative_coefficients(
            (FactorSpec(params, 2.0), FactorSpec(params, 2.0)), 1e-14, SERIES_TERM_CAP
        )
        assert np.max(np.abs(np.subtract(one, two))) <= 1e-16


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
        # no cut on the certificate's circle r_max fails it whole
        cert = certify_starlike(spec, 0.999)
        assert cert.reason.startswith("series at |z| = 0.999 keeps a tail")
        assert cert.verdict == VERDICT_FAIL and math.isnan(cert.observed)


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

    def test_a_sum_past_1e300_has_no_cut(self):
        # the tail after the head is tiny, but a sum this near the double range
        # could overflow in rounding on a few points of the circle
        table = np.zeros(32)
        table[1] = 1e301
        assert _operator_cut(table, 0.999, 1e-14) == (0, math.inf)
        table[1] = 1e299
        assert _operator_cut(table, 0.999, 1e-14) == (2, 0.0)
        table[5] = math.nan
        assert _operator_cut(table, 0.999, 1e-14) == (0, math.inf)

    def test_sized_table_is_a_prefix_of_the_full_solve(self):
        spec = single(2, 4)
        terms, tail, reason = _sized_table(_star_coefficients, spec, 0.9, 1e-14)
        assert reason is None and 0 < len(terms) < SERIES_TERM_CAP
        full = _star_coefficients(spec, 1e-14, SERIES_TERM_CAP)
        assert np.array_equal(terms, full[: len(terms)])
        # the terms and tail are the cut on the circle of the builder's first table
        assert _operator_cut(_star_coefficients(spec, 1e-14, 16), 0.9, 1e-14) \
            == (len(terms), tail)

    def test_ml_table_cut_past_the_first_length_grows_it_by_half(self):
        # z E'/E - 1 of alpha = 1, beta = 4 needs 15 terms on r = 0.999, more than
        # a 16-term table can cut with 8 measured terms left, so it grows once, to 24
        factors = (FactorSpec(MLParams(1, 4), 1.0),)
        terms, tail, _ = _sized_table(_log_derivative_coefficients, factors, 0.999, 1e-14)
        full = _log_derivative_coefficients(factors, 1e-14, SERIES_TERM_CAP)
        assert _operator_cut(full[:16], 0.999, 1e-14)[0] == 0
        assert _operator_cut(full[:24], 0.999, 1e-14) == (15, tail)
        assert np.array_equal(terms, full[:15])

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
        cert = certify_starlike(spec, 0.999)  # no cut on r = 0.999 fails it whole
        assert cert.verdict == VERDICT_FAIL and math.isnan(cert.observed)
        assert cert.reason.startswith("series at |z| = 0.999 keeps a tail")
        for z in (0.25, -0.3, 0.9j):
            for fn in (star_log_deriv, f_value, f_zeta_power):
                with pytest.raises(SeriesTruncationError):
                    fn(spec, z)
        assert math.isfinite(star_log_deriv(spec, -0.15).real)


def spy_on_solves(monkeypatch):
    """Record every operators.series_solve call: the dict maps the id of each solved list
    to the list and the range of term indices each call appended to it."""
    solves = {}

    def spy(a, b, length, derivative=False, x=None):
        start = 0 if x is None else len(x)
        out = series_solve(a, b, length, derivative, x)
        solves.setdefault(id(out), (out, []))[1].append(range(start, len(out)))
        return out  # solves keeps out alive, so no later list reuses its id

    monkeypatch.setattr(operators, "series_solve", spy)
    return solves


def terms_solved(solves):
    return sum(len(r) for _, ranges in solves.values() for r in ranges)


CORPUS_PATH = Path(__file__).resolve().parent.parent / "jobs" / "corpus.json"
# the five operators of the operator-grid benchmark at seed 1
OPERATOR_GRID = parse_job({"schema": 1, "operators": [
    {"name": "probe-zeta-0.37", "kind": "starlike", "zeta": 0.37, "factors": [
        {"alpha": 1.5, "beta": 7.154893404542053, "lambda": 11.0077374411061},
        {"alpha": 2.0, "beta": 4.37543834709694, "lambda": 11.54038040453884},
        {"alpha": 2.5, "beta": 4.113389906088026, "lambda": 9.515070287781793}]},
    {"name": "probe-zeta-2.5", "kind": "starlike", "zeta": 2.5, "factors": [
        {"alpha": 2.0, "beta": 4.008424213404442, "lambda": 1.0546631223362106},
        {"alpha": 1.5, "beta": 5.781548776219205, "lambda": 0.7793476597789173}]},
    {"name": "star-24", "kind": "starlike", "zeta": 1.0,
     "factors": [{"alpha": 2.0, "beta": 4.0, "lambda": 1.0}]},
    {"name": "exponential", "kind": "starlike", "zeta": 1.0,
     "factors": [{"alpha": 1.0, "beta": 1.0, "lambda": 2.582310048511174}]},
    {"name": "eta-factor", "kind": "starlike", "zeta": 1.0, "factors": [
        {"alpha": 2.0, "beta": 7.385935999375465, "lambda": 1.7637746189766141,
         "eta": 0.1537456976449605}]},
]})


def grid_spec(name):
    return next(op.spec for op in OPERATOR_GRID.operators if op.name == name)


@pytest.fixture
def cold_factor_cache():
    """An empty factor cache, so that every factor's t A'/A is solved from its first
    term; emptied again after the test, so none of its series outlives it."""
    mittag_leffler._factor_series.cache_clear()
    yield
    mittag_leffler._factor_series.cache_clear()


class TestTableGrowth:
    """_sized_table grows a table by half, 16, 24, 36, ..., 200, and every length
    solves only the terms past the last: no term of any series is solved twice,
    in one certificate or, for a factor's t A'/A, in one process."""

    TOL = 1e-14
    TABLES = {  # name -> (coefficients, subject, series per length, final length)
        "two-factor-starlike": (_star_coefficients, grid_spec("probe-zeta-2.5"), 4, 24),
        "exponential": (_star_coefficients, grid_spec("exponential"), 3, 24),
        "ml-1-4": (_log_derivative_coefficients, (FactorSpec(MLParams(1, 4), 1.0),), 1, 24),
        "ml-1-0.2-no-cut": (_log_derivative_coefficients,
                            (FactorSpec(MLParams(1, 0.2), 1.0),), 1, SERIES_TERM_CAP),
    }

    @pytest.fixture(autouse=True)
    def _cold(self, cold_factor_cache):
        pass

    @pytest.mark.parametrize("kind", TABLES)
    def test_no_term_is_solved_twice(self, monkeypatch, kind):
        coefficients, subject, series, length = self.TABLES[kind]
        # the reference is a fresh solve from the empty cache, which is then emptied
        # again: the reference must not come from the cache the growth below fills
        full = coefficients(subject, self.TOL, SERIES_TERM_CAP)
        mittag_leffler._factor_series.cache_clear()
        solves = spy_on_solves(monkeypatch)
        terms, _, reason = _sized_table(coefficients, subject, 0.999, self.TOL)
        assert (reason is None) == (length < SERIES_TERM_CAP)
        assert len(solves) == series  # one list per series, continued at every length
        lengths = [16, 24, 36, 54, 81, 121, 181, 200]
        for solved, ranges in solves.values():
            assert len(solved) == length
            assert [r.stop for r in ranges] == lengths[: lengths.index(length) + 1]
            assert [i for r in ranges for i in r] == list(range(length))  # each index once
        assert len(terms) == _operator_cut(full[:length], 0.999, self.TOL)[0]
        assert np.array_equal(terms, full[: len(terms)])  # bit for bit

    def test_run_job_solves_each_term_once(self, monkeypatch):
        # a count, not a time, so solving any table again from its first term fails here
        # whatever the host's speed; every table of these jobs stops at 16 or 24 terms.
        # The corpus certifies E_{2,4} three times and E_{2,2} twice: each factor's
        # t A'/A is solved once, for all of them, and 120 terms in all, not 176
        solves = spy_on_solves(monkeypatch)
        run_job(load_job(CORPUS_PATH))
        assert terms_solved(solves) == 120
        mittag_leffler._factor_series.cache_clear()  # the corpus holds star-24's factor too
        solves.clear()
        run_job(OPERATOR_GRID)
        assert terms_solved(solves) == 344

    @pytest.mark.parametrize("job, warm", [("corpus", 32), ("operator-grid", 192)])
    def test_a_second_run_solves_only_h_and_v(self, monkeypatch, job, warm):
        # every factor's t A'/A is cached by the first run; a certificate's own H and V
        # depend on its zeta and lambdas, and a starlike certificate solves them anew
        job = load_job(CORPUS_PATH) if job == "corpus" else OPERATOR_GRID
        run_job(job)
        solves = spy_on_solves(monkeypatch)
        run_job(job)
        assert terms_solved(solves) == warm
        starlike = sum(op.kind == "starlike" for op in job.operators)
        assert len(solves) == 2 * starlike  # one H and one V each, no factor's series


@pytest.mark.usefixtures("cold_factor_cache")
class TestSharedFactorSeries:
    """A factor's t A'/A, solved once per process in mittag_leffler's cache, gives
    every certificate the table a fresh solve would: sharing it changes nothing."""

    TOL = 1e-14
    JOBS = {"corpus": lambda: load_job(CORPUS_PATH), "operator-grid": lambda: OPERATOR_GRID}

    @staticmethod
    def reports(job):
        return [json.dumps(c.to_dict()) for c in run_job(job).certificates]  # -0.0 != 0.0

    @pytest.mark.parametrize("r_max", [None, 1.0])
    @pytest.mark.parametrize("name", JOBS)
    def test_every_certificate_is_the_same_warm_and_cold(self, name, r_max):
        job = self.JOBS[name]()
        if r_max is not None:
            job = dataclasses.replace(job, grid=GridSpec(r_max=r_max, angles=job.grid.angles))
        cold = []
        for op in job.operators:  # each certificate alone, from an empty cache
            mittag_leffler._factor_series.cache_clear()
            cold += self.reports(dataclasses.replace(job, operators=(op,)))
        self.reports(job)
        assert self.reports(job) == cold  # every factor's series cached by the run before

    @pytest.mark.parametrize("name", ["probe-zeta-2.5", "star-24"])
    def test_a_mutated_table_leaves_the_next_certificate_unchanged(self, name):
        # a builder hands out a new list, never the cached one, so no caller reaches it;
        # star-24's one factor at lambda = 1 makes Q that factor's t A'/A itself
        spec = grid_spec(name)
        runs = (lambda: certify_starlike(spec).to_dict(),
                lambda: certify_convex(spec.factors).to_dict())
        before = [run() for run in runs]
        for table in (_log_derivative_coefficients(spec.factors, self.TOL, 36),
                      _star_coefficients(spec, self.TOL, 36),
                      _sized_table(_log_derivative_coefficients, spec.factors, 0.999, self.TOL)[0]):
            table[:] = [math.nan] * len(table)
        assert [run() for run in runs] == before

    def test_one_factor_shares_one_list_across_lambda_eta_and_zeta(self, monkeypatch):
        params = MLParams(2.0, 4.0)
        lists = []

        def spy(alpha, beta, tol):
            entry = mittag_leffler._factor_series(alpha, beta, tol)
            lists.append(entry[1])
            return entry

        monkeypatch.setattr(operators, "_factor_series", spy)
        certify_starlike(OperatorSpec((FactorSpec(params, 1.0),), 1.0), r_max=0.999)
        certify_starlike(OperatorSpec((FactorSpec(params, 2.5, 0.3),), 0.5), r_max=1.0)
        certify_convex((FactorSpec(params, 0.7, 0.1),), r_max=0.9)
        assert len(lists) >= 3 and all(part is lists[0] for part in lists)
        assert_fresh_solve(2.0, 4.0, self.TOL, lists[0])

    def test_threads_extend_one_list_without_losing_a_term(self):
        # more threads than cores, switching every microsecond: two threads appending to
        # one factor's list at once would solve a term from the wrong prefix
        factors = grid_spec("probe-zeta-0.37").factors
        lengths = [16, 24, 36, 54, 81, 121, 181, 200]

        def grow():
            for length in lengths:
                _log_derivative_coefficients(factors, self.TOL, length)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                mittag_leffler._factor_series.cache_clear()
                threads = [threading.Thread(target=grow) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for f in factors:
                    _, part = mittag_leffler._factor_series(f.params.alpha, f.params.beta,
                                                            self.TOL)
                    assert len(part) == SERIES_TERM_CAP
                    assert_fresh_solve(f.params.alpha, f.params.beta, self.TOL, part)
        finally:
            sys.setswitchinterval(interval)


def assert_fresh_solve(alpha, beta, tol, part):
    """part is bit for bit a fresh solve of t A'/A, as long as part, for the factor."""
    table = mittag_leffler._coefficients(alpha, beta, tol)
    fresh = series_solve(table, [n * c for n, c in enumerate(table)], len(part))
    assert [x.hex() for x in part] == [x.hex() for x in fresh]


class TestCircleSums:
    """dump's circle sums, each circle's half by Horner on its own terms, mirrored into
    the full circle, against pointwise Horner over the outermost circle's cut and
    against the cos/sin basis that oracles keeps."""

    TOL = 1e-14
    PROBE = OperatorSpec((FactorSpec(MLParams(1.5, 2.0), 2.0), FactorSpec(MLParams(2.0, 3.0), 3.0)),
                         0.37)
    TABLES = {
        "starlike-zeta-0.37": (_star_coefficients, PROBE),
        "ml-1.2-1.7": (_log_derivative_coefficients, (FactorSpec(MLParams(1.2, 1.7), 1.0),)),
    }

    @staticmethod
    @functools.lru_cache
    def phases(m):
        # correctly rounded e^(2 pi i k/m): np.exp of a rounded angle near 2 pi is
        # off by about 4e-16, which moves Horner's sum as much as the basis product's error
        return np.array([complex(mpmath.expjpi(mpmath.mpf(2 * k) / m)) for k in range(m)])

    def assert_matches_horner(self, terms, sums, radii):
        for row, r in enumerate(radii):
            pointwise = horner(terms, r * self.phases(sums.shape[1]))
            scale = np.sum(np.abs(terms) * r ** np.arange(len(terms)))
            assert np.max(np.abs(sums[row] - pointwise)) <= 1e-15 * scale

    @pytest.mark.parametrize("m", [8, 9, 720, 4096])
    @pytest.mark.parametrize("kind", TABLES)
    def test_matches_horner_on_every_circle(self, m, kind):
        radii = (0.25, 0.9, 0.999)
        terms, _, _ = _sized_table(*self.TABLES[kind], radii[-1], self.TOL)
        sums = np.array(dump_circles(radii, m, terms))
        assert sums.shape == (3, m)
        assert len(terms) > 9  # m = 8 and 9 fold
        self.assert_matches_horner(terms, sums, radii)

    @pytest.mark.parametrize("kind", TABLES)
    def test_inner_circles_sum_the_outer_cut(self, kind):
        # every circle sums the terms of the outermost circle's cut, which are more than
        # an inner circle's own cut keeps; the extra terms add up to at most the tolerance
        radii, m = (0.25, 0.5, 0.999), 720
        coefficients, subject = self.TABLES[kind]
        terms, _, _ = _sized_table(coefficients, subject, radii[-1], self.TOL)
        sums = np.array(dump_circles(radii, m, terms))
        table = coefficients(subject, self.TOL, SERIES_TERM_CAP)  # for the inner cuts
        for row, r in enumerate(radii[:-1]):
            z = r * self.phases(m)
            assert _operator_cut(table, r, self.TOL)[0] < len(terms)
            assert np.max(np.abs(sums[row] - horner(terms, z))) <= 1e-15
            assert np.max(np.abs(sums[row] - table_deviation(table, z, self.TOL))) <= self.TOL

    @pytest.mark.parametrize("m", [8, 9, 720, 4096])
    def test_mirror_points_are_exact_conjugates(self, m):
        terms, _, _ = _sized_table(_star_coefficients, self.PROBE, 0.999, self.TOL)
        sums = np.array(dump_circles((0.5, 0.999), m, terms))
        assert np.array_equal(sums[:, :0:-1], sums[:, 1:].conj())  # g[m-k] == conj(g[k])
        assert np.all(sums[:, 0].imag == 0.0)

    @pytest.mark.parametrize("m", [8, 9, 720, 4096])
    def test_the_half_is_the_first_half_of_the_circle(self, m):
        # every circle is its own Horner sum; the basis product that once summed
        # several circles at once differs from it in rounding alone
        radii = (0.25, 0.5, 0.999)
        terms, _, _ = _sized_table(_star_coefficients, self.PROBE, 0.999, self.TOL)
        together = half_circle_sums(radii, m, terms)
        for r, circle, row in zip(radii, dump_circles(radii, m, terms), together,
                                  strict=True):
            half = np.array(circle[: m // 2 + 1])
            assert len(circle) == m and half.shape == row.shape == (m // 2 + 1,)
            scale = np.sum(np.abs(terms) * r ** np.arange(len(terms)))
            assert np.max(np.abs(half - row)) <= 1e-15 * scale

    @pytest.mark.parametrize("rows, m", [(16, 8), (32, 9), (16, 720), (256, 4096)])
    def test_basis_is_exact_where_the_angle_is_0_or_pi(self, rows, m):
        basis = _circle_basis(rows, m)
        cos, sin = basis[:, 0::2], basis[:, 1::2]
        assert basis.shape == (rows, 2 * (m // 2 + 1)) and not basis.flags.writeable
        assert np.all(sin[:, 0] == 0.0) and np.all(cos[:, 0] == 1.0)
        if m % 2 == 0:  # e^(i pi n) = (-1)^n
            assert np.all(sin[:, m // 2] == 0.0)
            assert np.array_equal(cos[:, m // 2], (-1.0) ** np.arange(rows))
        assert np.all(sin[0] == 0.0) and np.all(cos[0] == 1.0)

    @pytest.mark.parametrize("m", [8, 9, 100])
    def test_basis_folds_rows_past_m(self, m):
        # n k mod m: row n of a cut longer than m is row n mod m, bit for bit
        basis = _circle_basis(256, m)
        assert np.array_equal(basis, basis[np.arange(256) % m])

    def test_basis_cache_is_bounded(self):
        for m in range(8, 8 + 3 * _BASES):
            _circle_basis(16, m)
        info = _circle_basis.cache_info()
        assert info.maxsize == _BASES and info.currsize <= _BASES
