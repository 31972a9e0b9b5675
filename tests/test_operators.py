import cmath
import math

import numpy as np
import pytest

from mlstar import (
    BranchTracker,
    DomainError,
    EvalPoint,
    FactorSpec,
    MLParams,
    NearZeroDenominatorError,
    OperatorSpec,
    convex_log_deriv,
    f_conv_value,
    f_value,
    f_zeta_power,
    product_term,
    star_log_deriv,
)

from conftest import random_disk_points
from oracles import e24, exp_star_quantity, fixed_panel_integral, integrated_series

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
    def test_exponential_factor(self):
        spec = single(1, 1)
        trackers = [BranchTracker()]
        value = product_term(spec, 0.5, trackers)
        assert value == pytest.approx(math.exp(0.5), rel=1e-13)

    def test_limit_toward_origin(self):
        spec = single(2, 4)
        value = product_term(spec, 1e-7, [BranchTracker()])
        assert value == pytest.approx(1.0, abs=1e-6)
        # the ratio stays exact even where the normalized value underflows
        value = product_term(spec, 1e-12, [BranchTracker()])
        assert value == pytest.approx(1.0, abs=1e-11)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            product_term(single(1, 1), 0.0, [BranchTracker()])

    def test_exponent_additivity(self, rng):
        # two identical factors at doubled lambda act like one factor
        params = MLParams(2, 3)
        one = OperatorSpec((FactorSpec(params, 1.0),), 1.0)
        two = OperatorSpec((FactorSpec(params, 2.0), FactorSpec(params, 2.0)), 1.0)
        for z in random_disk_points(rng, 20, r_min=1e-3):
            z = complex(z)
            lhs = product_term(one, z, [BranchTracker()])
            rhs = product_term(two, z, [BranchTracker(), BranchTracker()])
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


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

    def test_graded_substitution_converges_quickly(self):
        # the endpoint exponent must never degrade the panel ladder, and the
        # near-origin nodes it creates must not trip the zero guard
        from mlstar.operators import _ray_sweep

        factors = (FactorSpec(MLParams(2, 4), 1.0),)
        for zeta in (0.37, 0.5, 1.0, 1.5, 1.7, 2.0, 3.0, math.pi):
            _, _, err, panels, denom_bad, phase_bad = _ray_sweep(
                factors, [0.9 + 0.3j], zeta, 1e-11
            )
            assert panels <= 8
            assert float(err[0]) <= 1e-11
            assert not denom_bad[0] and not phase_bad[0]


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
        # 1/lambda = 1e7 overflows the product along the ray
        spec = single(1, 1, lam=1e-7)
        with pytest.raises(NearZeroDenominatorError):
            star_log_deriv(spec, 0.9)


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
