import math

import numpy as np
import pytest

from mlstar import (
    DomainError,
    MLParams,
    NearZeroDenominatorError,
    SeriesTruncationError,
    log_deriv,
    ml_norm,
    ml_norm_deriv,
    ml_raw,
)
from mlstar import mittag_leffler
from mlstar.mittag_leffler import SeriesResult

from conftest import ml_table_deviation, random_disk_points
from oracles import CLOSED, direct_series_norm, direct_series_raw, e24_log_deriv

# frozen from the closed-form oracles in oracles.py
E23_AT_049 = 0.510338011261886          # 2*(cosh 0.7 - 1)
E22_AT_025 = 0.2605476527468737         # 0.5*sinh 0.5
DERIV_21_AT_025 = 1.2578997915798176    # cosh 0.5 + 0.25*sinh 0.5
DERIV_11_AT_05 = 2.4730819060501923     # 1.5*e^0.5


class TestParams:
    def test_validation(self):
        MLParams(1.0, 0.1)
        with pytest.raises(DomainError):
            MLParams(0.99, 1.0)
        with pytest.raises(DomainError):
            MLParams(1.0, 0.0)
        with pytest.raises(DomainError):
            MLParams(1.0, -2.0)

    def test_non_finite_rejected(self):
        # an infinite beta would make the coefficient table loop without end
        for alpha, beta in ((2.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan)):
            with pytest.raises(DomainError):
                MLParams(alpha, beta)

    def test_overflowing_sum_raises(self):
        # Gamma(5.6e-309) is finite, but the coefficients near 1/beta overflow the sum
        params = MLParams(1.0, 5.6e-309)
        for evaluate in (ml_raw, ml_norm, ml_norm_deriv):
            with pytest.raises(SeriesTruncationError, match="overflows") as err:
                evaluate(params, 0.5)
            assert not np.isfinite(err.value.partial.value)
        for z in (0.5, 1e-3):
            with pytest.raises(SeriesTruncationError, match="overflows"):
                log_deriv(params, z)


class TestRawSeries:
    def test_origin_is_reciprocal_gamma(self):
        result = ml_raw(MLParams(1, 1), 0.0)
        assert result.value == pytest.approx(1.0)
        assert result.terms_used == 1
        assert result.tail_bound == 0.0

    def test_exponential_case(self):
        result = ml_raw(MLParams(1, 1), 0.5)
        assert result.value == pytest.approx(math.exp(0.5), rel=1e-14)

    def test_cosh_case_against_direct_summation(self):
        result = ml_raw(MLParams(2, 1), 0.25)
        assert result.value == pytest.approx(math.cosh(0.5), rel=1e-13)
        assert result.value == pytest.approx(direct_series_raw(2, 1, 0.25), rel=1e-13)

    def test_tail_bound_is_honest(self, rng):
        for _ in range(50):
            alpha = rng.uniform(1.0, 4.0)
            beta = rng.uniform(0.3, 6.0)
            z = complex(random_disk_points(rng, 1)[0])
            coarse = ml_raw(MLParams(alpha, beta), z, tol=1e-6)
            fine = ml_raw(MLParams(alpha, beta), z, tol=1e-15)
            assert coarse.tail_bound <= 1e-6
            assert abs(coarse.value - fine.value) <= coarse.tail_bound

    def test_truncation_error_carries_partial(self, monkeypatch):
        monkeypatch.setattr(mittag_leffler, "SERIES_TERM_CAP", 5)
        mittag_leffler._factor_series.cache_clear()
        try:
            with pytest.raises(SeriesTruncationError) as err:
                ml_raw(MLParams(1, 1), 0.9, tol=1e-14)
        finally:
            mittag_leffler._factor_series.cache_clear()  # drop the 5-term tables
        assert isinstance(err.value.partial, SeriesResult)
        assert err.value.partial.terms_used == 5

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            ml_raw(MLParams(1, 1), 1.5)
        with pytest.raises(DomainError):
            ml_raw(MLParams(1, 1), 0.5, tol=0.0)

    @pytest.mark.parametrize("evaluate", [ml_raw, ml_norm, ml_norm_deriv, log_deriv])
    @pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(0.1, math.nan),
                                   complex(1.5e308, 1.5e308)])
    def test_a_modulus_that_is_not_at_most_1_is_rejected(self, evaluate, z):
        # NaN fails every comparison, and abs() of the last z overflows
        with pytest.raises(DomainError, match="must be <= 1"):
            evaluate(MLParams(2, 4), z)


class TestNormalized:
    def test_zero_maps_to_zero(self):
        result = ml_norm(MLParams(3.7, 0.4), 0.0)
        assert result.value == 0.0
        assert result.tail_bound == 0.0

    def test_frozen_closed_form_values(self):
        assert complex(ml_norm(MLParams(2, 3), 0.49).value) == pytest.approx(
            E23_AT_049, abs=1e-13
        )
        assert complex(ml_norm(MLParams(2, 2), 0.25).value) == pytest.approx(
            E22_AT_025, abs=1e-13
        )

    def test_matches_all_closed_forms(self, rng):
        points = random_disk_points(rng, 1000)
        for kind, oracle in CLOSED.items():
            params = MLParams(*kind)
            for z in points:
                z = complex(z)
                assert abs(ml_norm(params, z).value - oracle(z)) <= 1e-12

    def test_matches_direct_summation(self, rng):
        for _ in range(100):
            alpha = rng.uniform(1.0, 5.0)
            beta = rng.uniform(0.2, 8.0)
            z = complex(random_disk_points(rng, 1)[0])
            mine = ml_norm(MLParams(alpha, beta), z).value
            theirs = direct_series_norm(alpha, beta, z)
            assert abs(mine - theirs) <= 1e-12

    def test_tolerance_respected(self):
        result = ml_norm(MLParams(1, 1), 0.9, tol=1e-10)
        assert result.tail_bound <= 1e-10

    def test_positive_on_real_axis(self, rng):
        # positive coefficients keep the normalized value positive on (0, 1]
        for _ in range(200):
            params = MLParams(rng.uniform(1.0, 5.0), rng.uniform(0.1, 10.0))
            x = rng.uniform(1e-6, 1.0)
            assert ml_norm(params, x).value.real > 0.0


class TestDerivative:
    def test_origin_slope_is_one(self):
        assert ml_norm_deriv(MLParams(4, 2.5), 0.0).value == pytest.approx(1.0)

    def test_frozen_values(self):
        assert complex(ml_norm_deriv(MLParams(2, 1), 0.25).value) == pytest.approx(
            DERIV_21_AT_025, abs=1e-13
        )
        assert complex(ml_norm_deriv(MLParams(1, 1), 0.5).value) == pytest.approx(
            DERIV_11_AT_05, abs=1e-13
        )

    def test_finite_difference_order(self, rng):
        # centered differences converge at order >= 1.9 toward the series value;
        # draws are biased toward large third derivatives so that the h^2 term
        # stays above the double-precision floor of the difference quotient
        orders = []
        for _ in range(60):
            params = MLParams(rng.uniform(1.0, 1.3), rng.uniform(0.2, 0.35))
            z = complex(random_disk_points(rng, 1, r_max=0.92, r_min=0.8)[0])
            exact = ml_norm_deriv(params, z, tol=1e-16).value

            def centered(h):
                plus = ml_norm(params, z + h, tol=1e-16).value
                minus = ml_norm(params, z - h, tol=1e-16).value
                return (plus - minus) / (2.0 * h)

            err4 = abs(centered(1e-4) - exact)
            err5 = abs(centered(1e-5) - exact)
            if err5 < 3e-10:  # below the resolvable floor at this h
                continue
            orders.append(math.log10(err4 / err5))
        assert len(orders) >= 10
        assert min(orders) >= 1.9


class TestLogDeriv:
    def test_continuity_at_origin(self):
        assert log_deriv(MLParams(2, 4), 0.0) == pytest.approx(1.0)
        near = log_deriv(MLParams(2, 4), 1e-9)
        c2 = 1.0 / 20.0  # Gamma(4)/Gamma(6)
        assert near == pytest.approx(1.0 + c2 * 1e-9, abs=1e-15)

    def test_closed_form_oracle_2_4(self):
        mine = log_deriv(MLParams(2, 4), 0.25)
        assert mine == pytest.approx(e24_log_deriv(0.25), abs=1e-12)

    def test_exponential_case_is_one_plus_z(self, rng):
        for z in random_disk_points(rng, 25):
            z = complex(z)
            assert log_deriv(MLParams(1, 1), z) == pytest.approx(1.0 + z, abs=1e-12)

    def test_zero_denominator_guard(self, monkeypatch):
        params = MLParams(2, 4)

        def tiny_series(coeffs, z):
            return 1e-13 + 0j

        monkeypatch.setattr(mittag_leffler, "_horner", tiny_series)
        with pytest.raises(NearZeroDenominatorError) as err:
            log_deriv(params, 0.5)
        assert err.value.z == 0.5


class TestClosedForm:
    """The closed-form oracles that the series are checked against."""

    def test_values_at_zero(self):
        for closed_form in CLOSED.values():
            assert closed_form(0.0) == 0.0

    def test_normalization_slope(self):
        z = 1e-12
        assert CLOSED[(2, 4)](z) / z == pytest.approx(1.0, abs=1e-10)

    def test_frozen_value(self):
        assert CLOSED[(2, 3)](0.49) == pytest.approx(E23_AT_049, abs=1e-15)


class TestArrayHelpers:
    def test_log_deriv_array_matches_scalar(self, rng):
        params = MLParams(2, 4)
        z = random_disk_points(rng, 50, r_min=1e-3)
        deviation = ml_table_deviation(params, z)
        for k in range(z.size):
            scalar = log_deriv(params, complex(z[k]))
            assert abs(1.0 + deviation[k] - scalar) <= 1e-12
