import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlstar import (
    DomainError,
    FactorSpec,
    GOLDEN_RATIO,
    MLParams,
    OperatorSpec,
    convex_delta,
    log_deriv_bound,
    phi,
    psi,
    starlike_delta,
)

PSI_AT_0 = 3.5615528128088303     # (3 + sqrt 17) / 2
PSI_AT_05 = 5.541381265149109     # 2.5 + sqrt 9.25


def bisect_psi(eta, lo=1.0, hi=1e6, steps=200):
    """Root of the quadratic whose positive solution defines the threshold:
    (1 - eta) b^2 - (3 - eta) b - (2 - eta) = 0."""

    def q(b):
        return (1.0 - eta) * b * b - (3.0 - eta) * b - (2.0 - eta)

    assert q(lo) < 0 < q(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if q(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPsi:
    def test_plain_starlikeness_threshold(self):
        assert psi(0.0) == pytest.approx(PSI_AT_0, rel=1e-15)

    def test_half_order_threshold(self):
        assert psi(0.5) == pytest.approx(PSI_AT_05, rel=1e-15)

    def test_matches_bisection_on_defining_quadratic(self, rng):
        for eta in rng.uniform(0.0, 0.95, size=50):
            assert psi(eta) == pytest.approx(bisect_psi(eta), rel=1e-10)

    def test_divergence_near_one(self):
        assert psi(1.0 - 1e-8) > 1e8
        assert psi(1.0 - 1e-10) > psi(1.0 - 1e-8)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                psi(bad)

    def test_strictly_increasing(self, rng):
        pairs = rng.uniform(0.0, 1.0 - 1e-9, size=(1000, 2))
        for a, b in pairs:
            lo, hi = min(a, b), max(a, b)
            if lo == hi:
                continue
            assert psi(lo) < psi(hi)


class TestPhi:
    def test_paper_coefficients(self):
        assert phi(2.0) == pytest.approx(5.0, rel=1e-15)
        assert phi(3.0) == pytest.approx(7.0 / 5.0, rel=1e-15)
        assert phi(4.0) == pytest.approx(9.0 / 11.0, rel=1e-15)

    def test_domain(self):
        for bad in (GOLDEN_RATIO, GOLDEN_RATIO - 0.1, 1.0, 0.0):
            with pytest.raises(DomainError):
                phi(bad)

    def test_strictly_decreasing(self, rng):
        pairs = rng.uniform(1.7, 100.0, size=(1000, 2))
        for a, b in pairs:
            lo, hi = min(a, b), max(a, b)
            if lo == hi:
                continue
            assert phi(lo) > phi(hi)

    def test_limit_zero(self):
        assert 0.0 < phi(1e9) < 1e-8

    @given(st.floats(1.7, 1e6))
    def test_positive_on_domain(self, beta):
        assert phi(beta) > 0.0


class TestLogDerivBound:
    def test_values(self):
        assert log_deriv_bound(MLParams(1, 2)) == pytest.approx(5.0)
        assert log_deriv_bound(MLParams(3, 4)) == pytest.approx(9.0 / 11.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_deriv_bound(MLParams(1, 1.5))


def spec_of(entries, zeta):
    return OperatorSpec(
        tuple(FactorSpec(MLParams(a, b), lam, eta) for a, b, lam, eta in entries),
        zeta,
    )


class TestStarlikeDelta:
    def test_unit_parameters_give_one_half(self):
        report = starlike_delta(spec_of([(2, 4, 1.0, 0.0)], 1.0))
        assert report.delta == 0.5
        assert report.hypothesis_ok

    def test_lambda_two(self):
        report = starlike_delta(spec_of([(2, 4, 2.0, 0.0)], 1.0))
        assert report.delta == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)

    def test_vanishing_bracket(self):
        # sum of 2(1-eta)/lambda equal to 2 zeta - 1 leaves sqrt(8 zeta)/(4 zeta)
        report = starlike_delta(spec_of([(2, 4, 2.0 / 3.0, 0.0)], 2.0))
        assert report.delta == pytest.approx(math.sqrt(16.0) / 8.0, rel=1e-14)

    def test_hypothesis_flag(self):
        # beta below the threshold psi(0) trips the flag but still reports delta
        report = starlike_delta(spec_of([(2, 3, 1.0, 0.0)], 1.0))
        assert not report.hypothesis_ok
        assert report.delta == 0.5
        # weight sum above zeta also trips it
        report = starlike_delta(spec_of([(2, 4, 0.25, 0.0)], 1.0))
        assert not report.hypothesis_ok

    @pytest.mark.parametrize("lam, zeta", [(1.0, 1e-9), (1.0, 1e-300), (1.0, 1e200),
                                           (1.0, 1e300), (1e-300, 1.0)])
    def test_root_neither_cancels_nor_overflows(self, lam, zeta):
        # the textbook root gave 0.333333361, 0, inf, inf and inf here
        with mpmath.workdps(700):  # enough digits to resolve -b + sqrt(b^2 + 8 zeta)
            z = mpmath.mpf(zeta)
            b = 2 / mpmath.mpf(lam) - 2 * z + 1
            exact = float((-b + mpmath.sqrt(b * b + 8 * z)) / (4 * z))
        delta = starlike_delta(spec_of([(2, 4, lam, 0.0)], zeta)).delta
        assert delta == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_root_property_and_range(self, rng):
        logged = []
        for _ in range(10000):
            n = int(rng.integers(1, 5))
            zeta = rng.uniform(0.05, 5.0)
            etas = rng.uniform(0.0, 0.999, size=n)
            # draw weights that satisfy sum (1 - eta)/lambda <= zeta
            budget = rng.uniform(0.05, 1.0) * zeta
            shares = rng.uniform(0.1, 1.0, size=n)
            shares *= budget / shares.sum()
            lams = (1.0 - etas) / shares
            spec = spec_of(
                [(1.0, 4.0, float(l), float(e)) for l, e in zip(lams, etas)], zeta
            )
            report = starlike_delta(spec)
            assert report.hypothesis_sum <= zeta * (1.0 + 1e-12)
            b = 2.0 * report.hypothesis_sum - 2.0 * zeta + 1.0
            residual = 2.0 * zeta * report.delta**2 + b * report.delta - 1.0
            assert abs(residual) <= 1e-12
            if not 0.0 < report.delta < 1.0:
                logged.append((zeta, lams, etas, report.delta))
        # counterexamples to the range claim are logged, not asserted away
        if logged:
            print(f"range-property counterexamples: {logged[:5]}")


class TestConvexDelta:
    def test_threshold_lambda_gives_zero(self):
        report = convex_delta((FactorSpec(MLParams(2, 2), 5.0),))
        assert report.delta == pytest.approx(0.0, abs=1e-15)
        assert report.hypothesis_ok

    def test_half_order_example(self):
        report = convex_delta((FactorSpec(MLParams(2, 3), 2.8),))
        assert report.delta == pytest.approx(0.5, rel=1e-14)

    def test_two_factor_flag(self):
        report = convex_delta(
            (FactorSpec(MLParams(2, 4), 2.0), FactorSpec(MLParams(2, 3), 2.0))
        )
        assert report.beta_min == 3.0
        assert report.delta == pytest.approx(-0.4, rel=1e-14)
        assert not report.hypothesis_ok

    def test_beta_at_golden_ratio_rejected(self):
        with pytest.raises(DomainError):
            convex_delta((FactorSpec(MLParams(2, GOLDEN_RATIO), 1.0),))

    def test_adding_a_factor_decreases_delta(self, rng):
        for _ in range(100):
            base = [
                FactorSpec(MLParams(1, rng.uniform(1.7, 10.0)), rng.uniform(0.5, 20.0))
                for _ in range(int(rng.integers(1, 4)))
            ]
            extra = FactorSpec(MLParams(1, rng.uniform(1.7, 10.0)), rng.uniform(0.5, 20.0))
            before = convex_delta(tuple(base)).delta
            after = convex_delta(tuple(base + [extra])).delta
            assert after < before
