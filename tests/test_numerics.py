import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlstar import (
    BranchTracker,
    DomainError,
    MLParams,
    PathResolutionError,
    QuadratureConvergenceError,
    integrate_gl,
    principal_power,
    tracked_power,
)
from mlstar.numerics import gamma_ratio


class TestGamma:
    """gamma_ratio, the Gamma quotient behind every series coefficient."""

    def test_known_values(self):
        assert gamma_ratio(1.0, 5.0) == pytest.approx(1.0 / 120.0, rel=1e-14)
        assert gamma_ratio(0.5, 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_ratio(3.7, 0.0) == 1.0
        for x in (40.0, 200.0, 1e6):
            assert gamma_ratio(x, 1.0) == pytest.approx(1.0 / x, rel=1e-14)

    def test_matches_reference_over_full_range(self, rng):
        # the arguments of mpmath's reference are exact, as the series needs
        mpmath.mp.dps = 40
        worst = 0.0
        for _ in range(2000):
            x = 10.0 ** rng.uniform(-1.0, 6.0)
            h = rng.uniform(0.0, 60.0)
            truth = mpmath.exp(mpmath.loggamma(x) - mpmath.loggamma(mpmath.mpf(x) + h))
            if truth < 1e-20:  # too small to matter in any series sum
                continue
            worst = max(worst, float(abs(gamma_ratio(x, h) - truth) / truth))
        assert worst <= 3e-14

    def test_recurrence_property(self, rng):
        for x in rng.uniform(0.5, 500.0, size=1000):
            h = rng.uniform(0.0, 20.0)
            lhs = gamma_ratio(x, h + 1.0) * (x + h)
            assert lhs == pytest.approx(gamma_ratio(x, h), rel=1e-13)

    def test_domain_errors(self):
        # Gamma is only ever evaluated at parameters MLParams has admitted
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                MLParams(1.0, bad)

    def test_past_double_range_is_inf(self):
        # Gamma(500) is past the double range, but the ratio is not
        with pytest.raises(OverflowError):
            math.gamma(500.0)
        assert gamma_ratio(500.0, 2.0) == pytest.approx(1.0 / (500.0 * 501.0), rel=1e-14)
        assert gamma_ratio(0.5, 500.0) == 0.0  # below the double range


class TestPrincipalPower:
    def test_examples(self):
        assert principal_power(1.0 + 0j, 0.37) == pytest.approx(1.0)
        assert principal_power(4.0 + 0j, 0.5) == pytest.approx(2.0, rel=1e-14)
        assert principal_power(-1.0 + 0j, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            principal_power(0j, 0.5)

    def test_negative_axis_uses_upper_branch(self):
        # Im log w = +pi on the cut, regardless of the sign of the zero imag part
        assert principal_power(complex(-4.0, -0.0), 0.5) == pytest.approx(2j, abs=1e-14)

    def test_identity_exponent(self, rng):
        for _ in range(1000):
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if w == 0:
                continue
            assert abs(principal_power(w, 1.0) - w) <= 1e-15 * abs(w)

    def test_exponent_additivity_off_cut(self, rng):
        for _ in range(1000):
            r = rng.uniform(0.1, 3.0)
            theta = rng.uniform(-3.0, 3.0)  # stays off the negative real axis
            w = r * cmath.exp(1j * theta)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = principal_power(w, a) * principal_power(w, b)
            rhs = principal_power(w, a + b)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    @given(
        st.floats(0.01, 100.0),
        st.floats(-3.1, 3.1),
        st.floats(-3.0, 3.0),
    )
    def test_modulus_is_real_power(self, r, theta, e):
        w = r * cmath.exp(1j * theta)
        assert abs(principal_power(w, e)) == pytest.approx(r**e, rel=1e-12)


class TestTrackedPower:
    def test_seeds_at_principal_phase(self):
        tracker = BranchTracker()
        assert tracked_power(1.0 + 0j, 1.0, tracker) == pytest.approx(1.0)
        assert tracker.initialized
        assert tracker.previous_log_imag == pytest.approx(0.0)

    def test_smooth_path(self):
        tracker = BranchTracker()
        tracked_power(cmath.exp(0.1j), 1.0, tracker)
        out = tracked_power(cmath.exp(0.2j), 1.0, tracker)
        assert out == pytest.approx(cmath.exp(0.2j), abs=1e-15)
        assert tracker.previous_log_imag == pytest.approx(0.2)

    def test_winding_leaves_the_principal_sheet(self):
        # walk 3/4 of a turn past the cut: tracked phase reaches 3*pi/2
        tracker = BranchTracker()
        steps = 100
        for k in range(steps + 1):
            theta = 1.5 * math.pi * k / steps
            out = tracked_power(cmath.exp(1j * theta), 0.5, tracker)
        assert tracker.previous_log_imag == pytest.approx(1.5 * math.pi)
        assert out == pytest.approx(cmath.exp(0.75j * math.pi), abs=1e-12)
        # the pointwise principal value lands on the other sheet
        principal = principal_power(cmath.exp(1.5j * math.pi), 0.5)
        assert abs(out - principal) > 1.0

    def test_half_turn_step_is_ambiguous(self):
        tracker = BranchTracker()
        tracked_power(1.0 + 0j, 1.0, tracker)
        with pytest.raises(PathResolutionError):
            tracked_power(-1.0 + 0j, 1.0, tracker)

    def test_exponent_additivity_along_path(self, rng):
        t1, t2, t3 = BranchTracker(), BranchTracker(), BranchTracker()
        a, b = 0.7, -0.4
        theta = 0.0
        for _ in range(50):
            theta += rng.uniform(0.0, 0.4)
            w = rng.uniform(0.5, 2.0) * cmath.exp(1j * theta)
            lhs = tracked_power(w, a, t1) * tracked_power(w, b, t2)
            rhs = tracked_power(w, a + b, t3)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            tracked_power(0j, 0.5, BranchTracker())


class TestIntegrateGL:
    def test_constant(self):
        result = integrate_gl(lambda w: 1.0, 1e-3)
        assert result.value == pytest.approx(1.0, abs=1e-15)
        assert result.error_estimate == pytest.approx(0.0, abs=1e-15)
        assert result.panels_used == 2

    def test_linear(self):
        result = integrate_gl(lambda w: w, 1e-10)
        assert result.value == pytest.approx(0.5, abs=1e-15)

    def test_exponential_against_fixed_panel_reference(self):
        from oracles import fixed_panel_integral

        result = integrate_gl(cmath.exp, 1e-13)
        reference = fixed_panel_integral(cmath.exp, 0.0, 1.0, panels=10 * result.panels_used)
        assert abs(result.value - reference) <= 1e-13
        assert result.value.real == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_polynomial_exactness(self, rng):
        # 16-node Gauss-Legendre is exact through degree 31 on a single panel
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, size=32)
            truth = sum(c / (k + 1) for k, c in enumerate(coeffs))

            def poly(w, c=coeffs):
                acc = 0.0
                for ck in reversed(c):
                    acc = acc * w + ck
                return acc

            result = integrate_gl(poly, 1e-13)
            assert abs(result.value - truth) <= 1e-14

    def test_complex_values(self):
        result = integrate_gl(lambda w: cmath.exp(1j * w), 1e-12)
        truth = (cmath.exp(1j) - 1.0) / 1j
        assert abs(result.value - truth) <= 1e-12

    def test_cap_failure_carries_best_estimate(self):
        # kink at an irrational point defeats panel alignment
        kink = 1.0 / math.pi

        def rough(w):
            return math.sqrt(abs(w - kink))

        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_gl(rough, 1e-30, panel_cap=64)
        best = err.value.best
        assert best is not None
        assert best.panels_used == 64
        truth = (2.0 / 3.0) * (kink**1.5 + (1.0 - kink) ** 1.5)
        assert abs(best.value - truth) <= 1e-3

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate_gl(lambda w: 1.0, 0.0)

    def test_nodes_visited_ascending(self):
        seen = []

        def probe(w):
            seen.append(w)
            return w * w

        integrate_gl(probe, 1e-12)
        # ascending within each refinement pass (passes restart at the origin)
        restarts = [i for i in range(1, len(seen)) if seen[i] < seen[i - 1]]
        assert len(restarts) <= math.ceil(math.log2(len(seen) / 16))
        for i in range(1, len(seen)):
            if i not in restarts:
                assert seen[i] > seen[i - 1]
