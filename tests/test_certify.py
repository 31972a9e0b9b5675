import json
import math

import numpy as np
import pytest

from mlstar import (
    DomainError,
    FactorSpec,
    MLParams,
    OperatorSpec,
    SeriesTruncationError,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
    log_deriv,
)
from mlstar import certify as certify_module
from mlstar import mittag_leffler
from mlstar.certify import (
    GridSpec,
    QUANTITY_LOG_DERIV_BOUND,
    QUANTITY_STARLIKE_ML,
    VERDICT_FAIL,
    VERDICT_HYPOTHESIS,
    VERDICT_PASS,
    default_radii,
)

from oracles import brute_max_abs_dev, brute_min_re, e24_log_deriv, exp_star_quantity


def single(alpha, beta, lam=1.0, zeta=1.0, eta=0.0):
    return OperatorSpec((FactorSpec(MLParams(alpha, beta), lam, eta),), zeta)


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.radii == (0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
        assert grid.angles == 720
        assert grid.r_max == 0.999

    def test_default_radii_respect_r_max(self):
        assert default_radii(0.8) == (0.25, 0.5, 0.75, 0.8)
        grid = GridSpec(r_max=0.6)
        assert grid.radii == (0.25, 0.5, 0.6)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 0.5), angles=16)
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 1.2))
        with pytest.raises(DomainError):
            GridSpec(angles=4)
        with pytest.raises(DomainError):
            GridSpec(r_max=1.0)


class TestStarlikeCertificates:
    def test_identity_product_stub(self, identity_product, small_grid):
        cert = certify_starlike(single(2, 4), small_grid)
        assert cert.observed == pytest.approx(1.0, abs=1e-12)
        # deterministic argmin tie-break: smallest radius, then smallest angle
        assert cert.argmin.radius == small_grid.radii[0]
        assert cert.argmin.angle == 0.0
        assert cert.verdict == VERDICT_PASS

    def test_corpus_case_passes(self, small_grid):
        cert = certify_starlike(single(2, 4), small_grid)
        assert cert.predicted == 0.5
        assert cert.verdict == VERDICT_PASS
        assert cert.margin >= 1e-6
        assert cert.failed_count == 0

    def test_exponential_case_against_brute_force(self, small_grid):
        cert = certify_starlike(single(1, 1), small_grid)
        oracle = brute_min_re(
            exp_star_quantity, small_grid.radii, 10 * small_grid.angles
        )
        # the finer oracle grid can only go lower, and not by much
        assert cert.observed >= oracle - 1e-12
        assert cert.observed - oracle <= 5e-3

    def test_prediction_override(self, small_grid):
        cert = certify_starlike(single(2, 4), small_grid, predicted=2.0)
        assert cert.verdict == VERDICT_FAIL
        assert cert.margin < 0.0

    def test_two_factors_with_order_targets(self):
        factors = (
            FactorSpec(MLParams(1.5, 6.0), 2.0, eta=0.25),
            FactorSpec(MLParams(2.0, 4.0), 4.0, eta=0.0),
        )
        spec = OperatorSpec(factors, 2.0)
        grid = GridSpec(radii=(0.9, 0.999), angles=180)
        cert = certify_starlike(spec, grid)
        assert cert.hypothesis_ok  # 0.25/2 + 1/4 = 0.625 <= zeta
        assert cert.verdict == VERDICT_PASS
        assert cert.margin >= 1e-6

    def test_weight_sum_above_zeta_flags_hypothesis(self):
        spec = single(2, 4, lam=1.0, zeta=0.5)  # 1/lambda = 1 > zeta
        cert = certify_starlike(spec, GridSpec(radii=(0.999,), angles=90))
        assert cert.verdict == VERDICT_HYPOTHESIS
        assert not cert.hypothesis_ok

    def test_three_factors_fractional_zeta(self):
        # graded-substitution path with a large node compression toward 0
        spec = OperatorSpec(
            (
                FactorSpec(MLParams(1.0, 6.0), 2.0, eta=0.3),
                FactorSpec(MLParams(2.5, 4.5), 3.0, eta=0.1),
                FactorSpec(MLParams(1.5, 5.0), 1.5, eta=0.0),
            ),
            1.7,
        )
        cert = certify_starlike(spec, GridSpec(radii=(0.9, 0.999), angles=180))
        assert cert.verdict == VERDICT_PASS
        assert cert.failed_count == 0
        assert cert.margin >= 1e-6


class TestConvexCertificates:
    def test_threshold_cases_pass(self, small_grid):
        for beta, lam in ((2.0, 5.0), (4.0, 9.0 / 11.0)):
            cert = certify_convex((FactorSpec(MLParams(2, beta), lam),), small_grid)
            assert cert.predicted == pytest.approx(0.0, abs=1e-15)
            assert cert.verdict == VERDICT_PASS
            assert cert.margin >= 1e-6

    def test_huge_lambda_degenerates_to_identity(self, small_grid):
        cert = certify_convex((FactorSpec(MLParams(2, 2), 1e6),), small_grid)
        assert cert.observed == pytest.approx(1.0, abs=1e-3)

    def test_hypothesis_flag(self, small_grid):
        factors = (FactorSpec(MLParams(2, 4), 2.0), FactorSpec(MLParams(2, 3), 2.0))
        cert = certify_convex(factors, small_grid)
        assert cert.verdict == VERDICT_HYPOTHESIS
        assert not cert.hypothesis_ok


class TestMLCertificates:
    def test_high_beta_case(self, small_grid):
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, small_grid)
        assert cert.quantity == QUANTITY_STARLIKE_ML
        assert cert.verdict == VERDICT_PASS
        assert cert.hypothesis_ok

    def test_exponential_case_observed_minimum(self, small_grid):
        # z E'/E = 1 + z, minimized at z = -r_max
        cert = certify_ml_starlike(MLParams(1, 1), 0.0, small_grid)
        assert cert.observed == pytest.approx(1.0 - small_grid.r_max, abs=1e-12)
        assert cert.verdict == VERDICT_HYPOTHESIS  # beta = 1 < psi(0)

    def test_subset_monotonicity(self):
        inner = certify_ml_starlike(MLParams(2, 4), 0.0, GridSpec(radii=(0.1,), angles=64))
        outer = certify_ml_starlike(MLParams(2, 4), 0.0, GridSpec(radii=(0.999,), angles=64))
        assert inner.observed >= outer.observed


class TestDeviationBound:
    def test_bound_holds(self, small_grid):
        cert = check_log_deriv_bound(MLParams(2, 2), small_grid)
        assert cert.quantity == QUANTITY_LOG_DERIV_BOUND
        assert cert.predicted == pytest.approx(5.0)
        assert cert.observed < 5.0
        assert cert.verdict == VERDICT_PASS

    def test_small_radius_region_is_tame(self):
        grid = GridSpec(radii=(0.01,), angles=32)
        cert = check_log_deriv_bound(MLParams(2, 2), grid)
        assert cert.observed <= 0.01

    def test_observed_max_matches_brute_force(self, small_grid):
        cert = check_log_deriv_bound(MLParams(2, 4), small_grid)
        oracle = brute_max_abs_dev(
            lambda z: e24_log_deriv(z) if abs(z) > 1e-12 else 1.0,
            small_grid.radii,
            10 * small_grid.angles,
        )
        assert cert.observed <= oracle + 1e-12
        assert oracle - cert.observed <= 5e-3

    def test_beta_at_golden_ratio_rejected(self, small_grid):
        with pytest.raises(DomainError):
            check_log_deriv_bound(MLParams(1, 1.6), small_grid)


class TestEmpiricalOrder:
    """The prediction-free grid minimum: the plain-loop oracle over the
    scalar path against the certificate's vectorized scan."""

    def test_constant_stub(self):
        assert brute_min_re(lambda z: 1.0, (0.5,), 8) == pytest.approx(1.0)

    def test_exponential_case(self, small_grid):
        params = MLParams(1, 1)
        value = brute_min_re(lambda z: log_deriv(params, z), small_grid.radii, small_grid.angles)
        assert value == pytest.approx(1.0 - small_grid.r_max, abs=1e-12)
        cert = certify_ml_starlike(params, 0.0, small_grid)
        assert cert.observed == pytest.approx(value, abs=1e-15)

    def test_more_radii_can_only_lower_the_minimum(self):
        params = MLParams(2, 4)
        one = certify_ml_starlike(params, 0.0, GridSpec(radii=(0.5,), angles=32))
        two = certify_ml_starlike(params, 0.0, GridSpec(radii=(0.5, 0.9), angles=32))
        assert two.observed <= one.observed
        assert one.observed == pytest.approx(
            brute_min_re(lambda z: log_deriv(params, z), (0.5,), 32), abs=1e-15
        )


class TestGridInvariants:
    def test_boundary_dominance(self, small_grid):
        # harmonic real parts take their disk minimum on the outer circle;
        # |zE'/E - 1| is subharmonic, so its maximum also lives there
        outer = GridSpec(radii=(small_grid.r_max,), angles=small_grid.angles)
        cases = [
            lambda g: certify_starlike(single(2, 4), g),
            lambda g: certify_convex((FactorSpec(MLParams(2, 2), 5.0),), g),
            lambda g: certify_ml_starlike(MLParams(2, 4), 0.0, g),
            lambda g: check_log_deriv_bound(MLParams(2, 3), g),
        ]
        for run in cases:
            full = run(small_grid)
            boundary = run(outer)
            assert abs(full.observed - boundary.observed) <= 2.0 * full.eval_tolerance

    def test_angle_refinement_stability(self):
        coarse = GridSpec(radii=(0.999,), angles=720)
        fine = GridSpec(radii=(0.999,), angles=1440)
        runs = [
            lambda g: certify_starlike(single(2, 4), g),
            lambda g: certify_convex((FactorSpec(MLParams(2, 2), 5.0),), g),
            lambda g: certify_ml_starlike(MLParams(2, 4), 0.0, g),
            lambda g: check_log_deriv_bound(MLParams(2, 3), g),
        ]
        for run in runs:
            assert abs(run(coarse).observed - run(fine).observed) < 1e-4

    def test_certificates_are_deterministic(self, small_grid):
        one = certify_starlike(single(2, 4), small_grid)
        two = certify_starlike(single(2, 4), small_grid)
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )


class TestSeriesTolerance:
    @pytest.mark.parametrize("run", [
        lambda tol: certify_starlike(single(2, 4), series_tol=tol),
        lambda tol: certify_convex(single(2, 4, lam=5.0).factors, series_tol=tol),
        lambda tol: certify_ml_starlike(MLParams(2, 4), 0.0, series_tol=tol),
        lambda tol: check_log_deriv_bound(MLParams(2, 4), series_tol=tol),
    ], ids=["starlike", "convex", "ml-starlike", "log-deriv-bound"])
    def test_series_tolerance_above_the_margin_is_refused(self, run):
        # the truncation error could otherwise exceed the margin the verdict allows
        with pytest.raises(DomainError, match="exceeds the margin tolerance"):
            run(0.05)


class TestFailurePolicy:
    def _inject(self, monkeypatch, bad_indices):
        original = mittag_leffler._log_deriv_deviation

        def patched(params, z, tol=1e-14):
            values, bad = original(params, z, tol)
            bad = bad.copy()
            flat = bad.reshape(-1)
            for idx in bad_indices:
                if idx < flat.size:
                    flat[idx] = True
            return values, bad

        monkeypatch.setattr(mittag_leffler, "_log_deriv_deviation", patched)
        monkeypatch.setattr(certify_module, "_log_deriv_deviation", patched)

    def test_isolated_failures_are_recorded_not_fatal(self, monkeypatch):
        self._inject(monkeypatch, [3])
        grid = GridSpec(radii=(0.999,), angles=2048)
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, grid)
        assert cert.failed_count == 1
        assert cert.verdict == VERDICT_PASS
        assert cert.failed_sample[0].reason

    def test_clustered_failures_fail_the_certificate(self, monkeypatch):
        self._inject(monkeypatch, list(range(10)))
        grid = GridSpec(radii=(0.999,), angles=2048)
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, grid)
        assert cert.failed_count == 10
        assert cert.verdict == VERDICT_FAIL

    @pytest.mark.parametrize("evaluator, run", [
        ("_table_deviation", lambda grid: certify_starlike(single(2, 4), grid)),
        ("_table_deviation", lambda grid: certify_convex(single(2, 4, lam=5.0).factors, grid)),
        ("_log_deriv_deviation", lambda grid: certify_ml_starlike(MLParams(2, 4), 0.0, grid)),
        ("_log_deriv_deviation", lambda grid: check_log_deriv_bound(MLParams(2, 4), grid)),
    ], ids=["starlike", "convex", "ml-starlike", "log-deriv-bound"])
    def test_truncation_fails_its_circle_for_every_kind(self, monkeypatch, evaluator, run):
        original = getattr(certify_module, evaluator)

        def truncated(subject, z, tol):
            if np.max(np.abs(z)) > 0.99:
                raise SeriesTruncationError("no cut on the outer circle")
            return original(subject, z, tol)

        monkeypatch.setattr(certify_module, evaluator, truncated)
        cert = run(GridSpec(radii=(0.5, 0.999), angles=64))
        assert cert.failed_count == 64
        assert cert.verdict == VERDICT_FAIL
        assert {(f.point.radius, f.reason) for f in cert.failed_sample} == {
            (0.999, "no cut on the outer circle")
        }
        assert math.isfinite(cert.observed)  # the inner circle still counts
