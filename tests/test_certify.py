import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mlstar import (
    DomainError,
    EvalPoint,
    FactorSpec,
    MLParams,
    OperatorSpec,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
    log_deriv,
)
from mlstar import certify as certify_module
from mlstar import operators
from mlstar.certify import (
    QUANTITY_LOG_DERIV_BOUND,
    QUANTITY_STARLIKE_ML,
    VERDICT_FAIL,
    VERDICT_HYPOTHESIS,
    VERDICT_PASS,
)
from mlstar.defaults import GRID_POINTS_MAX, R_MAX, SERIES_TOL
from mlstar.jobs import (GridSpec, JobOperator, _claim, default_radii, load_job, parse_job,
                         run_job)

from cli_runner import invoke
from conftest import dump_circles

from oracles import (
    brute_max_abs_dev,
    brute_min_re,
    dense_extremum,
    e24_log_deriv,
    exp_star_quantity,
)


CORPUS_PATH = Path(__file__).resolve().parent.parent / "jobs" / "corpus.json"


def single(alpha, beta, lam=1.0, zeta=1.0, eta=0.0):
    return OperatorSpec((FactorSpec(MLParams(alpha, beta), lam, eta),), zeta)


OPERATORS = {  # one job operator of each kind
    "starlike": {"name": "starlike", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]},
    "convex": {"name": "convex", "kind": "convex",
               "factors": [{"alpha": 2, "beta": 4, "lambda": 5}]},
    "ml-starlike": {"name": "ml-starlike", "kind": "ml-starlike",
                    "alpha": 1.2, "beta": 1.7, "eta": 0.0},
    "log-deriv-bound": {"name": "log-deriv-bound", "kind": "log-deriv-bound",
                        "alpha": 1.2, "beta": 1.7},
}


# one certificate of each kind, called with keyword arguments; OPERATORS' keys name them
RUNS = [
    lambda **kw: certify_starlike(single(2, 4), **kw),
    lambda **kw: certify_convex(single(2, 4, lam=5.0).factors, **kw),
    lambda **kw: certify_ml_starlike(MLParams(2, 4), 0.0, **kw),
    lambda **kw: check_log_deriv_bound(MLParams(2, 4), **kw),
]


def job_certificates(grid: dict, operators=tuple(OPERATORS.values())) -> list:
    """run_job's certificates of the operators on a job grid, as their dicts."""
    job = parse_job({"schema": 1, "grid": grid, "operators": list(operators)})
    return [cert.to_dict() for cert in run_job(job).certificates]


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

    def test_radii_alone_set_r_max(self):
        grid = GridSpec(radii=(0.25, 0.5))
        assert grid.r_max == 0.5 and grid.to_dict()["r_max"] == 0.5

    def test_r_max_that_disagrees_with_radii_is_refused(self):
        assert GridSpec(radii=(0.25, 0.5), r_max=0.5).r_max == 0.5
        for r_max in (0.999, 0.4):
            with pytest.raises(DomainError, match="is not the outermost radius 0.5"):
                GridSpec(radii=(0.25, 0.5), r_max=r_max)

    def test_r_max_alone_builds_the_default_radii(self):
        assert GridSpec(r_max=0.95).radii == (0.25, 0.5, 0.75, 0.9, 0.95)
        assert GridSpec(r_max=0.1).radii == (0.1,)

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 0.5), angles=16)
        with pytest.raises(DomainError):
            GridSpec(radii=(0.5, 1.2))
        with pytest.raises(DomainError):
            GridSpec(angles=4)
        with pytest.raises(DomainError):
            GridSpec(r_max=1.0000000000000002)
        for r_max in ("0.9", True, np.bool_(True), 0.5j):
            with pytest.raises(DomainError, match="r_max must be a number"):
                GridSpec(r_max=r_max)
        for radius in ("0.5", False, np.bool_(True), None, 0.5j):
            with pytest.raises(DomainError, match="a radius must be a number"):
                GridSpec(radii=(0.25, radius))
        for r_max in (10**400, -10**400):  # past the double range
            with pytest.raises(DomainError, match="r_max must lie in"):
                GridSpec(r_max=r_max)
        for r in (0.5, np.float64(0.5), np.float32(0.5)):
            assert GridSpec(radii=(0.25, r)).radii == (0.25, 0.5)
            assert GridSpec(r_max=r).radii == (0.25, 0.5)
        assert GridSpec(radii=(np.float64(0.5),)).to_dict() == {
            "radii": [0.5], "r_max": 0.5, "angles": 720}
        with pytest.raises(DomainError, match="a radius must lie in"):
            GridSpec(radii=(0, 0.5))  # an int is a number, but 0 is not inside the disk
        for angles in (720.0, 9.5, True, np.bool_(True), "720"):
            with pytest.raises(DomainError, match="angles must be an integer"):
                GridSpec(angles=angles)
        grid = GridSpec(angles=np.int64(720))
        assert type(grid.angles) is int and json.dumps(grid.to_dict())
        # no angle cap of its own: one radius may take all GRID_POINTS_MAX points
        assert GridSpec(radii=(0.5,), angles=GRID_POINTS_MAX).total_points() == GRID_POINTS_MAX
        with pytest.raises(DomainError, match=f"a grid holds at most {GRID_POINTS_MAX} points"):
            GridSpec(radii=(0.5,), angles=GRID_POINTS_MAX + 1)
        with pytest.raises(DomainError, match="angles must be at least 8, got 7"):
            GridSpec(angles=np.int64(7))
        grid = GridSpec(radii=(np.float64(0.25), np.float64(0.5)), r_max=np.float64(0.5))
        assert [type(r) for r in grid.radii] == [float, float] and type(grid.r_max) is float


class TestStarlikeCertificates:
    def test_identity_product_stub(self, identity_product, small_grid):
        cert = certify_starlike(single(2, 4), small_grid.r_max)
        assert cert.observed == pytest.approx(1.0, abs=1e-12)
        # a constant quantity meets the n^2 test at theta = 0, which is tried first
        assert cert.argmin.radius == small_grid.r_max
        assert cert.argmin.angle == 0.0
        assert cert.semantics == "endpoint-min certificate on |z| = r_max"
        assert cert.verdict == VERDICT_PASS

    def test_corpus_case_passes(self, small_grid):
        cert = certify_starlike(single(2, 4), small_grid.r_max)
        assert cert.predicted == 0.5
        assert cert.verdict == VERDICT_PASS
        assert cert.margin >= 1e-6
        assert cert.reason is None

    def test_exponential_case_against_brute_force(self, small_grid):
        cert = certify_starlike(single(1, 1), small_grid.r_max)
        oracle = brute_min_re(
            exp_star_quantity, small_grid.radii, 10 * small_grid.angles
        )
        # the finer oracle grid can only go lower, and not by much
        assert cert.observed >= oracle - 1e-12
        assert cert.observed - oracle <= 5e-3

    def test_prediction_override(self, small_grid):
        cert = certify_starlike(single(2, 4), small_grid.r_max, predicted=2.0)
        assert cert.verdict == VERDICT_FAIL
        assert cert.margin < 0.0

    def test_two_factors_with_order_targets(self):
        factors = (
            FactorSpec(MLParams(1.5, 6.0), 2.0, eta=0.25),
            FactorSpec(MLParams(2.0, 4.0), 4.0, eta=0.0),
        )
        spec = OperatorSpec(factors, 2.0)
        cert = certify_starlike(spec, 0.999)
        assert cert.hypothesis_ok  # 0.25/2 + 1/4 = 0.625 <= zeta
        assert cert.verdict == VERDICT_PASS
        assert cert.margin >= 1e-6

    def test_weight_sum_above_zeta_flags_hypothesis(self):
        spec = single(2, 4, lam=1.0, zeta=0.5)  # 1/lambda = 1 > zeta
        cert = certify_starlike(spec, 0.999)
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
        cert = certify_starlike(spec, 0.999)
        assert cert.verdict == VERDICT_PASS
        assert cert.reason is None
        assert cert.margin >= 1e-6


class TestConvexCertificates:
    def test_threshold_cases_pass(self, small_grid):
        for beta, lam in ((2.0, 5.0), (4.0, 9.0 / 11.0)):
            cert = certify_convex((FactorSpec(MLParams(2, beta), lam),), small_grid.r_max)
            assert cert.predicted == pytest.approx(0.0, abs=1e-15)
            assert cert.verdict == VERDICT_PASS
            assert cert.margin >= 1e-6

    def test_huge_lambda_degenerates_to_identity(self, small_grid):
        cert = certify_convex((FactorSpec(MLParams(2, 2), 1e6),), small_grid.r_max)
        assert cert.observed == pytest.approx(1.0, abs=1e-3)

    def test_hypothesis_flag(self, small_grid):
        factors = (FactorSpec(MLParams(2, 4), 2.0), FactorSpec(MLParams(2, 3), 2.0))
        cert = certify_convex(factors, small_grid.r_max)
        assert cert.verdict == VERDICT_HYPOTHESIS
        assert not cert.hypothesis_ok


class TestMLCertificates:
    def test_high_beta_case(self, small_grid):
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, small_grid.r_max)
        assert cert.quantity == QUANTITY_STARLIKE_ML
        assert cert.verdict == VERDICT_PASS
        assert cert.hypothesis_ok

    def test_exponential_case_observed_minimum(self, small_grid):
        # z E'/E = 1 + z, minimized at z = -r_max
        cert = certify_ml_starlike(MLParams(1, 1), 0.0, small_grid.r_max)
        assert cert.observed == pytest.approx(1.0 - small_grid.r_max, abs=1e-12)
        assert cert.verdict == VERDICT_HYPOTHESIS  # beta = 1 < psi(0)

    def test_subset_monotonicity(self):
        inner = certify_ml_starlike(MLParams(2, 4), 0.0, 0.1)
        outer = certify_ml_starlike(MLParams(2, 4), 0.0, 0.999)
        assert inner.observed >= outer.observed


class TestDeviationBound:
    def test_bound_holds(self, small_grid):
        cert = check_log_deriv_bound(MLParams(2, 2), small_grid.r_max)
        assert cert.quantity == QUANTITY_LOG_DERIV_BOUND
        assert cert.predicted == pytest.approx(5.0)
        assert cert.observed < 5.0
        assert cert.verdict == VERDICT_PASS

    def test_small_radius_region_is_tame(self):
        cert = check_log_deriv_bound(MLParams(2, 2), 0.01)
        assert cert.observed <= 0.01

    def test_observed_max_matches_brute_force(self, small_grid):
        cert = check_log_deriv_bound(MLParams(2, 4), small_grid.r_max)
        oracle = brute_max_abs_dev(
            lambda z: e24_log_deriv(z) if abs(z) > 1e-12 else 1.0,
            small_grid.radii,
            10 * small_grid.angles,
        )
        assert cert.observed <= oracle + 1e-12
        assert oracle - cert.observed <= 5e-3

    def test_beta_at_golden_ratio_rejected(self, small_grid):
        with pytest.raises(DomainError):
            check_log_deriv_bound(MLParams(1, 1.6), small_grid.r_max)


class TestEmpiricalOrder:
    """The prediction-free grid minimum: the plain-loop oracle over the
    scalar path against the certificate's extremum."""

    def test_constant_stub(self):
        assert brute_min_re(lambda z: 1.0, (0.5,), 8) == pytest.approx(1.0)

    def test_exponential_case(self, small_grid):
        params = MLParams(1, 1)
        value = brute_min_re(lambda z: log_deriv(params, z), small_grid.radii, small_grid.angles)
        assert value == pytest.approx(1.0 - small_grid.r_max, abs=1e-12)
        cert = certify_ml_starlike(params, 0.0, small_grid.r_max)
        # z E'/E = 1 + z: the table sums it to 1e-15, the scalar ratio to 1e-14
        assert cert.observed == pytest.approx(1.0 - small_grid.r_max, abs=1e-15)
        assert cert.observed == pytest.approx(value, abs=1e-14)

    def test_more_radii_can_only_lower_the_minimum(self):
        # the minimum lies on r_max, so jobs that add inner radii give equal certificates
        op = {"name": "ml-2-4", "kind": "ml-starlike", "alpha": 2, "beta": 4, "eta": 0}
        [one] = job_certificates({"radii": [0.5], "angles": 32}, [op])
        [two] = job_certificates({"radii": [0.1, 0.25, 0.5], "angles": 32}, [op])
        assert two == one
        assert one["observed"] == pytest.approx(
            brute_min_re(lambda z: log_deriv(MLParams(2, 4), z), (0.5,), 32), abs=1e-15
        )


class TestGridInvariants:
    def test_boundary_dominance(self):
        # harmonic real parts take their disk minimum on the outer circle;
        # |zE'/E - 1| is subharmonic, so its maximum also lives there: a certificate
        # on an inner circle lies on the safe side of the one on r_max
        cases = [
            (lambda r: certify_starlike(single(2, 4), r), False),
            (lambda r: certify_convex((FactorSpec(MLParams(2, 2), 5.0),), r), False),
            (lambda r: certify_ml_starlike(MLParams(2, 4), 0.0, r), False),
            (lambda r: check_log_deriv_bound(MLParams(2, 3), r), True),
        ]
        for run, largest in cases:
            boundary = run(0.999).observed
            for r in (0.5, 0.9):
                inner = run(r).observed
                assert (inner <= boundary + 1e-12) if largest else (inner >= boundary - 1e-12)

    def test_angle_refinement_stability(self):
        # the angle count shapes dump alone: jobs at 720 and 1440 angles certify alike
        coarse = job_certificates({"radii": [0.999], "angles": 720})
        assert job_certificates({"radii": [0.999], "angles": 1440}) == coarse

    def test_certificates_are_deterministic(self, small_grid):
        one = certify_starlike(single(2, 4), small_grid.r_max)
        two = certify_starlike(single(2, 4), small_grid.r_max)
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )


class TestSeriesTolerance:
    @pytest.mark.parametrize("run", RUNS, ids=OPERATORS)
    def test_series_tolerance_above_the_margin_is_refused(self, run):
        # the truncation error could otherwise exceed the margin the verdict allows
        with pytest.raises(DomainError, match="exceeds the margin tolerance"):
            run(series_tol=0.05)


class TestRefusals:
    """Each numeric input of the certificate API is checked, since unchecked a NaN
    tolerance fails a good claim, an infinite one passes any margin, a NaN prediction
    gives a NaN margin, and a string prediction is read as a number."""

    @pytest.mark.parametrize("r_max", ["0.5", True, 0, 1.0000000000000002, math.nan, -0.5, math.inf, None,
                                       pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("run", RUNS, ids=OPERATORS)
    def test_r_max_outside_the_disk_or_not_a_number(self, run, r_max):
        with pytest.raises(DomainError, match="r_max must"):
            run(r_max=r_max)

    @pytest.mark.parametrize("tolerance, message", [
        (math.nan, "eval_tolerance must be finite"),
        (math.inf, "eval_tolerance must be finite"),
        ("1e-6", "eval_tolerance must be a number"),
        (True, "eval_tolerance must be a number"),
        (1e-15, "exceeds the margin tolerance"),
    ])
    @pytest.mark.parametrize("run", RUNS, ids=OPERATORS)
    def test_eval_tolerance_finite_and_past_the_series_tolerance(self, run, tolerance, message):
        with pytest.raises(DomainError, match=message):
            run(eval_tolerance=tolerance)

    @pytest.mark.parametrize("predicted, message", [
        (math.nan, "predicted must be finite"),
        (-math.inf, "predicted must be finite"),
        ("0.5", "predicted must be a number"),
        (False, "predicted must be a number"),
        pytest.param(-10**400, "predicted must be finite, got -inf", id="-10**400"),
    ])
    @pytest.mark.parametrize("run", [
        *RUNS, lambda predicted: JobOperator("x", "convex", single(2, 4, lam=5.0), predicted),
    ], ids=[*OPERATORS, "JobOperator"])
    def test_predicted_is_none_or_a_finite_number(self, run, predicted, message):
        with pytest.raises(DomainError, match=message):
            run(predicted=predicted)

    def test_numpy_numbers_are_accepted_as_floats(self):
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, np.float64(0.9),
                                   eval_tolerance=np.float64(1e-6), predicted=np.float32(0.25))
        assert (cert.argmin.radius, cert.eval_tolerance, cert.predicted) == (0.9, 1e-6, 0.25)
        assert {type(x) for x in (cert.argmin.radius, cert.eval_tolerance, cert.predicted)} \
            == {float}
        assert cert.verdict == VERDICT_PASS


class TestFailurePolicy:
    def test_zero_of_e_fails_every_point(self):
        # E_{1,0.2} vanishes at -0.2448: z E'/E has a pole there, so its table
        # has no cut on r_max, and the certificate sums nothing
        cert = certify_ml_starlike(MLParams(1, 0.2), 0.0, 0.999)
        assert cert.verdict == VERDICT_FAIL and not cert.hypothesis_ok
        assert math.isnan(cert.observed) and cert.to_dict()["observed"] is None
        assert (cert.argmin.radius, cert.argmin.angle) == (0.999, 0.0)
        assert cert.reason.startswith("series at |z| = 0.999 keeps a tail of ")
        assert "grid" not in cert.to_dict() and "failed_points" not in cert.to_dict()
        # a report entry counts the job's angles as failed, and gives the reason
        job = parse_job({"schema": 1, "grid": {"radii": [0.2, 0.5, 0.999], "angles": 64},
                         "operators": [{"name": "e-1-0.2", "kind": "ml-starlike",
                                        "alpha": 1, "beta": 0.2, "eta": 0}]})
        [entry] = run_job(job).to_dict()["certificates"]
        assert entry["failed_points"] == {"count": 64, "reason": cert.reason}

    @pytest.mark.parametrize("run", RUNS, ids=OPERATORS)
    def test_truncation_fails_its_circle_for_every_kind(self, monkeypatch, run):
        # the table's one circle is r_max; without a cut there, the certificate fails whole
        monkeypatch.setattr(operators, "_operator_cut", no_cut)
        cert = run(r_max=0.999)
        assert cert.verdict == VERDICT_FAIL
        assert cert.reason == "series at |z| = 0.999 keeps a tail of 1 after 192 terms"
        assert math.isnan(cert.observed)


def test_certificates_pass_or_fail_whole():
    # seeded stress draws over the four kinds at 64 angles: a certificate either sums
    # every point of r_max, all finite, or has no cut and sums none
    rng = np.random.default_rng(16)

    def params():
        return MLParams(rng.uniform(1, 5), math.exp(rng.uniform(math.log(1e-3), math.log(170))))

    def factors():
        return tuple(FactorSpec(params(), math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
                     for _ in range(rng.integers(1, 3)))

    claims = (
        lambda: _claim("starlike", OperatorSpec(factors(), math.exp(rng.uniform(-5, 5)))),
        lambda: _claim("convex", OperatorSpec(factors(), 1.0)),
        lambda: _claim("ml-starlike", OperatorSpec((FactorSpec(params(), 1.0),), 1.0)),
        lambda: _claim("log-deriv-bound", OperatorSpec((FactorSpec(params(), 1.0),), 1.0)),
    )
    counts = {"summed": 0, "unsummed": 0}
    for _ in range(400):
        try:
            claim = claims[rng.integers(4)]()
        except DomainError:  # convex and bound claims refuse beta below the golden ratio
            continue
        cert = certify_module._certify(claim, R_MAX, 1e-6, SERIES_TOL, None)
        counts["summed" if cert.reason is None else "unsummed"] += 1
        if cert.reason is None:
            circles = dump_circles(default_radii(), 64, claim.table(R_MAX, SERIES_TOL)[0])
            assert all(np.all(np.isfinite(c)) for c in circles) and math.isfinite(cert.observed)
        else:
            assert math.isnan(cert.observed) and cert.verdict == VERDICT_FAIL
            assert cert.reason.startswith("series at |z| = 0.999 keeps a tail of ")
    assert min(counts.values()) > 50, counts  # both outcomes are drawn


def no_cut(coeffs, radius, tol):
    """_operator_cut's answer for a table with no cut on the circle |z| = radius."""
    return 0, 1.0


def test_the_outermost_circle_alone_gives_each_corpus_certificate():
    # a certificate sums and scans r_max alone, so the inner radii cannot move it
    job = load_job(CORPUS_PATH)
    full = run_job(job).certificates
    outer = run_job(dataclasses.replace(job, grid=GridSpec(radii=(0.999,)))).certificates
    assert len(full) == len(outer) == 7
    for one, other in zip(full, outer):
        assert one.observed == other.observed
        assert one.argmin == other.argmin
        assert one.argmin.radius == 0.999 and one.reason is None


def rounding(terms):
    """How far a circle sum of the terms may lie from another order of the same sum."""
    return 8 * len(terms) * 2.0**-52 * (1.0 + sum(map(abs, terms)))


def assert_rows_on_the_safe_side(cert, grid, terms, largest):
    """Every row of r_max lies on the safe side of observed, up to rounding; where the
    argmin is a grid angle, the row there equals observed within 2 ulps."""
    [outer] = np.array(dump_circles((grid.r_max,), grid.angles, terms))
    values = np.abs(outer) if largest else 1.0 + outer.real
    beyond = values - cert.observed if largest else cert.observed - values
    assert np.max(beyond) <= rounding(certify_module._circle_terms(terms, grid.r_max))
    angles = grid.circle_angles()
    at = [k for k, theta in enumerate(angles) if theta == cert.argmin.angle]
    if cert.argmin.angle == math.pi and grid.angles % 2 == 0:
        at = [grid.angles // 2]  # 2 pi (M/2)/M may round off pi; the row sums at -1 all the same
    for k in at:
        assert abs(values[k] - cert.observed) <= 2 * math.ulp(cert.observed)
    return at


PUBLIC_CERTIFICATES = {  # kind -> the public function, called on a job operator's spec
    "starlike": certify_starlike,
    "convex": lambda spec, *args, **kw: certify_convex(spec.factors, *args, **kw),
    "ml-starlike": lambda spec, *args, **kw: certify_ml_starlike(
        spec.factors[0].params, spec.factors[0].eta, *args, **kw),
    "log-deriv-bound": lambda spec, *args, **kw: check_log_deriv_bound(
        spec.factors[0].params, *args, **kw),
}


@pytest.mark.parametrize("r_max", [R_MAX, 1.0])
@pytest.mark.parametrize("predict", [False, True], ids=["closed-form", "predicted"])
def test_each_public_function_certifies_as_a_job_operator_of_its_kind(r_max, predict):
    # one route from (kind, spec) to a claim: the public function of each corpus
    # operator's kind returns run_job's certificate, field for field; beside the corpus,
    # an eta above 0 and a rooted operator of two factors
    job = load_job(CORPUS_PATH)
    extra = (JobOperator("ml-eta", "ml-starlike",
                         OperatorSpec((FactorSpec(MLParams(2, 20), 1.0, 0.3),), 1.0)),
             JobOperator("star-two", "starlike", TestHalfCircleScan.PROBE))
    job = dataclasses.replace(job, grid=GridSpec(r_max=r_max, angles=job.grid.angles),
                              operators=job.operators + extra)
    if predict:  # 0.99 lies above every observed order, so each order certificate fails
        job = dataclasses.replace(job, operators=tuple(
            JobOperator(op.name, op.kind, op.spec, 0.99) for op in job.operators))
    certificates = run_job(job).certificates
    assert sorted({op.kind for op in job.operators}) == sorted(PUBLIC_CERTIFICATES)
    for op, expected in zip(job.operators, certificates):
        cert = PUBLIC_CERTIFICATES[op.kind](op.spec, r_max, eval_tolerance=job.margin_tol,
                                            series_tol=job.series_tol, predicted=op.predicted)
        assert cert == expected, op.name
        assert json.dumps(cert.to_dict()) == json.dumps(expected.to_dict()), op.name


def test_dump_row_on_r_max_lies_on_the_safe_side_of_each_corpus_certificate():
    # every corpus extremum lies at theta = 0 or pi, both grid angles at 720
    job = load_job(CORPUS_PATH)
    for op, cert in zip(job.operators, run_job(job).certificates):
        claim = _claim(op.kind, op.spec)
        terms, _, _ = claim.table(job.grid.r_max, job.series_tol)
        assert cert.semantics.startswith("endpoint-"), op.name
        assert assert_rows_on_the_safe_side(cert, job.grid, terms, claim.largest), op.name


def test_each_dump_circle_is_summed_alone_bit_for_bit():
    # no circle moves with the others: dump's rows of each radius are 1 + that circle's
    # own sum from the cut on r_max
    job = load_job(CORPUS_PATH)
    m = job.grid.angles
    for op in job.operators:
        terms, _, _ = _claim(op.kind, op.spec).table(job.grid.r_max, job.series_tol)
        result = invoke(["dump", "--job", str(CORPUS_PATH), "--operator", op.name])
        assert result.exit_code == 0, result.output
        rows = [row.split(",") for row in result.output.splitlines()[2:]]
        assert len(rows) == len(job.grid.radii) * m == 6 * 720
        for k, r in enumerate(job.grid.radii):
            [alone] = dump_circles((r,), m, terms)
            assert [complex(float(re), float(im)) for _, _, re, im in rows[k * m:(k + 1) * m]] \
                == [1.0 + v for v in alone], (op.name, r)


@pytest.mark.parametrize("kind", OPERATORS)
def test_inner_radii_leave_the_certificate_unchanged(kind):
    def certificate(radii):
        return job_certificates({"radii": [*radii, 0.97], "angles": 90}, [OPERATORS[kind]])

    rng = np.random.default_rng(15)
    expected = certificate(())
    for size in (1, 2, 5, 12):
        inner = np.sort(rng.uniform(0.01, 0.96, size))
        assert certificate(inner.tolist()) == expected


class TestHalfCircleScan:
    """The certificate's extremum against every point of dump's outer row: each
    lies on its safe side, up to rounding, and the row at a grid argmin equals it."""

    PROBE = OperatorSpec((FactorSpec(MLParams(1.5, 2.0), 2.0), FactorSpec(MLParams(2.0, 3.0), 3.0)),
                         0.37)
    DEFAULT = default_radii()
    CLAIMS = {  # (claim, radii); the cuts on r = 0.999 exceed 9 terms, so m = 8 and 9 fold
        "starlike": (lambda: _claim("starlike", TestHalfCircleScan.PROBE), DEFAULT),
        "convex": (lambda: _claim("convex", OperatorSpec(TestHalfCircleScan.PROBE.factors, 1.0)),
                   DEFAULT),
        "ml-starlike": (
            lambda: _claim("ml-starlike",
                           OperatorSpec((FactorSpec(MLParams(1.2, 1.7), 1.0),), 1.0)),
            DEFAULT),
        "log-deriv-bound": (
            lambda: _claim("log-deriv-bound",
                           OperatorSpec((FactorSpec(MLParams(1.2, 1.7), 1.0),), 1.0)),
            DEFAULT),
        # E_{1,0.2} vanishes at -0.2448: no cut on the outermost circle
        "ml-no-cut": (
            lambda: _claim("ml-starlike", OperatorSpec((FactorSpec(MLParams(1, 0.2), 1.0),), 1.0)),
            (0.2, 0.5, 0.999)),
    }

    @staticmethod
    def assert_scans_agree(claim, grid):
        """The certificate against dump's outer row on one claim; returns the claim's
        (terms, tail, reason) on r_max."""
        terms, tail, reason = claim.table(grid.r_max, SERIES_TOL)
        cert = certify_module._certify(claim, grid.r_max, 1e-6, SERIES_TOL, None)
        assert cert.argmin.radius == grid.r_max
        assert cert.argmin == EvalPoint.from_polar(grid.r_max, cert.argmin.angle)
        assert cert.reason == reason
        assert (reason is None) == (len(terms) > 0) == (not math.isnan(cert.observed))
        if reason is None:
            assert 0.0 <= cert.argmin.angle <= math.pi
            assert_rows_on_the_safe_side(cert, grid, terms, claim.largest)
        else:
            assert cert.argmin.angle == 0.0
            assert cert.semantics.startswith("unsummed-")
        return terms, tail, reason

    @pytest.mark.parametrize("m", [8, 9, 720, 4096])
    @pytest.mark.parametrize("kind", CLAIMS)
    def test_matches_a_full_grid_scan(self, kind, m):
        make, radii = self.CLAIMS[kind]
        terms, _, _ = self.assert_scans_agree(make(), GridSpec(radii=radii, angles=m))
        assert not terms if kind == "ml-no-cut" else len(terms) > 9

    @pytest.mark.parametrize("m", [8, 9, 720])
    @pytest.mark.parametrize("kind", ["starlike", "log-deriv-bound", "ml-no-cut"])
    def test_a_sum_past_1e300_fails_whole(self, kind, m):
        # c_1 = 1e301 leaves every circle sum finite, but a sum this close to the
        # double range could overflow on a few points alone; the table gets no cut
        make, radii = self.CLAIMS[kind]
        claim = make()

        def huge(subject, tol, length, solved=None):
            table = claim.coefficients(subject, tol, length, solved)
            table[1] = 1e301
            return table

        terms, tail, reason = self.assert_scans_agree(claim._replace(coefficients=huge),
                                                      GridSpec(radii=radii, angles=m))
        assert terms == [] and tail == math.inf
        assert reason == "series at |z| = 0.999 keeps a tail of inf after 192 terms"

    def test_every_point_failed(self, monkeypatch):
        monkeypatch.setattr(operators, "_operator_cut", no_cut)
        cert = certify_ml_starlike(MLParams(2, 4), 0.0, 0.999)
        assert math.isnan(cert.observed) and cert.reason is not None
        assert cert.verdict == VERDICT_FAIL and cert.argmin.angle == 0.0
        assert cert.argmin.radius == 0.999


def terms_on_r_max(claim, r=0.999):
    """The terms t_n = c_n r^n of the claim's cut on |z| = r."""
    terms, _, _ = claim.table(r, SERIES_TOL)
    return certify_module._circle_terms(terms, r)


def series_claims():
    """(label, claim): the corpus's, and seeded draws of the three series kinds."""
    job = load_job(CORPUS_PATH)
    claims = [(op.name, _claim(op.kind, op.spec)) for op in job.operators]
    rng = np.random.default_rng(20)
    for i in range(40):
        params = MLParams(rng.uniform(1.0, 5.0), math.exp(rng.uniform(math.log(1.7), math.log(160))))
        claims += [
            (f"convex-{i}",
             _claim("convex", OperatorSpec((FactorSpec(params, rng.uniform(1, 9)),), 1.0))),
            (f"ml-starlike-{i}",
             _claim("ml-starlike", OperatorSpec((FactorSpec(params, 1.0),), 1.0))),
            (f"log-deriv-bound-{i}",
             _claim("log-deriv-bound", OperatorSpec((FactorSpec(params, 1.0),), 1.0))),
        ]
    return claims


def assert_matches_the_dense_oracle(observed, terms, largest):
    """observed lies on the safe side of 20001 samples of [0, pi], up to rounding, and
    within 1e-13 of the refined best sample."""
    best, values = dense_extremum(terms, largest)
    beyond = values - observed if largest else observed - values
    assert np.max(beyond) <= rounding(terms)
    assert abs(observed - best) <= 1e-13


class TestExtremum:
    """The extremum on |z| = r_max: the n^2 test at the ends, a branch and bound elsewhere."""

    def test_exponential_anchor(self):
        # alpha = beta = 1: f = z e^z and z f'/f = 1 + z, least at z = -r_max
        cert = certify_ml_starlike(MLParams(1, 1), 0.0)
        assert cert.observed == pytest.approx(1.0 - 0.999, abs=2e-16)
        assert cert.argmin.angle == math.pi and cert.argmin.z.real == -0.999
        assert cert.semantics == "endpoint-min certificate on |z| = r_max"

    CLAIMS = series_claims()

    @pytest.mark.parametrize("claim", [claim for _, claim in CLAIMS],
                             ids=[label for label, _ in CLAIMS])
    def test_matches_a_dense_oracle(self, claim):
        terms = terms_on_r_max(claim)
        cert = certify_module._certify(claim, R_MAX, 1e-6, SERIES_TOL, None)
        assert_matches_the_dense_oracle(cert.observed, terms, claim.largest)
        rule = cert.semantics.partition("-")[0]
        if rule == "endpoint":
            assert cert.argmin.angle in (0.0, math.pi)
        else:
            assert rule == "bisected" and claim.largest

    def test_an_interior_maximum_is_bisected(self):
        # |z E'/E - 1| of (1.4, 2) is largest inside the half circle: the n^2 test fails
        claim = _claim("log-deriv-bound",
                       OperatorSpec((FactorSpec(MLParams(1.4, 2.0), 1.0),), 1.0))
        cert = check_log_deriv_bound(MLParams(1.4, 2.0))
        assert cert.semantics == "bisected-max certificate on |z| = r_max"
        assert 1.7 < cert.argmin.angle < 1.8
        assert_matches_the_dense_oracle(cert.observed, terms_on_r_max(claim), True)

    @pytest.mark.parametrize("terms, least, theta", [
        # S = 0.8 + 0.3 c + 0.4 c^2 with c = cos theta: t_1 = 0.3 passes the test
        # t_1 > sum |t_n| but not t_1 > sum n^2 |t_n|, and S is least at c = -3/8
        ([0.0, 0.3, 0.2], 0.74375, math.acos(-0.375)),
        ([0.0, 0.1, 0.2], 0.79375, math.acos(-0.125)),
    ])
    def test_a_quadratic_in_cos_theta(self, terms, least, theta):
        observed, argmin, rule = certify_module._extremum(terms, False)
        assert rule == "bisected"
        assert observed == pytest.approx(least, abs=1e-15)
        assert argmin == pytest.approx(theta, abs=1e-7)
        assert_matches_the_dense_oracle(observed, terms, False)

    def test_the_deepest_well_lies_between_samples(self):
        # S = 1 + 1e-3 cos theta + 0.01 cos 24 theta: the sample 28 pi/32 sits at the bottom
        # of a well, 1e-3 above the deepest, at 23 pi/24, whose samples lie higher; only
        # the arcs' curvature bound keeps the deepest well's arcs
        terms = [0.0, 1e-3] + [0.0] * 22 + [0.01]
        observed, argmin, rule = certify_module._extremum(terms, False)
        assert rule == "bisected" and argmin == pytest.approx(3.0107, abs=1e-4)
        assert_matches_the_dense_oracle(observed, terms, False)

    @pytest.mark.parametrize("largest", [False, True])
    def test_a_capped_branch_and_bound_reports_its_open_bound(self, monkeypatch, largest):
        terms = [0.0, 1e-3] + [0.0] * 22 + [0.01]
        monkeypatch.setattr(certify_module, "_EVALUATIONS_MAX", 40)
        observed, argmin, rule = certify_module._extremum(terms, largest)
        best, values = dense_extremum(terms, largest)
        assert rule == "bisected"
        # a proven bound, on the safe side of the extremum and short of closing
        assert (observed > best + 1e-6) if largest else (observed < best - 1e-6)
