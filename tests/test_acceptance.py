"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import json
import math
import time

import numpy as np
import pytest

from mlstar import (
    FactorSpec,
    MLParams,
    OperatorSpec,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
    ml_norm,
    ml_norm_deriv,
    phi,
    psi,
    star_log_deriv,
    starlike_delta,
)
from mlstar.certify import VERDICT_PASS
from mlstar.jobs import parse_job, run_job
from mlstar.mittag_leffler import _coefficients
from mlstar.numerics import series_solve

from cli_runner import invoke
from conftest import random_disk_points
from oracles import CLOSED, exp_star_quantity


def _report(number, label, detail):
    print(f"criterion {number} ({label}): PASS [{detail}]")


def test_criterion_1_oracle_equivalence(rng):
    started = time.perf_counter()
    points = random_disk_points(rng, 1000)
    worst = 0.0
    for kind, closed_form in CLOSED.items():
        params = MLParams(*kind)
        for z in points:
            z = complex(z)
            gap = abs(ml_norm(params, z).value - closed_form(z))
            worst = max(worst, gap)
            assert gap <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "oracle equivalence", f"max |gap| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_starlike_corpus_case():
    started = time.perf_counter()
    spec = OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)
    cert = certify_starlike(spec)
    elapsed = time.perf_counter() - started
    assert cert.predicted == 0.5
    assert cert.verdict == VERDICT_PASS
    assert cert.margin >= 1e-6
    assert elapsed < 60.0
    _report(2, "starlike corpus", f"observed = {cert.observed:.6f}, "
                                  f"margin = {cert.margin:.3e}, {elapsed:.2f}s")


def test_criterion_3_order_formula_and_root_property(rng):
    spec = OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)
    assert starlike_delta(spec).delta == 0.5

    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 5))
        zeta = rng.uniform(0.05, 5.0)
        etas = rng.uniform(0.0, 0.999, size=n)
        budget = rng.uniform(0.05, 1.0) * zeta
        shares = rng.uniform(0.1, 1.0, size=n)
        shares *= budget / shares.sum()
        lams = (1.0 - etas) / shares
        factors = tuple(
            FactorSpec(MLParams(1.0, 4.0), float(l), float(e))
            for l, e in zip(lams, etas)
        )
        report = starlike_delta(OperatorSpec(factors, zeta))
        b = 2.0 * report.hypothesis_sum - 2.0 * zeta + 1.0
        residual = abs(2.0 * zeta * report.delta**2 + b * report.delta - 1.0)
        worst = max(worst, residual)
        assert residual <= 1e-12
    _report(3, "order formula", f"delta(1,1,1,0) = 0.5 exactly, "
                                f"max root residual = {worst:.2e}")


def test_criterion_4_convex_corpus():
    started = time.perf_counter()
    cases = [(2.0, 5.0), (3.0, 7.0 / 5.0), (4.0, 9.0 / 11.0)]
    margins = []
    for beta, threshold in cases:
        for lam in (threshold, 2.0 * threshold):
            expected = 1.0 - threshold / lam
            cert = certify_convex((FactorSpec(MLParams(2, beta), lam),))
            assert cert.predicted == pytest.approx(expected, abs=1e-12)
            assert cert.verdict == VERDICT_PASS
            assert cert.margin >= 1e-6
            margins.append(cert.margin)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, "convex corpus", f"6 cases, min margin = {min(margins):.3e}, "
                                f"{elapsed:.2f}s")


def test_criterion_5_log_deriv_bound_sweep():
    started = time.perf_counter()
    slack = math.inf
    for alpha in (1.0, 1.5, 2.0, 3.0):
        for beta in (2.0, 3.0, 4.0, 10.0):
            cert = check_log_deriv_bound(MLParams(alpha, beta))
            assert cert.verdict == VERDICT_PASS
            assert cert.observed < phi(beta)  # strictly below the bound
            slack = min(slack, phi(beta) - cert.observed)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "log-deriv bound", f"16 cases, min slack = {slack:.3e}, {elapsed:.2f}s")


def test_criterion_6_ml_starlike_sweep():
    worst = math.inf
    for eta in (0.0, 0.25, 0.5):
        beta = psi(eta) + 0.01
        for alpha in (1.0, 1.5, 2.0, 5.0):
            cert = certify_ml_starlike(MLParams(alpha, beta), eta)
            assert cert.verdict == VERDICT_PASS
            assert cert.observed >= eta - 1e-6
            worst = min(worst, cert.observed - eta)
    _report(6, "ml starlike sweep", f"12 cases, min empirical excess = {worst:.3e}")


def test_criterion_7_negative_control(tmp_path):
    spec = OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)
    observed_star = certify_starlike(spec, 0.999).observed
    observed_convex = certify_convex((FactorSpec(MLParams(2, 2), 5.0),), 0.999).observed
    control = {
        "schema": 1,
        "grid": {"radii": [0.9, 0.999], "angles": 180},
        "operators": [
            {"name": "starlike-inflated", "kind": "starlike", "zeta": 1.0,
             "factors": [{"alpha": 2, "beta": 4, "lambda": 1}],
             "predicted": observed_star + 0.2},
            {"name": "convex-inflated", "kind": "convex",
             "factors": [{"alpha": 2, "beta": 2, "lambda": 5}],
             "predicted": observed_convex + 0.2},
        ],
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(control))
    result = invoke(["certify", str(path)])
    assert result.exit_code == 1
    assert "fail" in result.output
    _report(7, "negative control", "inflated predictions fail with exit code 1")


def test_criterion_8_property_suites(rng):
    # phi strictly decreasing on its domain
    xs = np.sort(rng.uniform(1.7, 100.0, size=(500, 2)), axis=1)
    for lo, hi in xs:
        if lo < hi:
            assert phi(lo) > phi(hi)

    # psi strictly increasing on [0, 1)
    es = np.sort(rng.uniform(0.0, 0.999, size=(500, 2)), axis=1)
    for lo, hi in es:
        if lo < hi:
            assert psi(lo) < psi(hi)

    # centered differences of the normalized value converge at order >= 1.9
    # (measured where the h^2 term is resolvable above the roundoff floor)
    orders = []
    for _ in range(60):
        params = MLParams(rng.uniform(1.0, 1.3), rng.uniform(0.2, 0.35))
        z = complex(random_disk_points(rng, 1, r_max=0.92, r_min=0.8)[0])
        exact = ml_norm_deriv(params, z, tol=1e-16).value

        def centered(h):
            return (
                ml_norm(params, z + h, tol=1e-16).value
                - ml_norm(params, z - h, tol=1e-16).value
            ) / (2 * h)

        err4 = abs(centered(1e-4) - exact)
        err5 = abs(centered(1e-5) - exact)
        if err5 >= 3e-10:
            orders.append(math.log10(err4 / err5))
    assert len(orders) >= 5
    assert min(orders) >= 1.9

    # boundary dominance, and a job's radii and angles leave its certificates alone
    spec = OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)
    assert certify_starlike(spec, 0.5).observed >= certify_starlike(spec, 0.999).observed
    star = {"name": "star-24", "kind": "starlike", "zeta": 1.0,
            "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}
    certificates = [
        run_job(parse_job({"schema": 1, "grid": grid, "operators": [star]})).certificates
        for grid in ({"radii": [0.5, 0.999], "angles": 360}, {"radii": [0.999], "angles": 720})
    ]
    assert certificates[0] == certificates[1]

    # log-derivative additivity on coefficient tables: t (AB)'/(AB) = t A'/A + t B'/B
    def log_derivative(table):
        return np.array(series_solve(table, np.arange(len(table)) * np.asarray(table), 60))

    one, two = _coefficients(2.0, 3.0, 1e-14), _coefficients(1.5, 2.5, 1e-14)
    lhs = log_derivative(np.convolve(one, two)[:60])
    assert np.max(np.abs(lhs - log_derivative(one) - log_derivative(two))) <= 1e-14

    # oracle agreement: one (1, 1) factor gives F = e^z - 1
    spec = OperatorSpec((FactorSpec(MLParams(1, 1), 1.0),), 1.0)
    for z in random_disk_points(rng, 50, r_min=0.1):
        z = complex(z)
        assert abs(star_log_deriv(spec, z) - exp_star_quantity(z)) <= 1e-12

    _report(8, "property suites", "phi/psi monotone, FD order >= 1.9, "
                                  "boundary+refinement, log-derivative additivity, "
                                  "oracle agreement")
