"""Tests of the benchmark itself: the reference against mpmath, the checks,
the span accounting, smoke mode, and refusal outside a checkout.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import grid_points  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
POINTS = [0.3 + 0.4j, -0.999, 0.999j, 1.0, -0.6 - 0.7j, 0.05j]
mpmath.mp.dps = 40


def _mp_ratio(alpha, beta, z, deriv=False):
    """sum (n+1)^deriv Gamma(beta)/Gamma(alpha n + beta) z^n at 40 digits."""
    z, total, n = mpmath.mpc(z), mpmath.mpc(0), 0
    while True:
        term = mpmath.gamma(beta) * mpmath.rgamma(alpha * n + beta) * z**n * (n + 1 if deriv else 1)
        total += term
        if n > 5 and abs(term) < mpmath.mpf(10) ** -30:
            return total
        n += 1


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 4), (1.5, 0.5), (4.7, 1.7), (3.3, 160), (2, 200)])
def test_series_matches_mpmath(alpha, beta):
    u, log_deriv = reference.ml_ratio_and_log_deriv(alpha, beta, POINTS)
    for z, u_i, ld_i in zip(POINTS, u, log_deriv):
        mp_u = _mp_ratio(alpha, beta, z)
        assert abs(u_i - complex(mp_u)) <= 1e-14 * abs(mp_u)
        mp_ld = _mp_ratio(alpha, beta, z, deriv=True) / mp_u
        # z f'/f = 1 + z at alpha = beta = 1 nearly vanishes at z = -0.999
        assert abs(ld_i - complex(mp_ld)) <= 1e-13 * max(1, abs(mp_ld))


@pytest.mark.parametrize("beta", [1, 2, 3, 4])
def test_closed_forms_match_mpmath(beta):
    z = np.array([p for p in POINTS if abs(p) >= 0.1])
    u, log_deriv = reference._closed_ratio_and_log_deriv(float(beta), z)
    for z_i, u_i, ld_i in zip(z, u, log_deriv):
        mp_u = _mp_ratio(2, beta, z_i)
        assert abs(u_i - complex(mp_u)) <= 1e-13 * abs(mp_u)
        mp_ld = _mp_ratio(2, beta, z_i, deriv=True) / mp_u
        assert abs(ld_i - complex(mp_ld)) <= 1e-12 * max(1, abs(mp_ld))


OPERATORS = [
    (0.37, [{"alpha": 2.0, "beta": 4.0, "lambda": 8.0}, {"alpha": 1.5, "beta": 5.0, "lambda": 10.0},
            {"alpha": 3.0, "beta": 6.0, "lambda": 12.0}]),
    (2.5, [{"alpha": 2.0, "beta": 4.0, "lambda": 1.0}, {"alpha": 1.0, "beta": 5.0, "lambda": 2.0}]),
    (1.0, [{"alpha": 1.0, "beta": 1.0, "lambda": 2.0}]),
]


@pytest.mark.parametrize("zeta,factors", OPERATORS)
def test_star_log_deriv_matches_mpmath_quadrature(zeta, factors):
    """Every factor stays near 1 on the disk, so mpmath's principal powers
    are the branch continued from the origin."""
    mpmath.mp.dps = 20
    try:
        def product(t):
            out = mpmath.mpc(1)
            for f in factors:
                out *= _mp_ratio(f["alpha"], f["beta"], t) ** (mpmath.mpf(1) / f["lambda"])
            return out

        z = np.array([0.999 * np.exp(2.1j), 0.6 - 0.3j])
        got = reference.star_log_deriv(factors, zeta, z)
        for z_i, got_i in zip(z, got):
            g = mpmath.quad(lambda w: product(z_i * w ** (mpmath.mpf(1) / zeta)), [0, 0.5, 1])
            expected = complex(product(z_i) / g)
            assert abs(got_i - expected) <= 1e-12 * abs(expected)
    finally:
        mpmath.mp.dps = 40


def test_operator_value_of_exponential_factor():
    # F(z) = Integral_0^z e^t dt = e^z - 1
    z = np.array([0.5 + 0.5j, -0.9, 0.2j])
    got = reference.operator_value([{"alpha": 1.0, "beta": 1.0, "lambda": 1.0}], 1.0, z)
    assert np.max(np.abs(got - np.expm1(z))) <= 1e-14


def test_orders():
    delta, ok = reference.predicted_order(
        {"kind": "starlike", "zeta": 1.0, "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]})
    assert delta == pytest.approx(0.5) and ok
    assert reference.psi(reference.eta_limit(20.0)) == pytest.approx(20.0)
    delta, ok = reference.predicted_order(
        {"kind": "convex", "factors": [{"alpha": 2, "beta": 2, "lambda": 5}]})
    assert delta == pytest.approx(0.0, abs=1e-12) and ok


def _true_certificate(op, angles):
    z = grid_points(angles)
    values = reference.certified_values(op, z)
    k = int(np.argmax(values) if op["kind"] == "log-deriv-bound" else np.argmin(values))
    predicted, ok = reference.predicted_order(op)
    return {"verdict": "pass" if ok else "hypothesis-violated", "predicted": predicted,
            "observed": float(values[k]), "re": z[k].real, "im": z[k].imag,
            "radius": abs(z[k]), "hypothesis_ok": ok, "failed_count": 0,
            "total_points": z.size}


def test_certificate_checks_catch_a_wrong_minimum():
    op = {"name": "ml", "kind": "ml-starlike", "alpha": 2.0, "beta": 6.0, "eta": 0.2}
    cert = _true_certificate(op, 64)
    assert checks.certificate(op, cert, 64) == []
    assert checks.certificate(op, dict(cert, observed=cert["observed"] + 1e-7), 64)
    assert checks.certificate(op, dict(cert, radius=0.25), 64)
    assert checks.certificate(op, dict(cert, verdict="fail"), 64)
    control = dict(op, predicted=cert["observed"] + 1e-4)
    assert checks.certificate(control, dict(cert, predicted=control["predicted"]), 64)


def test_bound_checks_are_relative_for_tiny_values():
    # beta^-alpha is about 1e-11 here, below any absolute series tolerance
    op = {"name": "bound", "kind": "log-deriv-bound", "alpha": 5.0, "beta": 150.0}
    cert = _true_certificate(op, 64)
    assert cert["observed"] < 1e-10
    assert checks.certificate(op, cert, 64) == []
    assert checks.certificate(op, dict(cert, observed=0.0), 64)
    assert checks.certificate(op, dict(cert, observed=cert["observed"] * 1.01), 64)


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    inner = tracer.wrap("numerics", "numerics.leaf", leaf)

    def middle():
        inner()
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("operators", "operators.middle", middle)
    root = tracer.wrap("certify", "certify.root", lambda: [outer() for _ in range(2)])
    root()
    spans = {name: (start, end) for _, _, name, start, end in tracer.spans}
    total = sum(tracer.self_ns.values())
    assert total == spans["certify.root"][1] - spans["certify.root"][0]
    assert tracer.calls["numerics"] == 4 and tracer.calls["operators"] == 2
    assert tracer.self_ns["numerics"] >= 4 * 10_000_000
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    assert sorted(parents.values(), key=str) == [0, 0, 1, 1, 4, 4, None]


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_mode_checks_every_workload():
    done = _run(["--smoke"], ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}
    assert len(lines) == 2 * len(spec["workloads"]) + 1
    for i, result in enumerate(lines[:-1]):
        assert result["correct"]
        assert set(result["metrics"]) == names[i % 2]
    layers = lines[1]["metrics"]
    assert abs(layers["trace.unattributed_pct"]["value"]) < 2.0
    assert lines[-1]["correct"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
