import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlstar import (
    GOLDEN_RATIO,
    FactorSpec,
    MLParams,
    OperatorSpec,
    SeriesTruncationError,
    certify_convex,
    certify_starlike,
)
from mlstar import certify as certify_module
from mlstar import cli as cli_module
from mlstar.cli import main
from mlstar.defaults import GRID_POINTS_MAX
from mlstar.errors import DomainError, JobFileError
from mlstar.jobs import GridSpec, _claim, job_to_dict, load_job, parse_job

from cli_runner import invoke
from conftest import dump_circles


CORPUS_PATH = str(Path(__file__).resolve().parent.parent / "jobs" / "corpus.json")
CORPUS_NAMES = [op.name for op in load_job(CORPUS_PATH).operators]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def star24_spec():
    return OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)


def write_job(tmp_path, document, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document, indent=2))
    return str(path)


CORPUS = {
    "schema": 1,
    "grid": {"radii": [0.9, 0.999], "angles": 90},
    "operators": [
        {"name": "star-24", "kind": "starlike", "zeta": 1.0,
         "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]},
        {"name": "convex-i", "kind": "convex",
         "factors": [{"alpha": 2, "beta": 2, "lambda": 5}]},
        {"name": "ml-24", "kind": "ml-starlike", "alpha": 2, "beta": 4, "eta": 0},
        {"name": "bound-22", "kind": "log-deriv-bound", "alpha": 2, "beta": 2},
    ],
}


class TestEval:
    def test_normalized_value(self):
        result = invoke(["eval", "--alpha", "2", "--beta", "3", "--z", "0.49"])
        assert result.exit_code == 0
        assert "0.5103380112618857" in result.output

    def test_zero_maps_to_zero(self):
        result = invoke(["eval", "--alpha", "2", "--beta", "3", "--z", "0"])
        assert result.exit_code == 0
        assert result.output.split()[1] == "0.0"

    def test_raw_series(self):
        result = invoke(["eval", "--raw", "--alpha", "1", "--beta", "1", "--z", "0.5"])
        assert result.exit_code == 0
        assert "1.6487212707" in result.output

    def test_complex_point_and_log_deriv(self):
        result = invoke(["eval", "--deriv", "--alpha", "1", "--beta", "1", "--z", "0.3+0.4j"])
        assert result.exit_code == 0
        _, value, _, tail = result.output.split()  # z E'/E = 1 + z
        assert abs(complex(value) - (1.3 + 0.4j)) <= float(tail.removeprefix("tail="))

    def test_point_outside_disk_is_usage_error(self):
        # abs() of the second z raises OverflowError; its modulus is taken without it
        for z in ("2.0", "1.5e308+1.5e308j"):
            result = invoke(["eval", "--alpha", "1", "--beta", "1", "--z", z])
            assert result.exit_code == 2, result.output
            assert "mlstar eval: error: |z| must be <= 1" in result.output

    def test_non_finite_input_is_usage_error(self):
        for args in (["--z", "nan"], ["--z", "inf+0.1j"], ["--z", "0.5", "--beta", "inf"]):
            argv = ["eval", "--alpha", "2", "--beta", "3", *args]
            assert invoke(argv).exit_code == 2, args
        result = invoke(["--tol", "nan", "eval", "--alpha", "2", "--beta", "3", "--z", "0.5"])
        assert result.exit_code == 2

    def test_alpha_past_the_lgamma_range(self):
        # Gamma(1)/Gamma(1 + 1e308) is 0, where lgamma(1 + 1e308) overflows
        result = invoke(["eval", "--alpha", "1e308", "--beta", "1", "--z", "0.5"])
        assert result.exit_code == 0, result.output
        assert result.output == "0.5  0.5  terms=1 tail=0.000e+00\n"

    def test_beta_past_gamma_overflow(self):
        result = invoke(["eval", "--alpha", "2", "--beta", "200", "--z", "0.5"])
        assert result.exit_code == 0, result.output
        # 0.5 * (1 + 0.5/(200*201) + ...)
        assert "0.500006218981" in result.output

    def test_operator_value(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["eval", "--job", path, "--operator", "star-24", "--z", "0.25"])
        assert result.exit_code == 0
        assert "0.25156" in result.output  # z + z^2/40 + z^3/2520 + ...

    def test_operator_values_at_the_origin(self):
        # F(0) = 0 is summed; the convex kind's z^zeta has no principal power at 0
        star = invoke(["eval", "--job", CORPUS_PATH, "--operator", "star-24", "--z", "0"])
        assert (star.exit_code, star.output) == (0, "0  0.0  terms=1 tail=0.000e+00\n")
        convex = invoke(["eval", "--job", CORPUS_PATH, "--operator", "convex-22-threshold",
                         "--z", "0"])
        assert convex.exit_code == 3 and "no logarithm" in convex.output

    @pytest.mark.parametrize("flags, row", [
        (["--tol", "0.5"], "0.9  0.9  terms=1 tail=2.276e-02"),  # F(z) = z: a 2% tail
        ([], "0.9  0.9205420156051405  terms=7 tail=1.227e-15"),
    ], ids=["tol-0.5", "default-tol"])
    def test_operator_rows_state_their_truncation(self, flags, row):
        # the tail bounds log(F/z), i.e. the relative error of F
        result = invoke([*flags, "eval", "--job", CORPUS_PATH, "--operator", "star-24",
                         "--z", "0.9"])
        assert result.exit_code == 0, result.output
        assert result.output == row + "\n"

    @pytest.mark.parametrize("flags, z, row", [
        (["--tol", "0.5"], "0.1", "0.1  1.0  terms=1 tail=3.333e-01"),  # z E'/E = 1 + z, cut to 1
        (["--tol", "0.5"], "-0.9", "-0.9  -0.18513689700130365  terms=4 tail=2.150e+00"),
        ([], "-0.9", "-0.9  0.1000000000000193  terms=17 tail=4.178e-14"),  # true error 1.93e-14
    ], ids=["tol-0.5-one-term", "tol-0.5", "default-tol"])
    def test_deriv_rows_state_their_truncation(self, flags, z, row):
        # the tail bounds the error of the ratio w/u, t (1 + |w/u|)/(|u| - t),
        # from the tail t of the terms each of its sums drops
        result = invoke([*flags, "eval", "--deriv", "--alpha", "1", "--beta", "1", "--z", z])
        assert result.exit_code == 0, result.output
        assert result.output == row + "\n"

    def test_operator_evaluation_error_exits_3(self, tmp_path):
        job = {
            "schema": 1,
            "operators": [
                {"name": "wild", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 1, "beta": 1, "lambda": 1e-7}]},
            ],
        }
        path = write_job(tmp_path, job)
        result = invoke(["eval", "--job", path, "--operator", "wild", "--z", "0.9"])
        assert result.exit_code == 3
        assert "error" in result.output

    @pytest.mark.parametrize("argv, message", [
        (["--raw", "--deriv", "--alpha", "1", "--beta", "1"],
         "mlstar eval: error: argument --deriv: not allowed with argument --raw"),
        (["--operator", "star-24", "--alpha", "2", "--deriv"],
         "mlstar eval: error: --alpha does not apply to operator evaluation"),
        (["--operator", "star-24", "--alpha", "0"], "error: --alpha does not apply"),
        (["--operator", "star-24", "--beta", "3"], "error: --beta does not apply"),
        (["--operator", "star-24", "--raw"], "error: --raw does not apply"),
        (["--operator", "star-24", "--deriv"], "error: --deriv does not apply"),
    ], ids=["raw-and-deriv", "operator-alpha-deriv", "operator-alpha-0", "operator-beta",
            "operator-raw", "operator-deriv"])
    def test_a_flag_that_would_be_ignored_is_usage_error(self, argv, message):
        if "--operator" in argv:
            argv = ["--job", CORPUS_PATH, *argv]
        result = invoke(["eval", *argv, "--z", "0.5"])
        assert result.exit_code == 2 and message in result.output, result.output


class TestOrders:
    def test_corpus_orders(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["orders", path])
        assert result.exit_code == 0
        assert "star-24" in result.output
        assert "delta=0.5" in result.output
        assert "convex-i" in result.output and "delta=0 " in result.output

    def test_huge_zeta_gives_a_finite_delta(self, tmp_path):
        job = {"schema": 1, "operators": [
            {"name": "huge", "kind": "starlike", "zeta": 1e300,
             "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}]}
        result = invoke(["--format", "json", "orders", write_job(tmp_path, job)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)[0]["delta"] == pytest.approx(1.0, rel=1e-15)

    def test_infeasible_spec_warns_but_exits_zero(self, tmp_path):
        job = {
            "schema": 1,
            "operators": [
                {"name": "weak", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 2, "beta": 2, "lambda": 1}]},
            ],
        }
        path = write_job(tmp_path, job)
        result = invoke(["orders", path])
        assert result.exit_code == 0
        assert "HYPOTHESIS-VIOLATED" in result.output


class TestCertify:
    def test_corpus_passes(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["certify", path])
        assert result.exit_code == 0, result.output
        assert "summary: pass" in result.output

    def test_json_report_schema(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["--format", "json", "certify", path])
        assert result.exit_code == 0
        # strict JSON: reject NaN/Infinity literals outright
        doc = json.loads(
            result.output,
            parse_constant=lambda s: pytest.fail(f"non-strict JSON constant {s}"),
        )
        assert doc["schema"] == 1
        assert doc["tool"]["name"] == "mlstar"
        assert doc["summary"]["verdict"] == "pass"
        assert len(doc["certificates"]) == 4
        extremum = {"log-deriv-bound": "max"}
        for cert in doc["certificates"]:  # the n^2 test places every corpus extremum
            assert cert["semantics"] == (f"endpoint-{extremum.get(cert['quantity'], 'min')} "
                                         "certificate on |z| = r_max")

    @pytest.mark.parametrize("flags", [[], ["--grid-angles", "9"], ["--r-max", "0.9"]])
    def test_each_entry_echoes_the_job_grid(self, flags):
        # every entry carries the job's grid, its argmin lies on r_max, and a summed
        # table counts no failed point
        result = invoke([*flags, "--format", "json", "certify", CORPUS_PATH])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        grid = doc["job"]["grid"]
        assert len(doc["certificates"]) == 7
        for entry in doc["certificates"]:
            assert entry["grid"] == grid
            assert entry["argmin"]["radius"] == grid["r_max"]
            assert entry["failed_points"] == {"count": 0, "reason": None}

    def test_reports_stable_across_runs(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        docs = []
        for _ in range(2):
            result = invoke(["--format", "json", "certify", path])
            doc = json.loads(result.output)
            doc.pop("timings")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_negative_control_fails(self, tmp_path):
        # inflate predictions 0.2 above the corpus's own observed values
        observed_star = certify_starlike(star24_spec(), 0.999).observed
        observed_convex = certify_convex((FactorSpec(MLParams(2, 2), 5.0),), 0.999).observed
        control = {
            "schema": 1,
            "grid": {"radii": [0.9, 0.999], "angles": 90},
            "operators": [
                {"name": "star-24-inflated", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 2, "beta": 4, "lambda": 1}],
                 "predicted": observed_star + 0.2},
                {"name": "convex-i-inflated", "kind": "convex",
                 "factors": [{"alpha": 2, "beta": 2, "lambda": 5}],
                 "predicted": observed_convex + 0.2},
            ],
        }
        path = write_job(tmp_path, control)
        result = invoke(["certify", path])
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_series_tolerance_above_the_margin_is_refused(self, tmp_path):
        # a loose --tol cuts the series so short that false claims pass: at 0.05
        # star-24 keeps one term and observes exactly 1, at 0.5 all three pass
        job = {"schema": 1, "operators": [
            {"name": "bound-control", "kind": "log-deriv-bound", "alpha": 1, "beta": 10,
             "predicted": 0.01},
            {"name": "ml-control", "kind": "ml-starlike", "alpha": 2, "beta": 4, "eta": 0,
             "predicted": 0.99},
            {"name": "star-control", "kind": "starlike", "zeta": 1.0,
             "factors": [{"alpha": 2, "beta": 4, "lambda": 1}], "predicted": 0.99},
        ]}
        path = write_job(tmp_path, job)
        assert invoke(["--grid-angles", "90", "certify", path]).exit_code == 1
        for tol in ("0.05", "0.5"):
            result = invoke(["--tol", tol, "--grid-angles", "90", "certify", path])
            assert result.exit_code == 2, result.output
            assert "exceeds the margin tolerance" in result.output
        # eval prints tail bounds, so it keeps any positive --tol
        result = invoke(["--tol", "0.5", "eval", "--job", path,
                         "--operator", "star-control", "--z", "0.25"])
        assert result.exit_code == 0, result.output

    def test_job_series_tolerance_above_the_margin_is_rejected(self):
        with pytest.raises(JobFileError, match="0.05 exceeds the margin tolerance"):
            parse_job(dict(CORPUS, tolerance={"margin": 1e-6, "series": 0.05}))
        job = parse_job(dict(CORPUS, tolerance={"margin": 1e-6, "series": 1e-6}))
        assert job.series_tol == job.margin_tol

    def test_empty_job_is_usage_error(self, tmp_path):
        path = write_job(tmp_path, {"schema": 1, "operators": []})
        result = invoke(["certify", path])
        assert result.exit_code == 2

    def test_strict_promotes_hypothesis_violations(self, tmp_path):
        job = {
            "schema": 1,
            "grid": {"radii": [0.9], "angles": 16},
            "operators": [
                {"name": "weak", "kind": "ml-starlike", "alpha": 1, "beta": 1, "eta": 0},
            ],
        }
        path = write_job(tmp_path, job)
        relaxed = invoke(["certify", path])
        assert relaxed.exit_code == 0
        assert "warning" in relaxed.output or "hypothesis" in relaxed.output
        strict = invoke(["--strict", "certify", path])
        assert strict.exit_code == 1

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(CORPUS)
        bad["surprise"] = True
        path = write_job(tmp_path, bad)
        result = invoke(["certify", path])
        assert result.exit_code == 2

    def test_beta_past_gamma_overflow(self, tmp_path):
        job = {
            "schema": 1,
            "grid": {"radii": [0.9, 0.999], "angles": 90},
            "operators": [
                {"name": "ml-2-200", "kind": "ml-starlike", "alpha": 2, "beta": 200, "eta": 0},
                {"name": "bound-192", "kind": "log-deriv-bound", "alpha": 1.92, "beta": 167.93},
            ],
        }
        path = write_job(tmp_path, job)
        result = invoke(["--format", "json", "certify", path])
        assert result.exit_code == 0, result.output
        ml, bound = json.loads(result.output)["certificates"]
        # mpmath at 40 digits: 1 + z E'/E - 1 at z = -0.999, |z E'/E - 1| at z = 0.999
        assert ml["observed"] == pytest.approx(0.99997514984700025, rel=1e-14)
        assert bound["observed"] == pytest.approx(5.3096214052587017e-5, rel=1e-11)

    def test_truncated_operator_fails_beside_a_healthy_one(self, tmp_path, monkeypatch):
        def overflowed(factors, tol, length):
            return np.full(length, np.inf)  # no cut on any circle

        # the ml kinds take this table from certify; star-24 from operators
        monkeypatch.setattr(certify_module, "_log_derivative_coefficients", overflowed)
        job = dict(CORPUS, operators=[CORPUS["operators"][0], CORPUS["operators"][2]])
        result = invoke(["--format", "json", "certify", write_job(tmp_path, job)])
        assert result.exit_code == 1, result.output
        star, ml = json.loads(result.output)["certificates"]
        assert (star["name"], star["verdict"]) == ("star-24", "pass")
        assert (ml["name"], ml["verdict"]) == ("ml-24", "fail")
        assert ml["failed_points"]["count"] == 90  # every point of r_max
        assert ml["failed_points"]["reason"].startswith("series at |z| = 0.999 ")
        assert star["failed_points"] == {"count": 0, "reason": None}

    def test_zero_of_e_fails_every_point(self, tmp_path):
        # E_{1,0.2} vanishes at -0.2448: its table has no cut on r = 0.999, so
        # no circle is summed; the report counts r_max's points, the dump every point
        job = {"schema": 1, "grid": {"radii": [0.2, 0.5, 0.999], "angles": 16},
               "operators": [{"name": "ml", "kind": "ml-starlike", "alpha": 1, "beta": 0.2,
                              "eta": 0}]}
        path = write_job(tmp_path, job)
        result = invoke(["--format", "json", "certify", path])
        assert result.exit_code == 1, result.output
        (cert,) = json.loads(result.output)["certificates"]
        assert cert["failed_points"]["count"] == 16 and cert["observed"] is None
        assert cert["failed_points"]["reason"].startswith("series at |z| = 0.999 keeps a tail")
        assert cert["grid"] == {"radii": [0.2, 0.5, 0.999], "r_max": 0.999, "angles": 16}
        # the text report names the reason, and counts no points: none were summed
        for flags in ([], ["--grid-angles", "720"]):
            text = invoke([*flags, "certify", path])
            assert text.exit_code == 1
            assert text.output.splitlines()[1].strip() == \
                f"not summed: {cert['failed_points']['reason']}"
        dump = invoke(["dump", "--job", path, "--operator", "ml"])
        assert dump.exit_code == 3
        rows = dump.output.splitlines()[2:]
        assert len(rows) == 48 and all(row.endswith(",error,error") for row in rows)

    def test_r_max_that_disagrees_with_radii_is_usage_error(self, tmp_path):
        job = dict(CORPUS, grid={"radii": [0.5, 0.9], "r_max": 0.999, "angles": 16})
        result = invoke(["certify", write_job(tmp_path, job)])
        assert result.exit_code == 2
        assert "r_max 0.999 is not the outermost radius 0.9" in result.output

    def test_non_finite_job_numbers_rejected(self, tmp_path):
        # refused while parsing, before any evaluation could produce a nan
        star = '{"name": "s", "kind": "starlike", "zeta": %s, ' \
               '"factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}'
        for zeta in ("Infinity", "NaN", "-Infinity", "1e999", "1" + "0" * 400, "1" + "0" * 5000):
            path = tmp_path / "job.json"
            path.write_text('{"schema": 1, "operators": [%s]}' % (star % zeta))
            started = time.perf_counter()
            result = invoke(["certify", str(path)])
            assert result.exit_code == 2, (zeta, result.output)
            assert time.perf_counter() - started < 1.0
        predicted = dict(CORPUS, operators=[dict(CORPUS["operators"][2], predicted=math.inf)])
        result = invoke(["certify", write_job(tmp_path, predicted)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", [b'{"schema": 1, "operators": [\xff]}',
                                         b"[" * 100000], ids=["not-utf-8", "nested-deep"])
    def test_undecodable_job_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "job.json"
        path.write_bytes(content)
        for argv in (["orders", str(path)], ["certify", str(path)],
                     ["dump", "--job", str(path), "--operator", "ml-24"],
                     ["eval", "--job", str(path), "--operator", "star-24", "--z", "0.5"]):
            result = invoke(argv)
            assert result.exit_code == 2, (argv, result.output)
            assert isinstance(result.exception, SystemExit)
            assert f"mlstar {argv[0]}: error: job file" in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["certify", "orders"])
    @pytest.mark.parametrize("bad", [
        {"name": "bound-golden", "kind": "log-deriv-bound", "alpha": 1, "beta": 1.5},
        {"name": "convex-golden", "kind": "convex",
         "factors": [{"alpha": 2, "beta": 4, "lambda": 5},
                     {"alpha": 2, "beta": 1.6, "lambda": 5}]},
    ], ids=["log-deriv-bound", "convex"])
    def test_beta_at_or_below_golden_ratio_rejected(self, tmp_path, command, bad):
        # the bound coefficient (2b + 1)/(b^2 - b - 1) needs beta above (1 + sqrt 5)/2
        job = {"schema": 1, "grid": {"radii": [0.9], "angles": 16},
               "operators": [CORPUS["operators"][2], bad]}
        result = invoke([command, write_job(tmp_path, job)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "operators[1]: beta must exceed (1 + sqrt 5)/2" in result.output

    def test_quadrature_tolerance_is_accepted_and_ignored(self, tmp_path):
        def certificates(tolerance):
            job = dict(CORPUS, tolerance=tolerance)
            result = invoke(["--format", "json", "certify", write_job(tmp_path, job)])
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            assert "quadrature" not in doc["job"]["tolerance"]
            return doc["certificates"]

        assert certificates({"quadrature": 1e-9}) == certificates({})
        job = dict(CORPUS, tolerance={"quadrature": 0})
        assert invoke(["certify", write_job(tmp_path, job)]).exit_code == 2

    def test_report_written_to_file(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        out = tmp_path / "report.json"
        result = invoke(["certify", path, "--output", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["verdict"] == "pass"

    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    def test_unwritable_report_path_is_usage_error(self, tmp_path, target):
        out = tmp_path / "missing" / "report.json" if target == "missing-dir" else tmp_path
        result = invoke(["--grid-angles", "8", "certify", CORPUS_PATH, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"mlstar certify: error: cannot write {str(out)!r}" in result.output

    def test_unwritable_report_path_is_refused_before_the_run(self, tmp_path, monkeypatch):
        def no_run(job):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_module, "run_job", no_run)
        out = tmp_path / "missing" / "r.json"
        result = invoke(["certify", CORPUS_PATH, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"mlstar certify: error: cannot write {str(out)!r}" in result.output

    @pytest.mark.parametrize("command", ["certify", "dump"])
    def test_invalid_job_leaves_the_output_untouched(self, tmp_path, command):
        out = tmp_path / "r.json"
        out.write_text("earlier report\n")
        path = write_job(tmp_path, dict(CORPUS, surprise=True))
        argv = (["certify", path] if command == "certify"
                else ["dump", "--job", path, "--operator", "ml-24"])
        result = invoke([*argv, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert out.read_text() == "earlier report\n"


class TestDump:
    def test_row_count_and_header(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["--grid-angles", "8", "--r-max", "0.5", "dump",
                         "--job", path, "--operator", "ml-24"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("# spec=ml-24")
        assert "digest=" in lines[0]
        assert lines[1] == "radius,angle,re,im"
        # radii (0.25, 0.5) at 8 angles each
        assert len(lines) == 2 + 16

    def test_dump_writes_one_circle_at_a_time(self, tmp_path):
        # 4 radii x 16384 angles: the sums take 1 MB, the whole CSV 4.1 MB of text
        job = dict(CORPUS, grid={"radii": [0.5, 0.9, 0.99, 0.999], "angles": 16384})
        path, out = write_job(tmp_path, job), tmp_path / "dump.csv"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exited:
                main(["dump", "--job", path, "--operator", "ml-24", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exited.value.code == 0
        assert len(out.read_text().splitlines()) == 2 + 4 * 16384
        assert peak <= 10e6

    def test_dump_peak_does_not_grow_with_the_radii(self, tmp_path):
        # dump holds one circle's sums at a time; summing every circle at once held
        # radii x M of them, 16 B each: 3.7 MB more at 16 radii than at 2
        def peak(radii):
            job = dict(CORPUS, grid={"radii": radii, "angles": 16384})
            path, out = write_job(tmp_path, job), tmp_path / "dump.csv"
            tracemalloc.start()
            try:
                with pytest.raises(SystemExit) as exited:
                    main(["dump", "--job", path, "--operator", "ml-24", "-o", str(out)])
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert exited.value.code == 0
            return traced

        few, many = [0.5, 0.999], [round(0.06 * k, 2) for k in range(1, 16)] + [0.999]
        peak(few)  # warm-up: imports and the cached circle basis
        assert peak(many) - peak(few) <= 1e6

    def test_dump_deterministic(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        args = ["--grid-angles", "8", "dump", "--job", path, "--operator", "bound-22"]
        first = invoke(args).output
        second = invoke(args).output
        assert first == second

    @pytest.mark.parametrize("flags", [["--grid-angles", "180"],
                                       ["--grid-angles", "64", "--tol", "1e-6"]])
    def test_dump_samples_the_certificate_evaluator(self, flags):
        # every extremum lies at theta = pi, a grid angle, where the dumped row is the
        # certificate's own sum, bit for bit
        report = invoke([*flags, "--format", "json", "certify", CORPUS_PATH])
        assert report.exit_code == 0
        observed = {c["name"]: c["observed"] for c in json.loads(report.output)["certificates"]}

        def dumped(name):
            result = invoke([*flags, "dump", "--job", CORPUS_PATH, "--operator", name])
            assert result.exit_code == 0
            rows = [line.split(",") for line in result.output.splitlines()[2:]]
            assert len(rows) == 6 * int(flags[1])
            return [complex(float(re), float(im)) for _, _, re, im in rows]

        for name in ("star-24", "convex-24-threshold", "ml-24"):
            assert min(v.real for v in dumped(name)) == observed[name]
        worst = max(abs(v - 1.0) for v in dumped("bound-110"))
        assert abs(worst - observed["bound-110"]) <= 1e-15

    def test_the_digest_of_a_corpus_dump(self):
        result = invoke(["dump", "--job", CORPUS_PATH, "--operator", "star-24"])
        assert result.output.splitlines()[0] == \
            "# spec=star-24 quantity=star-log-deriv digest=2bed89932124"

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_rows_print_one_plus_each_sum(self, name):
        job = load_job(CORPUS_PATH)
        op = next(op for op in job.operators if op.name == name)
        table, cut = _claim(op).table(job.grid.r_max, job.series_tol)
        thetas = [2.0 * math.pi * k / 16 for k in range(16)]
        expected = [f"{r!r},{theta!r},{(1.0 + v).real!r},{(1.0 + v).imag!r}"
                    for r, circle in zip(job.grid.radii,
                                         dump_circles(job.grid.radii, 16, table, cut))
                    for theta, v in zip(thetas, circle)]
        result = invoke(["--grid-angles", "16", "dump", "--job", CORPUS_PATH, "--operator", name])
        assert result.exit_code == 0
        assert result.output.splitlines()[2:] == expected

    def test_a_negative_zero_imaginary_part_prints_as_zero(self, monkeypatch):
        # 1 + v is a complex sum, and 1.0 + complex(x, -0.0) has imaginary part +0.0
        monkeypatch.setattr(cli_module, "_circle",
                            lambda table, count, r, m: [complex(0.5, -0.0)] * m)
        result = invoke(["--grid-angles", "8", "dump", "--job", CORPUS_PATH,
                         "--operator", "ml-24"])
        assert result.exit_code == 0
        assert all(row.endswith(",1.5,0.0") for row in result.output.splitlines()[2:])

    def test_a_closed_stdout_pipe_exits_2_without_a_traceback(self):
        # as `mlstar dump ... | head -1` closes it: the CSV outgrows the pipe's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "mlstar.cli", "dump", "--job", CORPUS_PATH,
             "--operator", "star-24"],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
            proc.stderr.close()
        assert first.startswith(b"# spec=star-24")
        assert b"Traceback" not in stderr and b"Exception ignored" not in stderr

    def test_unknown_operator(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = invoke(["dump", "--job", path, "--operator", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    def test_unwritable_csv_path_is_usage_error(self, tmp_path, target):
        out = tmp_path / "missing" / "samples.csv" if target == "missing-dir" else tmp_path
        result = invoke(["--grid-angles", "8", "dump", "--job", CORPUS_PATH,
                         "--operator", "star-24", "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"mlstar dump: error: cannot write {str(out)!r}" in result.output


def one_op_job(tmp_path, angles):
    job = {"schema": 1, "grid": {"radii": [0.5], "angles": angles},
           "operators": [CORPUS["operators"][2]]}
    return write_job(tmp_path, job)


class TestGridAngles:
    # the angle count sizes a dump, and a report only echoes it: one radius may
    # take every point of GRID_POINTS_MAX
    def test_the_cap_is_accepted(self, tmp_path):
        assert GridSpec(radii=(0.5,), angles=GRID_POINTS_MAX).angles == GRID_POINTS_MAX
        result = invoke(["certify", one_op_job(tmp_path, GRID_POINTS_MAX)])
        assert result.exit_code == 0, result.output
        result = invoke(["--grid-angles", str(GRID_POINTS_MAX), "certify",
                         one_op_job(tmp_path, 8)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("angles", [GRID_POINTS_MAX + 1, 10**9])
    @pytest.mark.parametrize("path", ["job", "flag"])
    def test_past_the_cap_is_usage_error(self, tmp_path, angles, path):
        if path == "job":
            options, job = [], one_op_job(tmp_path, angles)
        else:
            options, job = ["--grid-angles", str(angles)], one_op_job(tmp_path, 8)
        for argv in (["certify", job], ["dump", "--job", job, "--operator", "ml-24"]):
            result = invoke([*options, *argv])
            assert result.exit_code == 2, (argv, result.output)
            assert isinstance(result.exception, SystemExit)
            assert (f"a grid holds at most {GRID_POINTS_MAX} points, got 1 radii x "
                    f"{angles} angles") in result.output


def many_radii(count):
    return [0.999 * (i + 1) / count for i in range(count)]


class TestGridPoints:
    # radii x angles sizes a dump's sums; a certificate sums r_max alone
    def test_the_cap_is_accepted(self):
        at_cap = GridSpec(radii=many_radii(GRID_POINTS_MAX // 16), angles=16)
        assert at_cap.total_points() == GRID_POINTS_MAX
        with pytest.raises(DomainError, match=f"a grid holds at most {GRID_POINTS_MAX} points"):
            GridSpec(radii=many_radii(GRID_POINTS_MAX // 16 + 1), angles=16)

    @pytest.mark.parametrize("path", ["job", "flag"])
    def test_past_the_cap_is_usage_error(self, tmp_path, path):
        job = {"schema": 1, "grid": {"radii": many_radii(20000), "angles": 8},
               "operators": [CORPUS["operators"][2]]}
        if path == "job":
            options, job["grid"]["angles"] = [], 65536
        else:
            options = ["--grid-angles", "65536"]
        job = write_job(tmp_path, job)
        for argv in (["certify", job], ["dump", "--job", job, "--operator", "ml-24"]):
            result = invoke([*options, *argv])
            assert result.exit_code == 2, (argv, result.output)
            assert isinstance(result.exception, SystemExit)
            assert (f"a grid holds at most {GRID_POINTS_MAX} points, got 20000 radii x "
                    "65536 angles") in result.output


class TestMain:
    """main(argv) itself: it ends in SystemExit carrying the exit code."""

    def exit_code(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        return exited.value.code

    def test_exit_codes(self, tmp_path):
        assert self.exit_code(["--grid-angles", "16", "certify", CORPUS_PATH]) == 0
        inflated = dict(CORPUS["operators"][2], predicted=0.99)
        failing = write_job(tmp_path, dict(CORPUS, operators=[inflated]), "failing.json")
        assert self.exit_code(["--grid-angles", "16", "certify", failing]) == 1
        assert self.exit_code(["eval", "--alpha", "1", "--beta", "1", "--z", "2"]) == 2
        assert self.exit_code(tiny_beta_argv(tmp_path, "dump", 1e-300)) == 3

    @pytest.mark.parametrize("argv", [
        ["orders", "missing.json"],
        ["--tol", "1", "certify", CORPUS_PATH],
        ["--r-max", "1.5", "certify", CORPUS_PATH],
        ["dump", "--job", CORPUS_PATH, "--operator", "nope"],
        ["eval", "--z", "0.5"],
        ["eval", "--alpha", "0", "--beta", "1", "--z", "0.5"],
    ], ids=["orders-job-file", "certify-usage", "certify-domain", "dump-usage", "eval-usage",
            "eval-domain"])
    def test_a_command_error_names_its_command(self, capsys, argv):
        # every usage error of a command carries one prefix, the command's
        assert self.exit_code(argv) == 2
        err = capsys.readouterr().err
        command = next(arg for arg in argv if arg in ("orders", "certify", "dump", "eval"))
        assert f"mlstar {command}: error: " in err and "mlstar: error:" not in err

    def test_no_arguments_is_usage_error(self, capsys):
        # no command ran, so the error is the top-level parser's
        assert self.exit_code([]) == 2
        assert "mlstar: error: the following arguments are required: COMMAND" in \
            capsys.readouterr().err

    def test_version(self, capsys):
        assert self.exit_code(["--version"]) == 0
        assert capsys.readouterr().out == "mlstar, version 0.1.0\n"

    @pytest.mark.parametrize("command, flags", [
        ([], ["--version", "--tol", "--grid-angles", "--r-max", "--strict", "--format"]),
        (["eval"], ["--alpha", "--beta", "--raw", "--deriv", "--job", "--operator", "--z"]),
        (["orders"], ["job_path"]),
        (["certify"], ["job_path", "-o", "--output"]),
        (["dump"], ["--job", "--operator", "-o", "--output"]),
    ], ids=["mlstar", "eval", "orders", "certify", "dump"])
    def test_help_names_every_flag(self, capsys, command, flags):
        assert self.exit_code([*command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--help" in text
        for flag in flags:
            assert flag in text, flag

    @pytest.mark.parametrize("argv", [
        ["--grid-ang", "90", "certify", CORPUS_PATH],
        ["--str", "certify", CORPUS_PATH],
        ["certify", CORPUS_PATH, "--out", "report.json"],
        ["eval", "--alp", "1", "--beta", "1", "--z", "0.5"],
    ], ids=["grid-ang", "str", "out", "alp"])
    def test_abbreviations_are_refused(self, capsys, argv):
        assert self.exit_code(argv) == 2
        assert "mlstar" in capsys.readouterr().err


def test_importing_the_cli_loads_only_the_stdlib():
    # the runtime dependency set, none: a fresh interpreter, so no test's imports count
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; before = set(sys.modules); import mlstar.cli; "
             "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out == "['mlstar']\n"


def test_importing_the_cli_loads_neither_hashlib_nor_typing():
    # -S: no site, whose .pth files may load either; only dump's digest needs hashlib
    probe = ("import sys, mlstar.cli; "
             "print(sorted({'hashlib', '_hashlib', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_a_library_job_run_loads_neither_dataclasses_nor_inspect():
    # -S, as above; Job builds its dataclass fields only when dataclasses asks for them
    probe = ("import sys, mlstar.jobs; "
             f"report = mlstar.jobs.run_job(mlstar.jobs.load_job({CORPUS_PATH!r})); "
             "assert report.summary_verdict == 'pass'; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv", [
    ["orders", CORPUS_PATH],
    ["certify", CORPUS_PATH],
    ["dump", "--job", CORPUS_PATH, "--operator", "bound-110"],
    ["eval", "--alpha", "2", "--beta", "3", "--z", "0.49", "--z", "0.5j"],
    ["eval", "--job", CORPUS_PATH, "--operator", "star-24", "--z", "0.25"],
], ids=["orders", "certify", "dump", "eval-function", "eval-operator"])
def test_every_command_runs_without_numpy(argv):
    # numpy blocked in a fresh interpreter: importing it raises ImportError
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.modules['numpy'] = None; from mlstar.cli import main; "
             f"main({argv!r})")
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr


def tiny_beta_argv(tmp_path, command, beta):
    job = {"schema": 1, "grid": {"radii": [0.5, 0.999], "angles": 8},
           "operators": [{"name": "ml", "kind": "ml-starlike", "alpha": 1, "beta": beta,
                          "eta": 0}]}
    path = write_job(tmp_path, job)
    return {
        "certify": ["certify", path],
        "orders": ["orders", path],
        "dump": ["dump", "--job", path, "--operator", "ml"],
        "eval": ["eval", "--alpha", "1", "--beta", repr(beta), "--z", "0.5"],
    }[command]


class TestBetaDomain:
    @pytest.mark.parametrize("command", ["certify", "orders", "dump", "eval"])
    def test_beta_whose_gamma_overflows_is_refused(self, tmp_path, command):
        # Gamma(1e-310) ~ 1e310 and c_2 ~ 1/beta are past the double range
        result = invoke(tiny_beta_argv(tmp_path, command, 1e-310))
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "beta must be finite and > 0 with 1/beta finite" in result.output

    @pytest.mark.parametrize("command", ["certify", "orders", "dump", "eval"])
    def test_tiny_representable_beta_still_runs(self, tmp_path, command):
        # E's zero near -1e-300 leaves the certified table with no cut (its
        # coefficients overflow), so every point fails: a documented exit code
        result = invoke(tiny_beta_argv(tmp_path, command, 1e-300))
        expected = {"certify": 1, "dump": 3}.get(command, 0)
        assert result.exit_code == expected, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("flags, z", [([], "0.5"), (["--raw"], "0.5"),
                                          (["--deriv"], "0.5"), (["--deriv"], "1e-3")])
    def test_overflowing_sum_is_an_eval_error(self, flags, z):
        # Gamma(5.6e-309) is finite, but the coefficients near 1/beta overflow the sum
        result = invoke(["eval", *flags, "--alpha", "1", "--beta", "5.6e-309", "--z", z])
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "overflows the double range" in result.output
        assert "nan" not in result.output


# Edge values for the fuzz test: the bottom of the double range, numbers around
# the golden ratio (where the bound coefficient is born), the overflow of
# math.gamma, huge and negative numbers, and a boolean where a number belongs.
EDGE_VALUES = (0, 5e-324, 1e-310, 1e-300, 0.5, 1, 2, 4, GOLDEN_RATIO,
               math.nextafter(GOLDEN_RATIO, 0.0), math.nextafter(GOLDEN_RATIO, 2.0),
               171.6, 1e300, -1, -1e-300, True)
edge = st.sampled_from(EDGE_VALUES)


def value(typical):
    """A key's typical value or an edge value, so that some jobs get past parsing."""
    return st.one_of(st.just(typical), edge)


@st.composite
def fuzz_jobs(draw):
    kind = draw(st.sampled_from(["starlike", "convex", "ml-starlike", "log-deriv-bound"]))
    op = {"name": "op", "kind": kind}
    if kind in ("starlike", "convex"):
        factor = st.fixed_dictionaries(
            {"alpha": value(2), "beta": value(4), "lambda": value(5)}, optional={"eta": edge})
        op["factors"] = draw(st.lists(factor, min_size=1, max_size=2))
        if kind == "starlike":
            op["zeta"] = draw(value(1))
    else:
        op["alpha"], op["beta"] = draw(value(2)), draw(value(4))
        if kind == "ml-starlike":
            op["eta"] = draw(value(0))
    if draw(st.booleans()):
        op["predicted"] = draw(edge)
    angles = draw(st.sampled_from([8, 9, 720, GRID_POINTS_MAX + 1, 10**9]))
    job = {"schema": 1, "grid": {"radii": [0.5, 0.999], "angles": angles}, "operators": [op]}
    tolerance = draw(st.dictionaries(st.sampled_from(["margin", "series"]), edge))
    if tolerance:
        job["tolerance"] = tolerance
    return job


@settings(max_examples=200, deadline=None, derandomize=True)
@given(job=fuzz_jobs(), tol=st.one_of(st.none(), edge))
def test_any_job_ends_in_a_documented_exit_code(job, tol):
    op = job["operators"][0]
    params = op if "alpha" in op else op["factors"][0]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "job.json")
        Path(path).write_text(json.dumps(job))
        options = [] if tol is None else ["--tol", str(tol)]
        for argv in (["certify", path], ["orders", path],
                     ["dump", "--job", path, "--operator", "op"],
                     ["eval", "--job", path, "--operator", "op", "--z", "0.5"],
                     ["eval", "--alpha", str(params["alpha"]), "--beta", str(params["beta"]),
                      "--z", "0.5"]):
            result = invoke([*options, *argv])
            assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                argv, repr(result.exception))


STAR = {"name": "s", "kind": "starlike", "zeta": 1.0,
        "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}
ML = {"name": "m", "kind": "ml-starlike", "alpha": 2, "beta": 4, "eta": 0}
BOUND = {"name": "b", "kind": "log-deriv-bound", "alpha": 2, "beta": 4}
DROP = object()  # a key that the entry leaves out


def job_doc(**top):
    return {"schema": 1, "operators": [STAR], **top}


def op_doc(base, **changes):
    entry = {**base, **changes}
    return job_doc(operators=[{k: v for k, v in entry.items() if v is not DROP}])


def factor_doc(**changes):
    factor = {**STAR["factors"][0], **changes}
    return op_doc(STAR, factors=[{k: v for k, v in factor.items() if v is not DROP}])


KINDS = "('starlike', 'convex', 'ml-starlike', 'log-deriv-bound')"
# every rule of parse_job, with its exact message
JOB_RULES = [
    ("top-not-object", [1], "job: expected an object"),
    ("top-unknown-key", job_doc(extra=1), "job: unknown keys ['extra']"),
    ("schema-missing", {"operators": []}, "job: 'schema' must equal 1"),
    ("schema-2", job_doc(schema=2), "job: 'schema' must equal 1"),
    ("grid-not-object", job_doc(grid=[]), "job.grid: expected an object"),
    ("grid-unknown-key", job_doc(grid={"angle": 8}), "job.grid: unknown keys ['angle']"),
    ("grid-radii-empty", job_doc(grid={"radii": []}),
     "job.grid: 'radii' must be a nonempty list"),
    ("grid-radius-string", job_doc(grid={"radii": ["0.5"]}),
     "job.grid: key 'radii' must be a number, got '0.5'"),
    ("grid-radius-huge", job_doc(grid={"radii": [10**400]}),
     "job.grid: key 'radii' must be finite"),
    ("grid-r_max-bool", job_doc(grid={"r_max": True}),
     "job.grid: key 'r_max' must be a number, got True"),
    ("grid-angles", job_doc(grid={"angles": 4}), "job.grid: angles must be at least 8, got 4"),
    ("grid-radii-descend", job_doc(grid={"radii": [0.9, 0.5]}),
     "job.grid: radii must ascend strictly, got (0.9, 0.5)"),
    ("tolerance-not-object", job_doc(tolerance=1e-6), "job.tolerance: expected an object"),
    ("tolerance-unknown-key", job_doc(tolerance={"series_tol": 1e-14}),
     "job.tolerance: unknown keys ['series_tol']"),
    ("tolerance-margin-null", job_doc(tolerance={"margin": None}),
     "job.tolerance: key 'margin' must be a number, got None"),
    ("tolerance-series-zero", job_doc(tolerance={"series": 0.0}),
     "job.tolerance: 'series' must be finite and > 0, got 0.0"),
    ("tolerance-quadrature-negative", job_doc(tolerance={"quadrature": -1.0}),
     "job.tolerance: 'quadrature' must be positive"),
    ("tolerance-series-above-margin", job_doc(tolerance={"margin": 1e-10, "series": 1e-8}),
     "job.tolerance: series tolerance 1e-08 exceeds the margin tolerance 1e-10: the truncation "
     "error could hide a failed margin"),
    ("outputs-empty", job_doc(outputs=[]), "job: 'outputs' must be a nonempty list"),
    ("outputs-unknown", job_doc(outputs=["xml"]), "job: unknown output format 'xml'"),
    ("operators-not-list", job_doc(operators={}), "job: 'operators' must be a list"),
    ("operator-not-object", job_doc(operators=[[]]), "operators[0]: expected an object"),
    ("operator-name-empty", op_doc(STAR, name=""), "operators[0]: needs a nonempty 'name'"),
    ("operator-kind", op_doc(STAR, kind="concave"),
     f"operators[0]: 'kind' must be one of {KINDS}, got 'concave'"),
    ("operator-predicted-string", op_doc(STAR, predicted="0.5"),
     "operators[0]: key 'predicted' must be a number, got '0.5'"),
    ("starlike-unknown-key", op_doc(STAR, alpha=2), "operators[0]: unknown keys ['alpha']"),
    ("starlike-factors-empty", op_doc(STAR, factors=[]),
     "operators[0]: needs a nonempty 'factors' list"),
    ("starlike-zeta-missing", op_doc(STAR, zeta=DROP),
     "operators[0]: starlike operators need 'zeta'"),
    ("starlike-zeta-bool", op_doc(STAR, zeta=False),
     "operators[0]: key 'zeta' must be a number, got False"),
    ("ml-unknown-key", op_doc(ML, factors=[]), "operators[0]: unknown keys ['factors']"),
    ("ml-beta-missing", op_doc(ML, beta=DROP), "operators[0]: needs 'alpha' and 'beta'"),
    ("ml-eta-missing", op_doc(ML, eta=DROP), "operators[0]: ml-starlike needs 'eta'"),
    ("bound-eta", op_doc(BOUND, eta=0), "operators[0]: log-deriv-bound entries take no 'eta'"),
    ("ml-alpha-string", op_doc(ML, alpha="2"),
     "operators[0]: key 'alpha' must be a number, got '2'"),
    ("ml-eta-huge", op_doc(ML, eta=10**400), "operators[0]: key 'eta' must be finite"),
    ("factor-not-object", op_doc(STAR, factors=[1]),
     "operators[0].factors[0]: expected an object"),
    ("factor-unknown-key", factor_doc(lam=1), "operators[0].factors[0]: unknown keys ['lam']"),
    ("factor-lambda-missing", factor_doc(**{"lambda": DROP}),
     "operators[0].factors[0]: factors need alpha, beta and lambda"),
    ("factor-lambda-string", factor_doc(**{"lambda": "1"}),
     "operators[0].factors[0]: key 'lambda' must be a number, got '1'"),
    ("factor-domain", factor_doc(alpha=0.5),
     "operators[0].factors[0]: alpha must be finite and >= 1, got 0.5"),
    ("names-duplicate", job_doc(operators=[STAR, STAR]), "job: operator names must be unique"),
    ("claim-bound-beta", op_doc(BOUND, beta=1.5),
     "operators[0]: beta must exceed (1 + sqrt 5)/2 = 1.6180339887, got 1.5"),
    ("claim-ml-alpha", op_doc(ML, alpha=0.5),
     "operators[0]: alpha must be finite and >= 1, got 0.5"),
    ("claim-starlike-zeta", op_doc(STAR, zeta=0.0),
     "operators[0]: zeta must be finite and > 0, got 0.0"),
]


@pytest.mark.parametrize("document, message", [rule[1:] for rule in JOB_RULES],
                         ids=[rule[0] for rule in JOB_RULES])
def test_each_job_rule_raises_its_message(document, message):
    with pytest.raises(JobFileError) as info:
        parse_job(document)
    assert str(info.value) == message



@pytest.mark.parametrize("argv", [
    ["orders", "JOB"],
    ["certify", "JOB"],
    ["dump", "--job", "JOB", "--operator", "star\nrow,1,2,3"],
], ids=["orders", "certify", "dump"])
def test_a_name_with_a_control_character_is_refused(tmp_path, argv):
    # it would split a certify text row and put a data-shaped line above dump's CSV header
    path = write_job(tmp_path, op_doc(STAR, name="star\nrow,1,2,3"))
    result = invoke([path if arg == "JOB" else arg for arg in argv])
    assert result.exit_code == 2, result.output
    assert ("operators[0]: 'name' must be printable, got 'star\\nrow,1,2,3'"
            in result.output)
    assert "row,1,2,3 " not in result.output and "radius,angle" not in result.output


FORGED = "s digest=000000000000 quantity=none"  # would forge dump's header fields


@pytest.mark.parametrize("argv", [
    ["orders", "JOB"],
    ["certify", "JOB"],
    ["dump", "--job", "JOB", "--operator", FORGED],
], ids=["orders", "certify", "dump"])
def test_a_name_with_a_space_is_refused(tmp_path, argv):
    # it would split a text report row, as a reader that splits on whitespace sees it,
    # and put a second digest= into dump's header
    path = write_job(tmp_path, op_doc(STAR, name=FORGED))
    result = invoke([path if arg == "JOB" else arg for arg in argv])
    assert result.exit_code == 2, result.output
    assert f"operators[0]: 'name' must not contain a space, got {FORGED!r}" in result.output
    assert "# spec=" not in result.output and "summary:" not in result.output


def _stdout_of(argv):
    """main(argv)'s exit code and its standard output alone, without stderr's warnings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code or 0, out.getvalue()


def test_orders_and_certify_write_strict_json(tmp_path):
    # lambda = 5e-324 makes the convex delta -inf, and zeta = 8e307 made the starlike one
    # NaN; both commands write a number that is not finite as null
    path = write_job(tmp_path, job_doc(operators=[
        {"name": "tiny-lambda", "kind": "convex",
         "factors": [{"alpha": 2, "beta": 2, "lambda": 5e-324}]},
        {**STAR, "name": "huge-zeta", "zeta": 8e307}]))

    def strict(text):
        return json.loads(text, parse_constant=lambda s: pytest.fail(f"non-strict JSON {s}"))

    code, out = _stdout_of(["--format", "json", "orders", path])
    assert code == 0
    deltas = {entry["name"]: entry["delta"] for entry in strict(out)}
    assert deltas == {"tiny-lambda": None, "huge-zeta": 1.0}
    code, out = _stdout_of(["--format", "json", "certify", path])
    assert code == 1  # the tiny lambda's table has no cut
    tiny, huge = strict(out)["certificates"]
    assert tiny["predicted"] is None and tiny["observed"] is None and tiny["margin"] is None
    assert huge["predicted"] == 1.0 and huge["verdict"] == "pass"


def test_a_bool_schema_is_refused():
    # True == 1, yet every other number in a job refuses a bool
    with pytest.raises(JobFileError) as info:
        parse_job(job_doc(schema=True))
    assert str(info.value) == "job: 'schema' must equal 1"
    assert parse_job(job_doc(schema=1)) == parse_job(job_doc(schema=1.0))


def test_numbers_the_parser_still_accepts():
    class Real(float):
        pass

    job = parse_job(op_doc(STAR, zeta=Real(2.0), predicted=0, name="s-t\u00e9"))
    op, = job.operators
    assert type(op.zeta) is float and op.zeta == 2.0
    assert type(op.predicted) is float and op.predicted == 0.0
    assert op.name == "s-t\u00e9"

class TestJobRoundTrip:
    def test_parse_serialize_parse(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        job = load_job(path)
        echoed = job_to_dict(job)
        again = parse_job(echoed)
        assert job_to_dict(again) == echoed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, whose writes fail")
@pytest.mark.parametrize("argv, on_stdout", [
    (["orders", CORPUS_PATH], True),
    (["certify", CORPUS_PATH], True),
    (["eval", "--alpha", "2", "--beta", "4", "--z", "0.5"], True),
    (["dump", "--job", CORPUS_PATH, "--operator", "star-24"], True),
    (["certify", "-o", "/dev/full", CORPUS_PATH], False),
    (["dump", "--job", CORPUS_PATH, "--operator", "star-24", "-o", "/dev/full"], False),
], ids=["orders", "certify", "eval", "dump", "certify -o", "dump -o"])
def test_a_full_output_exits_2_without_a_traceback(argv, on_stdout):
    # every write to /dev/full fails with ENOSPC, as on a full disk
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "mlstar.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
                              stdout=full if on_stdout else subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert f"mlstar {argv[0]}: error: cannot write the output".encode() in done.stderr
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr
