import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
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
from mlstar.certify import GridSpec
from mlstar.cli import cli
from mlstar.errors import JobFileError
from mlstar.jobs import job_to_dict, load_job, parse_job


CORPUS_PATH = str(Path(__file__).resolve().parent.parent / "jobs" / "corpus.json")


def star24_spec():
    return OperatorSpec((FactorSpec(MLParams(2, 4), 1.0),), 1.0)


@pytest.fixture
def runner():
    return CliRunner()


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
    def test_normalized_value(self, runner):
        result = runner.invoke(cli, ["eval", "--alpha", "2", "--beta", "3", "--z", "0.49"])
        assert result.exit_code == 0
        assert "0.510338011262" in result.output

    def test_zero_maps_to_zero(self, runner):
        result = runner.invoke(cli, ["eval", "--alpha", "2", "--beta", "3", "--z", "0"])
        assert result.exit_code == 0
        assert result.output.split()[1] == "0"

    def test_raw_series(self, runner):
        result = runner.invoke(cli, ["eval", "--raw", "--alpha", "1", "--beta", "1", "--z", "0.5"])
        assert result.exit_code == 0
        assert "1.6487212707" in result.output

    def test_complex_point_and_log_deriv(self, runner):
        result = runner.invoke(
            cli, ["eval", "--deriv", "--alpha", "1", "--beta", "1", "--z", "0.3+0.4j"]
        )
        assert result.exit_code == 0
        assert "1.3" in result.output and "0.4" in result.output

    def test_point_outside_disk_is_usage_error(self, runner):
        result = runner.invoke(cli, ["eval", "--alpha", "1", "--beta", "1", "--z", "2.0"])
        assert result.exit_code == 2

    def test_non_finite_input_is_usage_error(self, runner):
        for args in (["--z", "nan"], ["--z", "inf+0.1j"], ["--z", "0.5", "--beta", "inf"]):
            argv = ["eval", "--alpha", "2", "--beta", "3", *args]
            assert runner.invoke(cli, argv).exit_code == 2, args
        result = runner.invoke(
            cli, ["--tol", "nan", "eval", "--alpha", "2", "--beta", "3", "--z", "0.5"]
        )
        assert result.exit_code == 2

    def test_beta_past_gamma_overflow(self, runner):
        result = runner.invoke(cli, ["eval", "--alpha", "2", "--beta", "200", "--z", "0.5"])
        assert result.exit_code == 0, result.output
        # 0.5 * (1 + 0.5/(200*201) + ...)
        assert "0.500006218981" in result.output

    def test_operator_value(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(
            cli, ["eval", "--job", path, "--operator", "star-24", "--z", "0.25"]
        )
        assert result.exit_code == 0
        assert "0.25156" in result.output  # z + z^2/40 + z^3/2520 + ...

    def test_operator_evaluation_error_exits_3(self, runner, tmp_path):
        job = {
            "schema": 1,
            "operators": [
                {"name": "wild", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 1, "beta": 1, "lambda": 1e-7}]},
            ],
        }
        path = write_job(tmp_path, job)
        result = runner.invoke(
            cli, ["eval", "--job", path, "--operator", "wild", "--z", "0.9"]
        )
        assert result.exit_code == 3
        assert "error" in result.output


class TestOrders:
    def test_corpus_orders(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(cli, ["orders", path])
        assert result.exit_code == 0
        assert "star-24" in result.output
        assert "delta=0.5" in result.output
        assert "convex-i" in result.output and "delta=0 " in result.output

    def test_huge_zeta_gives_a_finite_delta(self, runner, tmp_path):
        job = {"schema": 1, "operators": [
            {"name": "huge", "kind": "starlike", "zeta": 1e300,
             "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}]}
        result = runner.invoke(cli, ["--format", "json", "orders", write_job(tmp_path, job)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)[0]["delta"] == pytest.approx(1.0, rel=1e-15)

    def test_infeasible_spec_warns_but_exits_zero(self, runner, tmp_path):
        job = {
            "schema": 1,
            "operators": [
                {"name": "weak", "kind": "starlike", "zeta": 1.0,
                 "factors": [{"alpha": 2, "beta": 2, "lambda": 1}]},
            ],
        }
        path = write_job(tmp_path, job)
        result = runner.invoke(cli, ["orders", path])
        assert result.exit_code == 0
        assert "HYPOTHESIS-VIOLATED" in result.output


class TestCertify:
    def test_corpus_passes(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(cli, ["certify", path])
        assert result.exit_code == 0, result.output
        assert "summary: pass" in result.output

    def test_json_report_schema(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(cli, ["--format", "json", "certify", path])
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
        for cert in doc["certificates"]:
            assert cert["semantics"] == "sampled-min certificate"

    def test_reports_stable_across_runs(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        docs = []
        for _ in range(2):
            result = runner.invoke(cli, ["--format", "json", "certify", path])
            doc = json.loads(result.output)
            doc.pop("timings")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_negative_control_fails(self, runner, tmp_path):
        # inflate predictions 0.2 above the corpus's own observed values
        grid = GridSpec(radii=(0.9, 0.999), angles=90)
        observed_star = certify_starlike(star24_spec(), grid).observed
        observed_convex = certify_convex(
            (FactorSpec(MLParams(2, 2), 5.0),), grid
        ).observed
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
        result = runner.invoke(cli, ["certify", path])
        assert result.exit_code == 1
        assert "fail" in result.output

    def test_series_tolerance_above_the_margin_is_refused(self, runner, tmp_path):
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
        assert runner.invoke(cli, ["--grid-angles", "90", "certify", path]).exit_code == 1
        for tol in ("0.05", "0.5"):
            result = runner.invoke(cli, ["--tol", tol, "--grid-angles", "90", "certify", path])
            assert result.exit_code == 2, result.output
            assert "exceeds the job's margin tolerance" in result.output
        # eval prints tail bounds, so it keeps any positive --tol
        result = runner.invoke(cli, ["--tol", "0.5", "eval", "--job", path,
                                     "--operator", "star-control", "--z", "0.25"])
        assert result.exit_code == 0, result.output

    def test_job_series_tolerance_above_the_margin_is_rejected(self):
        with pytest.raises(JobFileError, match="'series' must not exceed 'margin'"):
            parse_job(dict(CORPUS, tolerance={"margin": 1e-6, "series": 0.05}))
        job = parse_job(dict(CORPUS, tolerance={"margin": 1e-6, "series": 1e-6}))
        assert job.series_tol == job.margin_tol

    def test_empty_job_is_usage_error(self, runner, tmp_path):
        path = write_job(tmp_path, {"schema": 1, "operators": []})
        result = runner.invoke(cli, ["certify", path])
        assert result.exit_code == 2

    def test_strict_promotes_hypothesis_violations(self, runner, tmp_path):
        job = {
            "schema": 1,
            "grid": {"radii": [0.9], "angles": 16},
            "operators": [
                {"name": "weak", "kind": "ml-starlike", "alpha": 1, "beta": 1, "eta": 0},
            ],
        }
        path = write_job(tmp_path, job)
        relaxed = runner.invoke(cli, ["certify", path])
        assert relaxed.exit_code == 0
        assert "warning" in relaxed.output or "hypothesis" in relaxed.output
        strict = runner.invoke(cli, ["--strict", "certify", path])
        assert strict.exit_code == 1

    def test_unknown_key_rejected(self, runner, tmp_path):
        bad = dict(CORPUS)
        bad["surprise"] = True
        path = write_job(tmp_path, bad)
        result = runner.invoke(cli, ["certify", path])
        assert result.exit_code == 2

    def test_beta_past_gamma_overflow(self, runner, tmp_path):
        job = {
            "schema": 1,
            "grid": {"radii": [0.9, 0.999], "angles": 90},
            "operators": [
                {"name": "ml-2-200", "kind": "ml-starlike", "alpha": 2, "beta": 200, "eta": 0},
                {"name": "bound-192", "kind": "log-deriv-bound", "alpha": 1.92, "beta": 167.93},
            ],
        }
        path = write_job(tmp_path, job)
        result = runner.invoke(cli, ["--format", "json", "certify", path])
        assert result.exit_code == 0, result.output
        ml, bound = json.loads(result.output)["certificates"]
        # mpmath at 40 digits: 1 + z E'/E - 1 at z = -0.999, |z E'/E - 1| at z = 0.999
        assert ml["observed"] == pytest.approx(0.99997514984700025, rel=1e-14)
        assert bound["observed"] == pytest.approx(5.3096214052587017e-5, rel=1e-11)

    def test_truncated_operator_fails_beside_a_healthy_one(self, runner, tmp_path, monkeypatch):
        def truncated(params, z, tol):
            raise SeriesTruncationError("no cut")

        monkeypatch.setattr(certify_module, "_log_deriv_deviation", truncated)
        job = dict(CORPUS, operators=[CORPUS["operators"][0], CORPUS["operators"][2]])
        result = runner.invoke(cli, ["--format", "json", "certify", write_job(tmp_path, job)])
        assert result.exit_code == 1, result.output
        star, ml = json.loads(result.output)["certificates"]
        assert (star["name"], star["verdict"]) == ("star-24", "pass")
        assert (ml["name"], ml["verdict"]) == ("ml-24", "fail")
        assert ml["failed_points"]["count"] == 180
        assert ml["failed_points"]["sample"][0]["reason"] == "no cut"

    def test_non_finite_job_numbers_rejected(self, runner, tmp_path):
        # refused while parsing, before any evaluation could produce a nan
        star = '{"name": "s", "kind": "starlike", "zeta": %s, ' \
               '"factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}'
        for zeta in ("Infinity", "NaN", "-Infinity", "1e999", "1" + "0" * 400):
            path = tmp_path / "job.json"
            path.write_text('{"schema": 1, "operators": [%s]}' % (star % zeta))
            started = time.perf_counter()
            result = runner.invoke(cli, ["certify", str(path)])
            assert result.exit_code == 2, (zeta, result.output)
            assert time.perf_counter() - started < 1.0
        predicted = dict(CORPUS, operators=[dict(CORPUS["operators"][2], predicted=math.inf)])
        result = runner.invoke(cli, ["certify", write_job(tmp_path, predicted)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["certify", "orders"])
    @pytest.mark.parametrize("bad", [
        {"name": "bound-golden", "kind": "log-deriv-bound", "alpha": 1, "beta": 1.5},
        {"name": "convex-golden", "kind": "convex",
         "factors": [{"alpha": 2, "beta": 4, "lambda": 5},
                     {"alpha": 2, "beta": 1.6, "lambda": 5}]},
    ], ids=["log-deriv-bound", "convex"])
    def test_beta_at_or_below_golden_ratio_rejected(self, runner, tmp_path, command, bad):
        # the bound coefficient (2b + 1)/(b^2 - b - 1) needs beta above (1 + sqrt 5)/2
        job = {"schema": 1, "grid": {"radii": [0.9], "angles": 16},
               "operators": [CORPUS["operators"][2], bad]}
        result = runner.invoke(cli, [command, write_job(tmp_path, job)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "operators[1]: beta must exceed (1 + sqrt 5)/2" in result.output

    def test_quadrature_tolerance_is_accepted_and_ignored(self, runner, tmp_path):
        def certificates(tolerance):
            job = dict(CORPUS, tolerance=tolerance)
            result = runner.invoke(cli, ["--format", "json", "certify",
                                         write_job(tmp_path, job)])
            assert result.exit_code == 0, result.output
            doc = json.loads(result.output)
            assert "quadrature" not in doc["job"]["tolerance"]
            return doc["certificates"]

        assert certificates({"quadrature": 1e-9}) == certificates({})
        job = dict(CORPUS, tolerance={"quadrature": 0})
        assert runner.invoke(cli, ["certify", write_job(tmp_path, job)]).exit_code == 2

    def test_report_written_to_file(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        out = tmp_path / "report.json"
        result = runner.invoke(cli, ["certify", path, "--output", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["verdict"] == "pass"


class TestDump:
    def test_row_count_and_header(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(
            cli, ["--grid-angles", "8", "--r-max", "0.5", "dump",
                  "--job", path, "--operator", "ml-24"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("# spec=ml-24")
        assert "digest=" in lines[0]
        assert lines[1] == "radius,angle,re,im"
        # radii (0.25, 0.5) at 8 angles each
        assert len(lines) == 2 + 16

    def test_dump_deterministic(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        args = ["--grid-angles", "8", "dump", "--job", path, "--operator", "bound-22"]
        first = runner.invoke(cli, args).output
        second = runner.invoke(cli, args).output
        assert first == second

    @pytest.mark.parametrize("flags", [["--grid-angles", "180"],
                                       ["--grid-angles", "64", "--tol", "1e-6"]])
    def test_dump_samples_the_certificate_evaluator(self, runner, flags):
        # the dumped rows are the values the certificate scanned, bit for bit
        report = runner.invoke(cli, [*flags, "--format", "json", "certify", CORPUS_PATH])
        assert report.exit_code == 0
        observed = {c["name"]: c["observed"] for c in json.loads(report.output)["certificates"]}

        def dumped(name):
            result = runner.invoke(cli, [*flags, "dump", "--job", CORPUS_PATH, "--operator", name])
            assert result.exit_code == 0
            rows = [line.split(",") for line in result.output.splitlines()[2:]]
            assert len(rows) == 6 * int(flags[1])
            return [complex(float(re), float(im)) for _, _, re, im in rows]

        for name in ("star-24", "convex-24-threshold", "ml-24"):
            assert min(v.real for v in dumped(name)) == observed[name]
        worst = max(abs(v - 1.0) for v in dumped("bound-110"))
        assert abs(worst - observed["bound-110"]) <= 1e-15

    def test_unknown_operator(self, runner, tmp_path):
        path = write_job(tmp_path, CORPUS)
        result = runner.invoke(cli, ["dump", "--job", path, "--operator", "nope"])
        assert result.exit_code == 2


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
    def test_beta_whose_gamma_overflows_is_refused(self, runner, tmp_path, command):
        # Gamma(1e-310) ~ 1e310 and c_2 ~ 1/beta are past the double range
        result = runner.invoke(cli, tiny_beta_argv(tmp_path, command, 1e-310))
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "beta must be finite and > 0 with 1/beta finite" in result.output

    @pytest.mark.parametrize("command", ["certify", "orders", "dump", "eval"])
    def test_tiny_representable_beta_still_runs(self, runner, tmp_path, command):
        result = runner.invoke(cli, tiny_beta_argv(tmp_path, command, 1e-300))
        assert result.exit_code == 0, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("flags, z", [([], "0.5"), (["--raw"], "0.5"),
                                          (["--deriv"], "0.5"), (["--deriv"], "1e-3")])
    def test_overflowing_sum_is_an_eval_error(self, runner, flags, z):
        # Gamma(5.6e-309) is finite, but the coefficients near 1/beta overflow the sum
        result = runner.invoke(cli, ["eval", *flags, "--alpha", "1", "--beta", "5.6e-309",
                                     "--z", z])
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
    # a generated angle count could allocate gigabytes, so the grid stays fixed
    job = {"schema": 1, "grid": {"radii": [0.5, 0.999], "angles": 8}, "operators": [op]}
    tolerance = draw(st.dictionaries(st.sampled_from(["margin", "series"]), edge))
    if tolerance:
        job["tolerance"] = tolerance
    return job


@settings(max_examples=200, deadline=None, derandomize=True)
@given(job=fuzz_jobs(), tol=st.one_of(st.none(), edge))
def test_any_job_ends_in_a_documented_exit_code(job, tol):
    op = job["operators"][0]
    params = op if "alpha" in op else op["factors"][0]
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "job.json")
        Path(path).write_text(json.dumps(job))
        options = [] if tol is None else ["--tol", str(tol)]
        for argv in (["certify", path], ["orders", path],
                     ["dump", "--job", path, "--operator", "op"],
                     ["eval", "--job", path, "--operator", "op", "--z", "0.5"],
                     ["eval", "--alpha", str(params["alpha"]), "--beta", str(params["beta"]),
                      "--z", "0.5"]):
            result = runner.invoke(cli, [*options, *argv])
            assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                argv, repr(result.exception))


class TestJobRoundTrip:
    def test_parse_serialize_parse(self, tmp_path):
        path = write_job(tmp_path, CORPUS)
        job = load_job(path)
        echoed = job_to_dict(job)
        again = parse_job(echoed)
        assert job_to_dict(again) == echoed
