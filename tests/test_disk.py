"""One closed-disk rule for every entry point that takes a point or a radius.

A point z is accepted when it is a number, not a bool, with |z| <= 1, and a
radius r when 0 < r <= 1, the boundary included; everything else is refused
with DomainError, with JobFileError from a job document, or with exit 2 from
the CLI.
"""

import math
import re
from pathlib import Path

import pytest

from mlstar import (
    EvalPoint,
    FactorSpec,
    MLParams,
    OperatorSpec,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
    convex_log_deriv,
    f_conv_value,
    f_value,
    f_zeta_power,
    log_deriv,
    ml_norm,
    ml_norm_deriv,
    ml_raw,
    star_log_deriv,
)
from mlstar.errors import DomainError, JobFileError
from mlstar.jobs import GridSpec, parse_job

from cli_runner import invoke

CORPUS_PATH = str(Path(__file__).resolve().parent.parent / "jobs" / "corpus.json")
PARAMS = MLParams(2, 4)
FACTORS = (FactorSpec(PARAMS, 1.0),)
SPEC = OperatorSpec(FACTORS, 1.0)


class Refused(Exception):
    """The CLI exited 2."""


def cli(*argv):
    result = invoke(list(argv))
    if result.exit_code == 2:
        raise Refused(result.output)
    assert result.exit_code == 0, result.output


POINT_ENTRIES = {
    "ml_raw": lambda z: ml_raw(PARAMS, z),
    "ml_norm": lambda z: ml_norm(PARAMS, z),
    "ml_norm_deriv": lambda z: ml_norm_deriv(PARAMS, z),
    "log_deriv": lambda z: log_deriv(PARAMS, z),
    "f_zeta_power": lambda z: f_zeta_power(SPEC, z),
    "f_value": lambda z: f_value(SPEC, z),
    "star_log_deriv": lambda z: star_log_deriv(SPEC, z),
    "f_conv_value": lambda z: f_conv_value(FACTORS, z),
    "convex_log_deriv": lambda z: convex_log_deriv(FACTORS, z),
    "an EvalPoint": lambda z: star_log_deriv(SPEC, EvalPoint(complex(z), abs(z), 0.0)),
    "eval --z": lambda z: cli("eval", "--alpha", "2", "--beta", "4", f"--z={z!r}"),
    "eval --job --z": lambda z: cli("eval", "--job", CORPUS_PATH, "--operator", "star-24",
                                    f"--z={z!r}"),
}

RADIUS_ENTRIES = {
    "EvalPoint.from_polar": lambda r: EvalPoint.from_polar(r, 0.0),
    "certify_starlike": lambda r: certify_starlike(SPEC, r),
    "certify_convex": lambda r: certify_convex(FACTORS, r),
    "certify_ml_starlike": lambda r: certify_ml_starlike(PARAMS, 0.0, r),
    "check_log_deriv_bound": lambda r: check_log_deriv_bound(PARAMS, r),
    "GridSpec(r_max)": lambda r: GridSpec(r_max=r),
    "GridSpec(radii)": lambda r: GridSpec(radii=(r,)),
    "job grid.r_max": lambda r: parse_job({"schema": 1, "grid": {"r_max": r}}),
    "--r-max": lambda r: cli(f"--r-max={r!r}", "certify", CORPUS_PATH),
}

REFUSALS = (DomainError, JobFileError, Refused)


@pytest.mark.parametrize("z", [1, -1, 1j])
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_a_point_on_the_unit_circle_is_accepted(entry, z):
    POINT_ENTRIES[entry](z)


@pytest.mark.parametrize("z", [1.0 + 4 * 2.0 ** -52, math.nan, math.inf])
@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_a_point_outside_the_closed_disk_is_refused(entry, z):
    with pytest.raises(REFUSALS, match=r"\|z\| must be <= 1"):
        POINT_ENTRIES[entry](z)


@pytest.mark.parametrize("z", [None, "0.5", "abc", True], ids=["None", "str", "word", "bool"])
@pytest.mark.parametrize("entry", list(POINT_ENTRIES)[:9])
def test_a_point_that_is_not_a_number_is_refused_by_the_nine_point_functions(entry, z):
    # complex() reads "0.5" and True as numbers, and fails on None and "abc" with
    # TypeError or a bare ValueError; the point rule refuses all four alike
    with pytest.raises(DomainError, match=re.escape(f"z must be a number, got {z!r}")):
        POINT_ENTRIES[entry](z)


@pytest.mark.parametrize("entry", list(POINT_ENTRIES)[:9])
def test_an_integer_beyond_the_double_range_is_an_infinite_point(entry):
    with pytest.raises(DomainError, match=re.escape("|z| must be <= 1, got |z| = inf")):
        POINT_ENTRIES[entry](10 ** 400)


@pytest.mark.parametrize("entry", RADIUS_ENTRIES)
def test_radius_1_is_accepted(entry):
    RADIUS_ENTRIES[entry](1.0)


@pytest.mark.parametrize("r", [0, -0.5, 1.0000000000000002, math.nan])
@pytest.mark.parametrize("entry", RADIUS_ENTRIES)
def test_a_radius_outside_0_to_1_is_refused(entry, r):
    with pytest.raises(REFUSALS, match=r"must lie in \(0, 1\]|must be finite"):
        RADIUS_ENTRIES[entry](r)


@pytest.mark.parametrize("certify", [
    lambda: certify_starlike(SPEC, 1.0),
    lambda: certify_convex(FACTORS, 1.0),
    lambda: certify_ml_starlike(PARAMS, 0.0, 1.0),
    lambda: check_log_deriv_bound(PARAMS, 1.0),
], ids=["starlike", "convex", "ml-starlike", "log-deriv-bound"])
def test_a_certificate_at_radius_1_takes_its_extremum_on_the_unit_circle(certify):
    cert = certify()
    assert cert.verdict == "pass" and cert.reason is None
    assert cert.argmin.radius == 1.0
