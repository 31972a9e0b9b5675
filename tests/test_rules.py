"""Each parameter rule is one function, and every entry point that takes the
parameter refuses the same values with the same message.

- tolerances: mittag_leffler._check_tol (finite and > 0) and
  certify._check_tolerances (and series <= margin);
- factor lists: operators._check_factors (nonempty, every item a FactorSpec);
- eta: operators._check_eta (0 <= eta < 1).
"""

import json
import math
import re
from pathlib import Path

import pytest

from mlstar import (
    FactorSpec,
    MLParams,
    OperatorSpec,
    certify_convex,
    certify_ml_starlike,
    certify_starlike,
    check_log_deriv_bound,
    convex_delta,
    convex_log_deriv,
    f_conv_value,
    f_value,
    f_zeta_power,
    log_deriv,
    ml_norm,
    ml_norm_deriv,
    ml_raw,
    psi,
    star_log_deriv,
)
from mlstar.errors import DomainError, JobFileError
from mlstar.jobs import parse_job

from cli_runner import invoke

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlstar"

PARAMS = MLParams(2, 4)
FACTORS = (FactorSpec(PARAMS, 1.0),)
CONVEX_FACTORS = (FactorSpec(MLParams(2, 2), 5.0),)
SPEC = OperatorSpec(FACTORS, 1.0)
JOB = {"schema": 1, "grid": {"radii": [0.999], "angles": 8}, "operators": [
    {"name": "star-24", "kind": "starlike", "zeta": 1.0,
     "factors": [{"alpha": 2, "beta": 4, "lambda": 1}]}]}

SERIES, MARGIN = 1e-14, 1e-6  # accepted everywhere


class Exit2(Exception):
    """The CLI ended in exit 2, bad usage; the message is its output."""


def _cli(*argv):
    result = invoke(list(argv))
    if result.exit_code == 2:
        raise Exit2(result.output)
    assert result.exit_code == 0, result.output


def _text(value):
    """A value as --tol reads it: the CLI takes text, so "1e-6" is a number there."""
    return value if isinstance(value, str) else repr(value)


# name -> (run(series, margin, job_path), whether it takes a margin)
TOLERANCE_ENTRIES = {
    "certify_starlike": (lambda s, m, _: certify_starlike(
        SPEC, series_tol=s, eval_tolerance=m), True),
    "certify_convex": (lambda s, m, _: certify_convex(
        CONVEX_FACTORS, series_tol=s, eval_tolerance=m), True),
    "certify_ml_starlike": (lambda s, m, _: certify_ml_starlike(
        PARAMS, 0.0, series_tol=s, eval_tolerance=m), True),
    "check_log_deriv_bound": (lambda s, m, _: check_log_deriv_bound(
        PARAMS, series_tol=s, eval_tolerance=m), True),
    "job": (lambda s, m, _: parse_job(dict(JOB, tolerance={"series": s, "margin": m})), True),
    "--tol certify": (lambda s, m, path: _cli("--tol", _text(s), "certify", path), False),
    "--tol dump": (lambda s, m, path: _cli("--tol", _text(s), "--grid-angles", "8", "dump",
                                           "--job", path, "--operator", "star-24"), False),
    "--tol eval": (lambda s, m, path: _cli("--tol", _text(s), "eval", "--alpha", "2",
                                           "--beta", "4", "--z", "0.5"), False),
    "ml_raw": (lambda s, m, _: ml_raw(PARAMS, 0.5, tol=s), False),
    "ml_norm": (lambda s, m, _: ml_norm(PARAMS, 0.5, tol=s), False),
    "ml_norm_deriv": (lambda s, m, _: ml_norm_deriv(PARAMS, 0.5, tol=s), False),
    "log_deriv": (lambda s, m, _: log_deriv(PARAMS, 0.5, tol=s), False),
    "f_zeta_power": (lambda s, m, _: f_zeta_power(SPEC, 0.5, tol=s), False),
    "f_value": (lambda s, m, _: f_value(SPEC, 0.5, tol=s), False),
    "star_log_deriv": (lambda s, m, _: star_log_deriv(SPEC, 0.5, tol=s), False),
    "f_conv_value": (lambda s, m, _: f_conv_value(FACTORS, 0.5, tol=s), False),
    "convex_log_deriv": (lambda s, m, _: convex_log_deriv(FACTORS, 0.5, tol=s), False),
}
# the --tol of certify and dump meets the job's margin, 1e-6, in _check_tolerances
ORDERED = [name for name, (_, margin) in TOLERANCE_ENTRIES.items()
           if margin or name in ("--tol certify", "--tol dump")]

BAD = {  # value -> what its refusal says after the parameter's name
    0.0: "must be finite and > 0, got 0.0",
    -1.0: "must be finite and > 0, got -1.0",
    math.nan: "must be finite and > 0, got nan",
    math.inf: "must be finite and > 0, got inf",
    "1e-6": "must be a number, got '1e-6'",
    True: "must be a number, got True",
}
ABOVE = 0.05  # a series tolerance above the margin, 1e-6
ORDER = ("series tolerance 0.05 exceeds the margin tolerance 1e-06: the truncation error "
         "could hide a failed margin")
POINT_FUNCTIONS = [name for name, (_, margin) in TOLERANCE_ENTRIES.items()
                   if not margin and not name.startswith("--tol")]


def _refusal(name, slot, value):
    """What entry `name` says when it refuses `value` as its `slot` tolerance, or None
    where it accepts the value."""
    if name.startswith("--tol"):
        if value == "1e-6":
            return None
        if value is True:  # argparse's own refusal of text that is not a number
            return "argument --tol: invalid _tolerance value: 'True'"
        return f"argument --tol: the series tolerance {BAD[value]}"
    if name == "job":
        if value in ("1e-6", True):  # the parser's JSON type check, as for every number
            return f"job.tolerance: key '{slot}' {BAD[value]}"
        if not math.isfinite(value):  # its finiteness check
            return f"job.tolerance: key '{slot}' must be finite"
        return f"job.tolerance: '{slot}' {BAD[value]}"
    if name in POINT_FUNCTIONS:
        return f"tol {BAD[value]}"
    return f"{'series_tol' if slot == 'series' else 'eval_tolerance'} {BAD[value]}"


def _cases():
    """(entry, series, margin, refusal): refusal is None where the entry accepts the pair."""
    for name, (_, margin) in TOLERANCE_ENTRIES.items():
        yield pytest.param(name, SERIES, MARGIN, None, id=f"{name}-accepts")
        # eval and the point functions meet no margin: they take any tolerance > 0
        yield pytest.param(name, ABOVE, MARGIN, ORDER if name in ORDERED else None,
                           id=f"{name}-series-above-margin")
        for value in BAD:
            yield pytest.param(name, value, MARGIN, _refusal(name, "series", value),
                               id=f"{name}-series-{value!r}")
            if margin:
                yield pytest.param(name, SERIES, value, _refusal(name, "margin", value),
                                   id=f"{name}-margin-{value!r}")


@pytest.mark.parametrize("name, series, margin, refusal", _cases())
def test_the_tolerance_rule_at_every_entry(tmp_path, name, series, margin, refusal):
    run, _ = TOLERANCE_ENTRIES[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(JOB))
    if refusal is None:
        run(series, margin, str(path))
        return
    with pytest.raises((DomainError, JobFileError, Exit2), match=re.escape(refusal)):
        run(series, margin, str(path))


FACTOR_ENTRIES = {
    "certify_convex": certify_convex,
    "convex_delta": convex_delta,
    "convex_log_deriv": lambda factors: convex_log_deriv(factors, 0.5),
    "f_conv_value": lambda factors: f_conv_value(factors, 0.5),
    "OperatorSpec": lambda factors: OperatorSpec(factors, 1.0),
}


@pytest.mark.parametrize("factors, message", [
    ([], "an operator needs at least one factor"),
    ([1], "not a FactorSpec: 1"),
    ([CONVEX_FACTORS[0], "f"], "not a FactorSpec: 'f'"),
], ids=["empty", "int", "str"])
@pytest.mark.parametrize("entry", FACTOR_ENTRIES.values(), ids=FACTOR_ENTRIES.keys())
def test_the_factor_list_rule_at_every_entry(entry, factors, message):
    entry(list(CONVEX_FACTORS))
    with pytest.raises(DomainError, match=re.escape(message)):
        entry(factors)


ETA_ENTRIES = {
    "FactorSpec": lambda eta: FactorSpec(PARAMS, 1.0, eta),
    "psi": psi,
    "certify_ml_starlike": lambda eta: certify_ml_starlike(MLParams(2, 20), eta),
}


@pytest.mark.parametrize("eta", [-0.1, 1, 1.0, math.nan])
@pytest.mark.parametrize("entry", ETA_ENTRIES.values(), ids=ETA_ENTRIES.keys())
def test_the_eta_rule_at_every_entry(entry, eta):
    entry(0.5)
    with pytest.raises(DomainError, match=r"eta must lie in \[0, 1\), got "):
        entry(eta)


@pytest.mark.parametrize("rule, text", [
    ("_check_tol", '"{name} must be finite and > 0'),
    ("_check_tolerances", "exceeds the margin tolerance"),
    ("_check_factors", "an operator needs at least one factor"),
    ("_check_factors", "not a FactorSpec"),
    ("_check_eta", "eta must lie in [0, 1)"),
])
def test_each_rule_is_written_once(rule, text):
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    holding = [name for name, source in sources.items() if text in source]
    assert len(holding) == 1 and sum(s.count(text) for s in sources.values()) == 1
    assert f"def {rule}(" in sources[holding[0]]
