"""Job documents: parse, validate, run, and serialize reports.

Jobs are plain JSON with explicit keys and decimal numbers, so they are
trivially reproducible and parseable from any language. Unknown keys are
rejected everywhere. A job's grid gives its certificates their radius,
r_max, and gives dump every circle it samples.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass

from . import __version__
from .certify import (
    VERDICT_FAIL,
    VERDICT_HYPOTHESIS,
    VERDICT_PASS,
    _certify,
    _convex_claim,
    _log_deriv_bound_claim,
    _ml_starlike_claim,
    _real,
    _starlike_claim,
)
from .defaults import EVAL_TOLERANCE, GRID_ANGLES, GRID_POINTS_MAX, R_MAX, SERIES_TOL
from .errors import DomainError, JobFileError
from .mittag_leffler import MLParams, _check_radius
from .operators import FactorSpec, OperatorSpec
from .records import _Record

__all__ = ["GridSpec", "Job", "JobOperator", "ReportDocument", "load_job", "job_to_dict", "run_job"]

SCHEMA_VERSION = 1

KIND_STARLIKE = "starlike"
KIND_CONVEX = "convex"
KIND_ML_STARLIKE = "ml-starlike"
KIND_LOG_DERIV_BOUND = "log-deriv-bound"
_KINDS = (KIND_STARLIKE, KIND_CONVEX, KIND_ML_STARLIKE, KIND_LOG_DERIV_BOUND)

_TOP_KEYS = {"schema", "grid", "tolerance", "outputs", "operators"}
_GRID_KEYS = {"radii", "angles", "r_max"}
_TOL_KEYS = {"margin", "quadrature", "series"}
_FACTOR_KEYS = {"alpha", "beta", "lambda", "eta"}
_OP_KEYS_COMMON = {"name", "kind", "predicted"}


def default_radii(r_max: float = R_MAX) -> tuple:
    base = [r for r in (0.25, 0.5, 0.75, 0.9, 0.99) if r < r_max]
    return tuple(base + [r_max])


class GridSpec(_Record):
    """A job's polar grid: ascending radii plus a uniform angle count.

    Every radius lies in (0, 1]; r_max, the outermost, is the radius of the
    job's certificates, and r_max = 1 is the boundary itself. dump samples
    every radius at every angle. r_max alone (default R_MAX) picks
    default_radii, radii alone set r_max; given both, they must agree. A
    grid holds at most GRID_POINTS_MAX points, radii x angles.
    """

    __slots__ = ("radii", "r_max", "angles")

    def __init__(self, radii: tuple = None, r_max: float = None, angles: int = GRID_ANGLES):
        if r_max is not None:
            r_max = _check_radius(_real(r_max, "r_max"), "r_max")
        if radii is None:
            radii = default_radii(R_MAX if r_max is None else r_max)
        else:
            radii = tuple(_check_radius(_real(r, "a radius"), "a radius") for r in radii)
        if not radii:
            raise DomainError("grid needs at least one radius")
        for a, b in zip(radii, radii[1:]):
            if not a < b:
                raise DomainError(f"radii must ascend strictly, got {radii!r}")
        if r_max is not None and r_max != radii[-1]:
            raise DomainError(f"r_max {r_max!r} is not the outermost radius {radii[-1]!r}")
        if isinstance(angles, bool) or not isinstance(angles, numbers.Integral):
            raise DomainError(f"angles must be an integer, got {angles!r}")
        angles = int(angles)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "r_max", radii[-1])
        object.__setattr__(self, "angles", angles)
        if angles < 8:
            raise DomainError(f"angles must be at least 8, got {angles!r}")
        if self.total_points() > GRID_POINTS_MAX:
            raise DomainError(f"a grid holds at most {GRID_POINTS_MAX} points, got "
                              f"{len(radii)} radii x {angles} angles")

    def circle_angles(self) -> list:
        """The angle 2 pi k/angles of each point k of every circle."""
        return [2.0 * math.pi * k / self.angles for k in range(self.angles)]

    def total_points(self) -> int:
        return len(self.radii) * self.angles

    def to_dict(self) -> dict:
        return {"radii": list(self.radii), "r_max": self.r_max, "angles": self.angles}


class JobOperator(_Record):
    """One operator entry: factors for the starlike and convex kinds and zeta for
    starlike only; alpha and beta for the ml kinds and eta for ml-starlike only."""

    __slots__ = ("name", "kind", "factors", "zeta", "alpha", "beta", "eta", "predicted")

    def __init__(self, name: str, kind: str, factors: tuple = (), zeta: float = None,
                 alpha: float = None, beta: float = None, eta: float = None,
                 predicted: float = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "predicted", predicted)

    def operator_spec(self) -> OperatorSpec:
        return OperatorSpec(self.factors, self.zeta)

    def ml_params(self) -> MLParams:
        return MLParams(self.alpha, self.beta)


# a dataclass, because perfbench/worker.py builds one-operator jobs with dataclasses.replace
@dataclass(frozen=True)
class Job:
    operators: tuple
    grid: GridSpec
    margin_tol: float = EVAL_TOLERANCE
    series_tol: float = SERIES_TOL
    outputs: tuple = ("text",)


def _require(condition, message):
    if not condition:
        raise JobFileError(message)


def _number(raw, key, context):
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool),
             f"{context}: key '{key}' must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the double range
        value = math.inf
    _require(math.isfinite(value), f"{context}: key '{key}' must be finite")
    return value


def _check_keys(mapping, allowed, context):
    _require(isinstance(mapping, dict), f"{context}: expected an object")
    unknown = set(mapping) - allowed
    _require(not unknown, f"{context}: unknown keys {sorted(unknown)!r}")


def _parse_factor(raw, context):
    _check_keys(raw, _FACTOR_KEYS, context)
    _require("alpha" in raw and "beta" in raw and "lambda" in raw,
             f"{context}: factors need alpha, beta and lambda")
    try:
        return FactorSpec(
            MLParams(_number(raw["alpha"], "alpha", context),
                     _number(raw["beta"], "beta", context)),
            _number(raw["lambda"], "lambda", context),
            _number(raw.get("eta", 0.0), "eta", context),
        )
    except DomainError as exc:
        raise JobFileError(f"{context}: {exc}") from exc


def _parse_operator(raw, index):
    context = f"operators[{index}]"
    _require(isinstance(raw, dict), f"{context}: expected an object")
    name = raw.get("name")
    _require(isinstance(name, str) and name, f"{context}: needs a nonempty 'name'")
    kind = raw.get("kind")
    _require(kind in _KINDS, f"{context}: 'kind' must be one of {_KINDS}, got {kind!r}")
    predicted = raw.get("predicted")
    if predicted is not None:
        predicted = _number(predicted, "predicted", context)

    if kind in (KIND_STARLIKE, KIND_CONVEX):
        allowed = _OP_KEYS_COMMON | {"factors"}
        if kind == KIND_STARLIKE:
            allowed |= {"zeta"}
        _check_keys(raw, allowed, context)
        raw_factors = raw.get("factors")
        _require(isinstance(raw_factors, list) and raw_factors,
                 f"{context}: needs a nonempty 'factors' list")
        factors = tuple(
            _parse_factor(f, f"{context}.factors[{i}]") for i, f in enumerate(raw_factors)
        )
        zeta = None
        if kind == KIND_STARLIKE:
            _require("zeta" in raw, f"{context}: starlike operators need 'zeta'")
            zeta = _number(raw["zeta"], "zeta", context)
        op = JobOperator(name, kind, factors=factors, zeta=zeta, predicted=predicted)
    else:
        _check_keys(raw, _OP_KEYS_COMMON | {"alpha", "beta", "eta"}, context)
        _require("alpha" in raw and "beta" in raw, f"{context}: needs 'alpha' and 'beta'")
        alpha = _number(raw["alpha"], "alpha", context)
        beta = _number(raw["beta"], "beta", context)
        eta = None
        if kind == KIND_ML_STARLIKE:
            _require("eta" in raw, f"{context}: ml-starlike needs 'eta'")
            eta = _number(raw["eta"], "eta", context)
        else:
            _require("eta" not in raw, f"{context}: log-deriv-bound entries take no 'eta'")
        op = JobOperator(name, kind, alpha=alpha, beta=beta, eta=eta, predicted=predicted)
    try:
        _claim(op)  # checks the prediction's domain, e.g. beta above golden for convex and bound
    except DomainError as exc:
        raise JobFileError(f"{context}: {exc}") from exc
    return op


def parse_job(document: dict) -> Job:
    """Validate a decoded job document; JobFileError on any problem."""
    _check_keys(document, _TOP_KEYS, "job")
    _require(document.get("schema") == SCHEMA_VERSION,
             f"job: 'schema' must equal {SCHEMA_VERSION}")

    grid_raw = document.get("grid", {})
    _check_keys(grid_raw, _GRID_KEYS, "job.grid")
    grid_kwargs = {}
    if "radii" in grid_raw:
        radii = grid_raw["radii"]
        _require(isinstance(radii, list) and radii, "job.grid: 'radii' must be a nonempty list")
        grid_kwargs["radii"] = tuple(_number(r, "radii", "job.grid") for r in radii)
    if "angles" in grid_raw:  # GridSpec refuses a non-integer
        grid_kwargs["angles"] = grid_raw["angles"]
    if "r_max" in grid_raw:
        grid_kwargs["r_max"] = _number(grid_raw["r_max"], "r_max", "job.grid")
    try:
        grid = GridSpec(**grid_kwargs)
    except DomainError as exc:
        raise JobFileError(f"job.grid: {exc}") from exc

    tol_raw = document.get("tolerance", {})
    _check_keys(tol_raw, _TOL_KEYS, "job.tolerance")
    margin_tol = _number(tol_raw.get("margin", EVAL_TOLERANCE), "margin", "job.tolerance")
    series_tol = _number(tol_raw.get("series", SERIES_TOL), "series", "job.tolerance")
    checked = [("margin", margin_tol), ("series", series_tol)]
    if "quadrature" in tol_raw:  # still accepted, so that older jobs run, but unused
        checked.append(("quadrature", _number(tol_raw["quadrature"], "quadrature",
                                              "job.tolerance")))
    for key, value in checked:
        _require(value > 0.0, f"job.tolerance: '{key}' must be positive")
    _require(series_tol <= margin_tol,
             "job.tolerance: 'series' must not exceed 'margin', or the truncation "
             "error could hide a failed margin")

    outputs = document.get("outputs", ["text"])
    _require(isinstance(outputs, list) and outputs, "job: 'outputs' must be a nonempty list")
    for fmt in outputs:
        _require(fmt in ("text", "json"), f"job: unknown output format {fmt!r}")

    raw_ops = document.get("operators", [])
    _require(isinstance(raw_ops, list), "job: 'operators' must be a list")
    operators = tuple(_parse_operator(op, i) for i, op in enumerate(raw_ops))
    names = [op.name for op in operators]
    _require(len(names) == len(set(names)), "job: operator names must be unique")

    return Job(operators, grid, margin_tol, series_tol, tuple(outputs))


def load_job(path) -> Job:
    def reject_constant(name):
        raise JobFileError(f"job file {path!r} holds the non-finite number {name}")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, parse_constant=reject_constant)
    except OSError as exc:
        raise JobFileError(f"cannot read job file {path!r}: {exc}") from exc
    except JobFileError:
        raise
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge integers
        raise JobFileError(f"job file {path!r} is not valid JSON: {exc}") from exc
    return parse_job(document)


def _factor_dict(factor: FactorSpec) -> dict:
    out = {
        "alpha": factor.params.alpha,
        "beta": factor.params.beta,
        "lambda": factor.lam,
    }
    if factor.eta != 0.0:
        out["eta"] = factor.eta
    return out


def operator_to_dict(op: JobOperator) -> dict:
    """Canonical round-trippable form of one job operator."""
    entry = {"name": op.name, "kind": op.kind}
    if op.kind in (KIND_STARLIKE, KIND_CONVEX):
        entry["factors"] = [_factor_dict(f) for f in op.factors]
        if op.kind == KIND_STARLIKE:
            entry["zeta"] = op.zeta
    else:
        entry["alpha"] = op.alpha
        entry["beta"] = op.beta
        if op.kind == KIND_ML_STARLIKE:
            entry["eta"] = op.eta
    if op.predicted is not None:
        entry["predicted"] = op.predicted
    return entry


def job_to_dict(job: Job) -> dict:
    """Canonical round-trippable form of a job."""
    return {
        "schema": SCHEMA_VERSION,
        "grid": job.grid.to_dict(),
        "tolerance": {
            "margin": job.margin_tol,
            "series": job.series_tol,
        },
        "outputs": list(job.outputs),
        "operators": [operator_to_dict(op) for op in job.operators],
    }


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def job_digest(document: dict) -> str:
    import hashlib  # here, so that only dump's processes load it

    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()[:12]


def _claim(op: JobOperator):
    """What op certifies: the one map from a job kind to a certificate kind."""
    if op.kind == KIND_STARLIKE:
        return _starlike_claim(op.operator_spec())
    if op.kind == KIND_CONVEX:
        return _convex_claim(op.factors)
    if op.kind == KIND_ML_STARLIKE:
        return _ml_starlike_claim(op.ml_params(), op.eta)
    return _log_deriv_bound_claim(op.ml_params())


class ReportDocument(_Record):
    """Tool metadata, the job echo, certificates, timings, and a verdict."""

    __slots__ = ("job", "names", "certificates", "timings")
    __hash__ = None  # its lists grow as run_job certifies

    def __init__(self, job: Job, names: list = None, certificates: list = None,
                 timings: list = None):
        object.__setattr__(self, "job", job)
        object.__setattr__(self, "names", [] if names is None else names)
        object.__setattr__(self, "certificates", [] if certificates is None else certificates)
        object.__setattr__(self, "timings", [] if timings is None else timings)

    @property
    def summary_verdict(self) -> str:
        verdicts = [c.verdict for c in self.certificates]
        if any(v == VERDICT_FAIL for v in verdicts):
            return VERDICT_FAIL
        if any(v == VERDICT_HYPOTHESIS for v in verdicts):
            return VERDICT_HYPOTHESIS
        return VERDICT_PASS

    def to_dict(self, include_timings: bool = True) -> dict:
        """The report; each certificate entry also echoes the job's grid and,
        in failed_points, the reason a table was not summed and a count: 0
        with a cut, the grid's angle count without one."""
        grid = self.job.grid
        out = {
            "schema": SCHEMA_VERSION,
            "tool": {"name": "mlstar", "version": __version__},
            "job": job_to_dict(self.job),
            "certificates": [
                {"name": name, **cert.to_dict(), "grid": grid.to_dict(),
                 "failed_points": {"count": 0 if cert.reason is None else grid.angles,
                                   "reason": cert.reason}}
                for name, cert in zip(self.names, self.certificates)
            ],
            "summary": {"verdict": self.summary_verdict},
        }
        if include_timings:
            out["timings"] = [
                {"name": name, "seconds": seconds}
                for name, seconds in zip(self.names, self.timings)
            ]
        return out


def run_job(job: Job) -> ReportDocument:
    """Certify every operator in the job, in order.

    A table without a cut on r_max fails its certificate whole, with the
    reason in the certificate, and the other certificates still run; any
    other error propagates.
    """
    report = ReportDocument(job)
    for op in job.operators:
        start = time.perf_counter()
        certificate = _certify(_claim(op), job.grid.r_max, job.margin_tol, job.series_tol,
                               op.predicted)
        report.names.append(op.name)
        report.certificates.append(certificate)
        report.timings.append(time.perf_counter() - start)
    return report

