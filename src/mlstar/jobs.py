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

from . import __version__
from .certify import (_KINDS, KIND_CONVEX, KIND_LOG_DERIV_BOUND, KIND_ML_STARLIKE, KIND_STARLIKE,
                      VERDICT_FAIL, VERDICT_HYPOTHESIS, VERDICT_PASS, _certify, _check_predicted,
                      _check_tolerances, _claim)
from .defaults import EVAL_TOLERANCE, GRID_ANGLES, GRID_POINTS_MAX, R_MAX, SERIES_TOL
from .errors import DomainError, JobFileError
from .mittag_leffler import MLParams, _check_radius
from .operators import FactorSpec, OperatorSpec
from .records import _Record

__all__ = ["GridSpec", "Job", "JobOperator", "ReportDocument", "load_job", "job_to_dict", "run_job"]

SCHEMA_VERSION = 1

_TOP_KEYS = frozenset({"schema", "grid", "tolerance", "outputs", "operators"})
_GRID_KEYS = frozenset({"radii", "angles", "r_max"})  # GridSpec's parameters
_TOL_KEYS = frozenset({"margin", "series"})
_FACTOR_KEYS = frozenset({"alpha", "beta", "lambda", "eta"})
_OP_KEYS_COMMON = frozenset({"name", "kind", "predicted"})
_OP_KEYS = {  # a log-deriv-bound entry may name eta, only to be told it takes none
    KIND_STARLIKE: _OP_KEYS_COMMON | {"factors", "zeta"},
    KIND_CONVEX: _OP_KEYS_COMMON | {"factors"},
    KIND_ML_STARLIKE: _OP_KEYS_COMMON | {"alpha", "beta", "eta"},
    KIND_LOG_DERIV_BOUND: _OP_KEYS_COMMON | {"alpha", "beta", "eta"},
}


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
            r_max = _check_radius(r_max, "r_max")
        if radii is None:
            radii = default_radii(R_MAX if r_max is None else r_max)
        else:
            radii = tuple(_check_radius(r, "a radius") for r in radii)
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
    """One operator entry: its name, its kind and, for every kind, an OperatorSpec.
    The name is a nonempty printable string without a space: a control
    character or a space would split a text report row or dump's header line.
    It builds its claim by certify._claim(kind, spec), as the public
    certificate function of its kind does, so a bad name or predicted, a spec
    that is not an OperatorSpec, an unknown kind, a spec of another form or a
    prediction outside its domain raises DomainError."""

    __slots__ = ("name", "kind", "spec", "predicted")

    def __init__(self, name: str, kind: str, spec: OperatorSpec, predicted: float = None):
        if not (isinstance(name, str) and name):
            raise DomainError("needs a nonempty 'name'")
        if not name.isprintable():  # the space is the one whitespace isprintable() lets through
            raise DomainError(f"'name' must be printable, got {name!r}")
        if " " in name:
            raise DomainError(f"'name' must not contain a space, got {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "predicted", _check_predicted(predicted))
        _claim(kind, spec)


class _DataclassFields:
    """Job's __dataclass_fields__, built on first access and then cached on the class.

    dataclasses.replace, fields, asdict and is_dataclass read only this
    attribute, so they accept a Job; perfbench/worker.py and
    cli._apply_overrides build jobs with replace. Until one of them asks, no
    process imports dataclasses.
    """

    def __get__(self, instance, owner):
        import dataclasses

        fields = dataclasses.make_dataclass(owner.__name__, owner.__slots__).__dataclass_fields__
        owner.__dataclass_fields__ = fields  # replaces this descriptor
        return fields


class Job(_Record):
    """A parsed job: its JobOperators, uniquely named, its grid, its tolerances and its
    nonempty outputs, each "text" or "json"; checked when built, in copies too."""

    __slots__ = ("operators", "grid", "margin_tol", "series_tol", "outputs")
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, operators: tuple, grid: GridSpec, margin_tol: float = EVAL_TOLERANCE,
                 series_tol: float = SERIES_TOL, outputs: tuple = ("text",)):
        operators, outputs = tuple(operators), tuple(outputs)
        for op in operators:
            if not isinstance(op, JobOperator):
                raise DomainError(f"not a JobOperator: {op!r}")
        if len({op.name for op in operators}) != len(operators):
            raise DomainError("operator names must be unique")
        if not outputs:
            raise DomainError("'outputs' must be a nonempty list")
        for fmt in outputs:
            if fmt not in ("text", "json"):
                raise DomainError(f"unknown output format {fmt!r}")
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "grid", grid)
        series_tol, margin_tol = _check_tolerances(series_tol, margin_tol)
        object.__setattr__(self, "margin_tol", margin_tol)
        object.__setattr__(self, "series_tol", series_tol)
        object.__setattr__(self, "outputs", outputs)


def _require(condition, message, *args):
    """JobFileError(message % args) unless condition; valid input formats no message."""
    if not condition:
        raise JobFileError(message % args)


def _check_keys(mapping, allowed, context):
    _require(isinstance(mapping, dict), "%s: expected an object", context)
    if not mapping.keys() <= allowed:
        raise JobFileError(f"{context}: unknown keys {sorted(mapping.keys() - allowed)!r}")


def _parse_factor(raw, context):
    _check_keys(raw, _FACTOR_KEYS, context)
    _require("alpha" in raw and "beta" in raw and "lambda" in raw,
             "%s: factors need alpha, beta and lambda", context)
    try:
        return FactorSpec(MLParams(raw["alpha"], raw["beta"]), raw["lambda"], raw.get("eta", 0.0))
    except DomainError as exc:
        raise JobFileError(f"{context}: {exc}") from exc


def _parse_operator(raw, index):
    context = f"operators[{index}]"
    _require(isinstance(raw, dict), "%s: expected an object", context)
    kind = raw.get("kind")
    _require(kind in _KINDS, "%s: 'kind' must be one of %s, got %r", context, _KINDS, kind)
    _check_keys(raw, _OP_KEYS[kind], context)

    zeta = 1.0
    try:  # _parse_factor and _require raise JobFileError with their own context
        if kind in (KIND_STARLIKE, KIND_CONVEX):
            raw_factors = raw.get("factors")
            _require(isinstance(raw_factors, list) and raw_factors,
                     "%s: needs a nonempty 'factors' list", context)
            factors = tuple(
                _parse_factor(f, f"{context}.factors[{i}]") for i, f in enumerate(raw_factors)
            )
            if kind == KIND_STARLIKE:
                _require("zeta" in raw, "%s: starlike operators need 'zeta'", context)
                zeta = raw["zeta"]
        else:
            _require("alpha" in raw and "beta" in raw, "%s: needs 'alpha' and 'beta'", context)
            eta = 0.0
            if kind == KIND_ML_STARLIKE:
                _require("eta" in raw, "%s: ml-starlike needs 'eta'", context)
                eta = raw["eta"]
            else:
                _require("eta" not in raw, "%s: log-deriv-bound entries take no 'eta'", context)
            factors = (FactorSpec(MLParams(raw["alpha"], raw["beta"]), 1.0, eta),)
        return JobOperator(raw.get("name"), kind, OperatorSpec(factors, zeta), raw.get("predicted"))
    except DomainError as exc:
        raise JobFileError(f"{context}: {exc}") from exc


def parse_job(document: dict) -> Job:
    """Check a decoded job document's structure and build its records, which check its
    values; JobFileError, with the context of the entry, on any problem."""
    _check_keys(document, _TOP_KEYS, "job")
    schema = document.get("schema")  # True == 1, but a bool is no schema number
    _require(schema == SCHEMA_VERSION and not isinstance(schema, bool),
             "job: 'schema' must equal %d", SCHEMA_VERSION)

    grid_raw = document.get("grid", {})
    _check_keys(grid_raw, _GRID_KEYS, "job.grid")
    if "radii" in grid_raw:
        radii = grid_raw["radii"]
        _require(isinstance(radii, list) and radii, "job.grid: 'radii' must be a nonempty list")
    try:
        grid = GridSpec(**grid_raw)
    except DomainError as exc:
        raise JobFileError(f"job.grid: {exc}") from exc

    tol_raw = document.get("tolerance", {})
    _check_keys(tol_raw, _TOL_KEYS, "job.tolerance")
    try:
        series_tol, margin_tol = _check_tolerances(
            tol_raw.get("series", SERIES_TOL), tol_raw.get("margin", EVAL_TOLERANCE),
            ("'series'", "'margin'"))
    except DomainError as exc:
        raise JobFileError(f"job.tolerance: {exc}") from exc

    outputs = document.get("outputs", ["text"])
    _require(isinstance(outputs, list), "job: 'outputs' must be a nonempty list")
    raw_ops = document.get("operators", [])
    _require(isinstance(raw_ops, list), "job: 'operators' must be a list")
    operators = [_parse_operator(op, i) for i, op in enumerate(raw_ops)]
    try:
        return Job(operators, grid, margin_tol, series_tol, outputs)
    except DomainError as exc:
        raise JobFileError(f"job: {exc}") from exc


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
        entry["factors"] = [_factor_dict(f) for f in op.spec.factors]
        if op.kind == KIND_STARLIKE:
            entry["zeta"] = op.spec.zeta
    else:
        factor, = op.spec.factors
        entry["alpha"] = factor.params.alpha
        entry["beta"] = factor.params.beta
        if op.kind == KIND_ML_STARLIKE:
            entry["eta"] = factor.eta
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


def job_digest(op: JobOperator, grid: GridSpec) -> str:
    import hashlib  # here, so that only dump's processes load it

    document = {"operator": operator_to_dict(op), "grid": grid.to_dict()}
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()[:12]


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
        certificate = _certify(_claim(op.kind, op.spec), job.grid.r_max, job.margin_tol,
                               job.series_tol, op.predicted)
        report.names.append(op.name)
        report.certificates.append(certificate)
        report.timings.append(time.perf_counter() - start)
    return report

