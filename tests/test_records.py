"""The value records behave as the frozen dataclasses they replaced.

Each record compares and hashes field by field, equals no record of another
class and no tuple, refuses assignment and deletion, takes its fields by
position or keyword with the same defaults, and prints the dataclass repr.
"""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import pytest

import mlstar
from mlstar import (
    Certificate,
    ConvexOrderReport,
    DomainError,
    EvalPoint,
    FactorSpec,
    GridSpec,
    MLParams,
    OperatorSpec,
    SeriesResult,
    StarlikeOrderReport,
)
from mlstar.jobs import Job, JobOperator, ReportDocument, _DataclassFields

P = MLParams(2.0, 4.0)
F = FactorSpec(P, 1.0)
POINT = EvalPoint(-0.5 + 0j, 0.5, math.pi)
GRID = GridSpec(radii=(0.5,), angles=8)
JOB = Job((), GRID)
OP = JobOperator("ml", "ml-starlike", alpha=2.0, beta=4.0, eta=0.0)

# (class, every field by keyword in positional order, one field changed, repr)
RECORDS = [
    (MLParams, dict(alpha=2.0, beta=4.0), dict(beta=5.0),
     "MLParams(alpha=2.0, beta=4.0)"),
    (SeriesResult, dict(value=0.5 + 0.25j, terms_used=7, tail_bound=1e-16), dict(terms_used=8),
     "SeriesResult(value=(0.5+0.25j), terms_used=7, tail_bound=1e-16)"),
    (FactorSpec, dict(params=P, lam=2.0, eta=0.25), dict(lam=3.0),
     "FactorSpec(params=MLParams(alpha=2.0, beta=4.0), lam=2.0, eta=0.25)"),
    (OperatorSpec, dict(factors=(F,), zeta=1.0), dict(zeta=2.0),
     "OperatorSpec(factors=(FactorSpec(params=MLParams(alpha=2.0, beta=4.0), lam=1.0, "
     "eta=0.0),), zeta=1.0)"),
    (EvalPoint, dict(z=-0.5 + 0j, radius=0.5, angle=math.pi), dict(angle=3.0),
     "EvalPoint(z=(-0.5+0j), radius=0.5, angle=3.141592653589793)"),
    (StarlikeOrderReport, dict(delta=0.5, hypothesis_sum=0.75, zeta=1.0, hypothesis_ok=True),
     dict(hypothesis_ok=False),
     "StarlikeOrderReport(delta=0.5, hypothesis_sum=0.75, zeta=1.0, hypothesis_ok=True)"),
    (ConvexOrderReport, dict(delta=0.5, beta_min=4.0, bound_sum=0.5, hypothesis_ok=True),
     dict(delta=0.25),
     "ConvexOrderReport(delta=0.5, beta_min=4.0, bound_sum=0.5, hypothesis_ok=True)"),
    (Certificate, dict(quantity="starlike-ml", predicted=0.0, observed=0.95, argmin=POINT,
                       margin=0.95, eval_tolerance=1e-6, verdict="pass", hypothesis_ok=True,
                       reason=None, series_tol=1e-14,
                       semantics="bisected-min certificate on |z| = r_max"),
     dict(verdict="fail"),
     "Certificate(quantity='starlike-ml', predicted=0.0, observed=0.95, "
     "argmin=EvalPoint(z=(-0.5+0j), radius=0.5, angle=3.141592653589793), margin=0.95, "
     "eval_tolerance=1e-06, verdict='pass', hypothesis_ok=True, reason=None, "
     "series_tol=1e-14, semantics='bisected-min certificate on |z| = r_max')"),
    (GridSpec, dict(radii=(0.5, 0.9), r_max=0.9, angles=16), dict(angles=32),
     "GridSpec(radii=(0.5, 0.9), r_max=0.9, angles=16)"),
    (JobOperator, dict(name="ml", kind="ml-starlike", factors=(), zeta=None, alpha=2.0,
                       beta=4.0, eta=0.0, predicted=None), dict(predicted=0.5),
     "JobOperator(name='ml', kind='ml-starlike', factors=(), zeta=None, alpha=2.0, "
     "beta=4.0, eta=0.0, predicted=None)"),
    (Job, dict(operators=(OP,), grid=GRID, margin_tol=1e-6, series_tol=1e-14,
               outputs=("text",)), dict(outputs=("json",)),
     "Job(operators=(JobOperator(name='ml', kind='ml-starlike', factors=(), zeta=None, "
     "alpha=2.0, beta=4.0, eta=0.0, predicted=None),), grid=GridSpec(radii=(0.5,), "
     "r_max=0.5, angles=8), margin_tol=1e-06, series_tol=1e-14, outputs=('text',))"),
    (ReportDocument, dict(job=JOB, names=["a"], certificates=[None], timings=[0.5]),
     dict(timings=[0.25]),
     "ReportDocument(job=Job(operators=(), grid=GridSpec(radii=(0.5,), r_max=0.5, angles=8), "
     "margin_tol=1e-06, series_tol=1e-14, outputs=('text',)), names=['a'], "
     "certificates=[None], timings=[0.5])"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_fields(self, cls, fields, changed, text):
        record = cls(**fields)
        assert cls(*fields.values()) == record
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equal_fields_give_equal_records_and_hashes(self, cls, fields, changed, text):
        one, two = cls(**fields), cls(**fields)
        assert one == two and not one != two
        if cls is ReportDocument:  # unhashable, as the mutable dataclass was
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(two)
        assert one != cls(**{**fields, **changed})

    def test_no_tuple_is_equal(self, cls, fields, changed, text):
        record = cls(**fields)
        assert record != tuple(fields.values())
        assert tuple(fields.values()) != record

    def test_assignment_and_deletion_raise(self, cls, fields, changed, text):
        record = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert cls(**fields) == record

    def test_repr_is_the_dataclass_repr(self, cls, fields, changed, text):
        assert repr(cls(**fields)) == text

    def test_signature_lists_the_fields_in_order(self, cls, fields, changed, text):
        assert list(inspect.signature(cls).parameters) == list(fields) == list(cls.__slots__)

    def test_copies_and_pickles_are_equal(self, cls, fields, changed, text):
        record = cls(**fields)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record


def test_records_of_different_classes_are_never_equal():
    records = [cls(**fields) for cls, fields, *_ in RECORDS]
    # the two order reports hold equal values in equal order
    records += [StarlikeOrderReport(0.5, 0.5, 1.0, True), ConvexOrderReport(0.5, 0.5, 1.0, True)]
    for i, one in enumerate(records):
        for two in records[i + 1:]:
            if type(one) is not type(two):
                assert one != two and not one == two


@pytest.mark.parametrize("build, defaults", [
    (lambda: FactorSpec(P, 1.0), dict(eta=0.0)),
    (lambda: Certificate("q", 0.1, 0.2, POINT, 0.1, 1e-6, "pass", True),
     dict(reason=None, series_tol=1e-14, semantics="endpoint-min certificate on |z| = r_max")),
    (lambda: GridSpec(), dict(radii=(0.25, 0.5, 0.75, 0.9, 0.99, 0.999), r_max=0.999,
                              angles=720)),
    (lambda: GridSpec(r_max=0.8), dict(radii=(0.25, 0.5, 0.75, 0.8), r_max=0.8)),
    (lambda: JobOperator("s", "starlike"), dict(factors=(), zeta=None, alpha=None, beta=None,
                                                eta=None, predicted=None)),
    (lambda: Job((), GRID), dict(margin_tol=1e-6, series_tol=1e-14, outputs=("text",))),
    (lambda: ReportDocument(JOB), dict(names=[], certificates=[], timings=[])),
], ids=["FactorSpec", "Certificate", "GridSpec", "GridSpec-r_max", "JobOperator", "Job",
        "ReportDocument"])
def test_defaults(build, defaults):
    record = build()
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_each_report_gets_lists_of_its_own():
    one, two = ReportDocument(JOB), ReportDocument(JOB)
    one.names.append("a")
    assert two.names == []


def test_records_match_by_position():
    match FactorSpec(P, 2.0):
        case FactorSpec(MLParams(alpha, beta), lam):
            assert (alpha, beta, lam) == (2.0, 4.0, 2.0)
        case _:
            pytest.fail("FactorSpec did not match by position")


@pytest.mark.parametrize("build", [
    lambda: MLParams(0.5, 1.0),
    lambda: MLParams(math.inf, 1.0),
    lambda: MLParams(math.nan, 1.0),
    lambda: MLParams(1.0, 0.0),
    lambda: MLParams(1.0, math.inf),
    lambda: MLParams(1.0, math.nan),
    lambda: MLParams(1.0, 1e-310),
    lambda: FactorSpec(P, 0.0),
    lambda: FactorSpec(P, math.inf),
    lambda: FactorSpec(P, 1.0, 1.0),
    lambda: FactorSpec(P, 1.0, -0.25),
    lambda: OperatorSpec((), 1.0),
    lambda: OperatorSpec((P,), 1.0),
    lambda: OperatorSpec((F,), 0.0),
    lambda: OperatorSpec((F,), math.nan),
    lambda: GridSpec(r_max=1.0000000000000002),
    lambda: GridSpec(r_max="0.5"),
    lambda: GridSpec(radii=()),
    lambda: GridSpec(radii=(0.5, 0.5)),
    lambda: GridSpec(radii=(0.5, 1.0000000000000002)),
    lambda: GridSpec(radii=("0.5",)),
    lambda: GridSpec(radii=(0.5,), r_max=0.9),
    lambda: GridSpec(angles=7),
    lambda: GridSpec(angles=8.0),
    lambda: GridSpec(angles=True),
    lambda: GridSpec(angles=1 << 20),
])
def test_each_check_still_refuses(build):
    with pytest.raises(DomainError):
        build()


def test_operator_spec_keeps_its_factors_as_a_tuple():
    assert OperatorSpec([F], 1.0).factors == (F,)


def test_job_alone_is_a_dataclass():
    # perfbench/worker.py and cli._apply_overrides build jobs with dataclasses.replace
    modules = [importlib.import_module(f"mlstar.{info.name}")
               for info in pkgutil.iter_modules(mlstar.__path__)]
    classes = {obj for module in modules for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__}
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == {"Job"}
    assert {cls.__name__ for cls, *_ in RECORDS} <= {cls.__name__ for cls in classes}


def test_dataclasses_functions_accept_a_job(monkeypatch):
    # a fresh descriptor, as in a process where no dataclasses function has asked yet
    monkeypatch.setattr(Job, "__dataclass_fields__", _DataclassFields())
    job = Job((OP,), GRID, 1e-5, 1e-12, ("json",))
    assert dataclasses.is_dataclass(job) and dataclasses.is_dataclass(Job)
    cached = vars(Job)["__dataclass_fields__"]
    assert type(cached) is dict and list(cached) == list(Job.__slots__)
    assert [f.name for f in dataclasses.fields(job)] == list(Job.__slots__)
    assert dataclasses.fields(Job) == dataclasses.fields(job)
    assert vars(Job)["__dataclass_fields__"] is cached  # built once, then read from the class
    other = dataclasses.replace(job, operators=(), series_tol=1e-14)
    assert type(other) is Job and other == Job((), GRID, 1e-5, 1e-14, ("json",))
    assert dataclasses.asdict(job) == dict(operators=(OP,), grid=GRID, margin_tol=1e-5,
                                           series_tol=1e-12, outputs=("json",))
    with pytest.raises(TypeError):
        dataclasses.replace(job, extra=1)
