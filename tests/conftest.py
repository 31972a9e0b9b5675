import numpy as np
import pytest

from mlstar import operators
from mlstar.certify import _circle, _claim
from mlstar.errors import SeriesTruncationError
from mlstar.jobs import GridSpec
from mlstar.operators import FactorSpec, OperatorSpec, _operator_cut

from oracles import horner


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def small_grid():
    return GridSpec(radii=(0.5, 0.9, 0.999), angles=36)


@pytest.fixture
def identity_product(monkeypatch):
    """Force the factor product to 1 exactly, so F(z) = z for every zeta."""

    def constant(factors, tol, length, solved=None):
        return [0.0] * length  # t P'/P = 0

    monkeypatch.setattr(operators, "_log_derivative_coefficients", constant)


def dump_circles(radii, m, terms):
    """The circles of m points that dump sums from the terms of a cut on the outermost
    radius: each circle's half by Horner from its own terms, mirrored."""
    return [_circle(terms, r, m) for r in radii]


def random_disk_points(rng, count, r_max=0.999, r_min=0.0):
    radii = rng.uniform(r_min, r_max, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


def table_deviation(table, z, tol=1e-14):
    """The table's Horner sum at the points z, cut for max |z|: the quantity
    minus 1, or log(F/z). Raises SeriesTruncationError, as the package's
    single-point sum does, when the table has no cut there."""
    z = np.asarray(z, dtype=complex)
    radius = float(np.max(np.abs(z)))
    n, _ = _operator_cut(table, radius, tol)
    if not n:
        raise SeriesTruncationError(f"no cut at |z| = {radius:g}")
    return horner(table[:n], z)


def ml_table_deviation(params, z, tol=1e-14):
    """z E'/E - 1 at the points z as the Mittag-Leffler certificates sum it:
    from the terms of their table, sized for max |z|, or SeriesTruncationError with
    the reason that it has no cut there."""
    z = np.asarray(z, dtype=complex)
    claim = _claim("ml-starlike", OperatorSpec((FactorSpec(params, 1.0),), 1.0))
    terms, _, reason = claim.table(float(np.max(np.abs(z))), tol)
    if reason is not None:
        raise SeriesTruncationError(reason)
    return horner(terms, z)
