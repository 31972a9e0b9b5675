import numpy as np
import pytest

from mlstar import operators
from mlstar.certify import GridSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def small_grid():
    return GridSpec(radii=(0.5, 0.9, 0.999), angles=36)


@pytest.fixture
def identity_product(monkeypatch):
    """Force the factor product to 1 exactly, so F(z) = z for every zeta."""

    def constant(factors, tol, length):
        return np.zeros(length)  # t P'/P = 0

    monkeypatch.setattr(operators, "_log_derivative_coefficients", constant)


def random_disk_points(rng, count, r_max=0.999, r_min=0.0):
    radii = rng.uniform(r_min, r_max, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)
