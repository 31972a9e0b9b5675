import ast
import cmath
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlstar import DomainError, MLParams, principal_power
from mlstar.mittag_leffler import _coefficients
from mlstar.numerics import gamma_ratio, series_solve
from mlstar.operators import _operator_cut

from oracles import fixed_panel_integral

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlstar"


def _imports(module):
    """The modules that the package module imports: '.name' for one of the package's."""
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "__init__")


MODULES = ["numerics", "operators",
           *sorted({path.stem for path in PACKAGE.glob("*.py")} - {"numerics", "operators"})]


@pytest.mark.parametrize("module", MODULES)
def test_the_coefficient_engine_imports_no_numpy(module):
    # every module, the tables, the circle sums and the CLI, runs on the standard library
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        seen.add(name)
        for imported in _imports(name):
            assert imported.split(".")[0] != "numpy", f"{name} imports {imported}"
            if imported.startswith(".") and imported[1:] not in seen:
                todo.append(imported[1:])
    if module == "cli":  # the walk reaches every module of the package
        assert seen == set(MODULES)


class TestGamma:
    """gamma_ratio, the Gamma quotient behind every series coefficient."""

    def test_known_values(self):
        assert gamma_ratio(1.0, 5.0) == pytest.approx(1.0 / 120.0, rel=1e-14)
        assert gamma_ratio(0.5, 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_ratio(3.7, 0.0) == 1.0
        for x in (40.0, 200.0, 1e6):
            assert gamma_ratio(x, 1.0) == pytest.approx(1.0 / x, rel=1e-14)

    def test_matches_reference_over_full_range(self, rng):
        # the arguments of mpmath's reference are exact, as the series needs
        mpmath.mp.dps = 40
        worst = 0.0
        for _ in range(2000):
            x = 10.0 ** rng.uniform(-1.0, 6.0)
            h = rng.uniform(0.0, 60.0)
            truth = mpmath.exp(mpmath.loggamma(x) - mpmath.loggamma(mpmath.mpf(x) + h))
            if truth < 1e-20:  # too small to matter in any series sum
                continue
            worst = max(worst, float(abs(gamma_ratio(x, h) - truth) / truth))
        assert worst <= 3e-14

    def test_recurrence_property(self, rng):
        for x in rng.uniform(0.5, 500.0, size=1000):
            h = rng.uniform(0.0, 20.0)
            lhs = gamma_ratio(x, h + 1.0) * (x + h)
            assert lhs == pytest.approx(gamma_ratio(x, h), rel=1e-13)

    def test_domain_errors(self):
        # Gamma is only ever evaluated at parameters MLParams has admitted
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                MLParams(1.0, bad)

    def test_past_double_range_is_inf(self):
        # Gamma(500) is past the double range, but the ratio is not
        with pytest.raises(OverflowError):
            math.gamma(500.0)
        assert gamma_ratio(500.0, 2.0) == pytest.approx(1.0 / (500.0 * 501.0), rel=1e-14)
        assert gamma_ratio(0.5, 500.0) == 0.0  # below the double range
        assert gamma_ratio(1.0, 1e308) == 0.0  # where lgamma(x + h) overflows too


class TestPrincipalPower:
    def test_examples(self):
        assert principal_power(1.0 + 0j, 0.37) == pytest.approx(1.0)
        assert principal_power(4.0 + 0j, 0.5) == pytest.approx(2.0, rel=1e-14)
        assert principal_power(-1.0 + 0j, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            principal_power(0j, 0.5)

    def test_negative_axis_uses_upper_branch(self):
        # Im log w = +pi on the cut, regardless of the sign of the zero imag part
        assert principal_power(complex(-4.0, -0.0), 0.5) == pytest.approx(2j, abs=1e-14)

    def test_identity_exponent(self, rng):
        for _ in range(1000):
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if w == 0:
                continue
            assert abs(principal_power(w, 1.0) - w) <= 1e-15 * abs(w)

    def test_exponent_additivity_off_cut(self, rng):
        for _ in range(1000):
            r = rng.uniform(0.1, 3.0)
            theta = rng.uniform(-3.0, 3.0)  # stays off the negative real axis
            w = r * cmath.exp(1j * theta)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = principal_power(w, a) * principal_power(w, b)
            rhs = principal_power(w, a + b)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    @given(
        st.floats(0.01, 100.0),
        st.floats(-3.1, 3.1),
        st.floats(-3.0, 3.0),
    )
    def test_modulus_is_real_power(self, r, theta, e):
        w = r * cmath.exp(1j * theta)
        assert abs(principal_power(w, e)) == pytest.approx(r**e, rel=1e-12)


class TestTrackedPower:
    """Series continued from the origin, in place of tracking a phase along a path.

    series_solve gives every such series the operators use: the
    logarithmic derivative t A'/A, the quotient 1/A, and H from
    (zeta + Q) H + t H' = zeta.
    """

    LENGTH = 60

    def values(self, coeffs, z):
        return np.polynomial.polynomial.polyval(z, coeffs)

    def log_derivative(self, table, length=LENGTH):
        table = np.asarray(table, dtype=float)
        return np.array(series_solve(table, np.arange(len(table)) * table, length))

    def quotient(self, q, zeta):
        return series_solve(np.concatenate(([zeta], q[1:])), [zeta], len(q), derivative=True)

    def test_seeds_at_principal_phase(self):
        # the solutions are 1 (or 0 for t A'/A) at the origin
        table = _coefficients(2.0, 3.0, 1e-14)
        assert series_solve(table, [1.0], self.LENGTH)[0] == 1.0
        q = self.log_derivative(table)
        assert q[0] == 0.0
        for zeta in (1.0, 1e-300, 0.37, 40.0):
            assert self.quotient(q, zeta)[0] == 1.0

    def test_smooth_path(self, rng):
        # near the origin 1/A is the pointwise reciprocal
        table = [1.0, 0.5, 0.25, -0.1]
        inverse = series_solve(table, [1.0], self.LENGTH)
        for r, theta in zip(rng.uniform(0.0, 0.5, 50), rng.uniform(-np.pi, np.pi, 50)):
            z = r * cmath.exp(1j * theta)
            expected = 1.0 / self.values(table, z)
            assert abs(self.values(inverse, z) - expected) <= 1e-13 * abs(expected)

    def test_winding_leaves_the_principal_sheet(self):
        # A = e^(4t) winds arg A past pi on |t| = 0.999; the root continued
        # from the origin, exp((1/2) sum d_n z^n / n) = e^(2z), follows it
        table = [4.0**n / math.factorial(n) for n in range(self.LENGTH)]
        d = self.log_derivative(table)
        assert np.max(np.abs(d - 4.0 * (np.arange(self.LENGTH) == 1))) <= 1e-12  # t A'/A = 4t
        z = 0.999j
        root = cmath.exp(0.5 * self.values(d / np.maximum(np.arange(self.LENGTH), 1), z))
        assert abs(root - cmath.exp(2.0 * z)) <= 1e-13
        # the pointwise principal value lands on the other sheet
        assert abs(root - principal_power(cmath.exp(4.0 * z), 0.5)) > 1.0

    def test_half_turn_step_is_ambiguous(self):
        # A = 1 + 2t vanishes at -1/2: past it 1/A does not continue as a
        # series, whose terms stop decaying, so it has no cut there
        inverse = series_solve([1.0, 2.0], [1.0], 200)
        n, tail = _operator_cut(inverse, 0.3, 1e-14)
        assert n > 0 and tail <= 1e-14
        assert _operator_cut(inverse, 0.9, 1e-14)[0] == 0
        assert abs(self.values(inverse[:n], 0.3) - 1.0 / 1.6) <= 1e-14

    def test_exponent_additivity_along_path(self):
        # t (AB)'/(AB) = t A'/A + t B'/B, the identity behind Q = sum_j Q_j / lambda_j
        one, two = _coefficients(1.5, 2.5, 1e-14), _coefficients(2.0, 4.0, 1e-14)
        lhs = self.log_derivative(np.convolve(one, two)[: self.LENGTH])
        rhs = self.log_derivative(one) + self.log_derivative(two)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_residual_vanishes_for_every_use(self):
        # A X (+ t X') - B = 0 term by term for t A'/A, H and 1/H
        length = 200
        table = np.asarray(_coefficients(2.0, 3.0, 1e-14))
        q = self.log_derivative(table, length)
        h = self.quotient(q, 0.37)
        n = np.arange(length)
        uses = (
            (table, q, n[: len(table)] * table, False),
            (np.concatenate(([0.37], q[1:])), h, [0.37], True),
            (h, series_solve(h, [1.0], length), [1.0], False),
        )
        for a, x, b, derivative in uses:
            residual = np.convolve(a, x)[:length] + (n * x if derivative else 0.0)
            residual[: len(b)] -= np.asarray(b)[:length]
            assert np.max(np.abs(residual)) <= 1e-15 * np.max(np.abs(x))


def _mp_solve(a, b, length, derivative):
    """series_solve's recurrence at 40 digits, from the same float inputs."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(c)) for c in a]
        b = [mpmath.mpf(float(c)) for c in b]
        x = []
        for n in range(length):
            near = mpmath.fsum(a[k] * x[n - k] for k in range(1, min(n, len(a) - 1) + 1))
            rhs = b[n] if n < len(b) else mpmath.mpf(0)
            x.append((rhs - near) / (a[0] + n if derivative else a[0]))
        return np.array([float(c) for c in x])


class TestSeriesSolve:
    """series_solve on Python floats against its recurrence at 40 digits."""

    @staticmethod
    def uses():
        # t A'/A of E_{2,3} (decaying) and of E_{1,0.2} (a zero at -0.2448, so
        # growing like 4^n), then H from (zeta + Q) H + t H' = zeta for each
        uses = {}
        for name, (alpha, beta) in {"decaying": (2.0, 3.0), "growing": (1.0, 0.2)}.items():
            table = np.asarray(_coefficients(alpha, beta, 1e-14))
            q = series_solve(table, np.arange(len(table)) * table, 200)
            uses[f"quotient-{name}"] = (table, np.arange(len(table)) * table, False)
            uses[f"derivative-{name}"] = (np.concatenate(([0.37], q[1:])), [0.37], True)
        return uses

    @pytest.mark.parametrize("length", [15, 16, 17, 33, 200])
    def test_matches_mpmath(self, length):
        for name, (a, b, derivative) in self.uses().items():
            expected = _mp_solve(a, b, length, derivative)
            mine = series_solve(a, b, length, derivative=derivative)
            assert len(mine) == length
            assert np.max(np.abs(mine - expected)) <= 1e-13 * np.max(np.abs(expected)), name

    def test_shorter_solves_are_exact_prefixes(self):
        for a, b, derivative in self.uses().values():
            full = series_solve(a, b, 200, derivative=derivative)
            for length in (1, 15, 16, 17, 24, 32, 33, 64, 128):
                assert np.array_equal(series_solve(a, b, length, derivative=derivative),
                                      full[:length])

    def test_a_continued_prefix_is_the_fresh_solve(self):
        # each call appends the terms past x to x itself, bit for bit a fresh solve
        for a, b, derivative in self.uses().values():
            full = series_solve(a, b, 200, derivative=derivative)
            x = []
            for length in (1, 16, 24, 36, 54, 81, 121, 181, 200):
                assert series_solve(a, b, length, derivative=derivative, x=x) is x
                assert x == full[:length]

    def test_overflow_gives_inf_and_nan_quietly(self):
        # 1/(1 + 1e200 t): the coefficients (-1e200)^n overflow from n = 2 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse = series_solve([1.0, 1e200], [1.0], 64)
            h = series_solve(np.concatenate(([1.0], inverse[1:])), [1.0], 64, derivative=True)
        assert inverse[:2] == [1.0, -1e200]
        assert not np.any(np.isfinite(inverse[2:]))
        assert not np.all(np.isfinite(h))


class TestIntegrateGL:
    """Composite Gauss-Legendre integration, now only the fixed-panel oracle
    that the operator series are checked against."""

    def test_constant(self):
        value = fixed_panel_integral(lambda w: 1.0, 0.0, 1.0, panels=1)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_linear(self):
        value = fixed_panel_integral(lambda w: w, 0.0, 1.0, panels=2)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_exponential_against_fixed_panel_reference(self):
        value = fixed_panel_integral(cmath.exp, 0.0, 1.0, panels=4)
        assert abs(value - (math.e - 1.0)) <= 1e-14

    def test_polynomial_exactness(self, rng):
        # 24-node Gauss-Legendre is exact through degree 47 on a single panel
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, size=48)
            truth = sum(c / (k + 1) for k, c in enumerate(coeffs))

            def poly(w, c=coeffs):
                acc = 0.0
                for ck in reversed(c):
                    acc = acc * w + ck
                return acc

            assert abs(fixed_panel_integral(poly, 0.0, 1.0, panels=1) - truth) <= 1e-14

    def test_complex_values(self):
        value = fixed_panel_integral(lambda w: cmath.exp(1j * w), 0.0, 1.0, panels=2)
        truth = (cmath.exp(1j) - 1.0) / 1j
        assert abs(value - truth) <= 1e-14
