import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flow import seeds as sd
from g2flow.errors import NonAnalyticError, ResonanceError
from g2flow.params import ModelParams
from g2flow.seeds import NU0, NUINF, solve_singular_ivp
from g2flow.series import ExponentLattice, Series


def make(expr, order=8.0, gens=(1.0,)):
    lat = ExponentLattice(gens)
    s = Series.constant(lat, order, 0.0)
    for h, c in expr.items():
        s = s + Series.monomial(lat, order, h, c)
    return s


class TestArithmetic:
    def test_mul_truncates(self):
        s = make({(0,): 1.0, (1,): 1.0}, order=3.0)
        cube = s * s * s
        assert cube.coeff((3,)) == 1.0
        assert cube.coeff((2,)) == 3.0
        assert (s * s * s * s).coeff((4,)) == 0.0  # beyond order

    def test_reciprocal_geometric(self):
        s = make({(0,): 1.0, (1,): -1.0}, order=10.0)
        r = s.reciprocal()
        for h in range(11):
            assert r.coeff((h,)) == pytest.approx(1.0, abs=1e-14)

    def test_sqrt_binomial(self):
        s = make({(0,): 1.0, (1,): 1.0}, order=8.0)
        root = s.sqrt()
        # sqrt(1+t) = sum binom(1/2, k) t^k
        for k in range(8):
            expect = math.prod((0.5 - i) / (i + 1) for i in range(k)) if k else 1.0
            assert root.coeff((k,)) == pytest.approx(expect, abs=1e-13)

    def test_sqrt_needs_positive_constant(self):
        with pytest.raises(NonAnalyticError):
            make({(1,): 1.0}).sqrt()

    def test_reciprocal_needs_nonzero_constant(self):
        with pytest.raises(NonAnalyticError):
            make({(1,): 1.0}).reciprocal()

    def test_shift_down_tolerates_roundoff_only(self):
        s = make({(0,): 1e-14, (2,): 3.0})
        shifted = s.shift_down((2,), tol=1e-12)
        assert shifted.coeff((0,)) == 3.0
        with pytest.raises(NonAnalyticError):
            make({(0,): 1.0, (2,): 3.0}).shift_down((2,), tol=1e-12)

    def test_two_generator_lattice(self):
        lat = ExponentLattice((3.0, NU0))
        idx = lat.indices_upto(10.0)
        exps = sorted(lat.exponent(h) for h in idx)
        assert exps[0] == 0.0
        assert all(e <= 10.0 + 1e-9 for e in exps)
        assert (1, 1) in idx  # 3 + nu0 ~ 5.52

    def test_evaluate_and_tderivative(self):
        s = make({(2,): 5.0, (3,): -1.0})
        assert s.evaluate(0.5) == pytest.approx(5 * 0.25 - 0.125)


def naive_product(x, y) -> dict:
    """Term-by-term product of two series on the same lattice, as {index: coefficient}."""
    lat, order = x.lattice, x.order
    indices = lat.indices_upto(order)
    out: dict = {}
    for h1 in indices:
        for h2 in indices:
            if lat.exponent(h1) + lat.exponent(h2) <= order + 1e-9:
                h = tuple(a + b for a, b in zip(h1, h2))
                out[h] = out.get(h, 0.0) + x.coeff(h1) * y.coeff(h2)
    return out


def assert_close_to(got, want: dict, scale: dict, rel: float = 1e-12):
    """got.coeff(h) == want[h] to rel times scale[h], the sum of |terms| at h."""
    for h in got.lattice.indices_upto(got.order):
        err = abs(got.coeff(h) - want.get(h, 0.0))
        assert err <= rel * scale.get(h, 0.0) + 1e-300, (h, got.coeff(h), want.get(h, 0.0))


def absolute(x):
    return Series(x.lattice, x.order, np.abs(x.vector))


ONE_D = st.tuples(st.floats(0.3, 3.0), st.floats(0.0, 12.0))
TWO_D = st.one_of(
    st.tuples(st.just((3.0, NUINF)), st.floats(0.0, 40.0)),
    st.tuples(st.tuples(st.floats(0.7, 3.0), st.floats(0.7, 3.0)), st.floats(0.0, 6.0)),
)
COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=64)


def series_from(gens, order, head, coeffs, tail_scale=1.0) -> Series:
    lat = ExponentLattice(gens if isinstance(gens, tuple) else (gens,))
    n = len(lat.indices_upto(order))
    assert n <= len(coeffs)
    vec = tail_scale * np.array(coeffs[:n])
    vec[0] = head
    return Series(lat, order, vec)


class TestProperties:
    """Random series against an independent term-by-term oracle."""

    @given(lattice=st.one_of(ONE_D, TWO_D), a=COEFFS, b=COEFFS, a0=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_naive(self, lattice, a, b, a0):
        x = series_from(*lattice, a0, a)
        y = series_from(*lattice, b[0], b)
        assert_close_to(x * y, naive_product(x, y), naive_product(absolute(x), absolute(y)))

    @given(lattice=st.one_of(ONE_D, TWO_D), a=COEFFS, a0=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_inverts(self, lattice, a, a0):
        x = series_from(*lattice, a0, a, tail_scale=0.3)
        r = x.reciprocal()
        one = {(0,) * x.lattice.dim: 1.0}
        assert_close_to(x * r, one, naive_product(absolute(x), absolute(r)))

    @given(lattice=st.one_of(ONE_D, TWO_D), a=COEFFS, a0=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_sqrt_squares_back(self, lattice, a, a0):
        x = series_from(*lattice, a0, a, tail_scale=0.3)
        root = x.sqrt()
        want = {h: x.coeff(h) for h in x.lattice.indices_upto(x.order)}
        assert_close_to(root * root, want, naive_product(absolute(root), absolute(root)))

    @given(lattice=st.one_of(ONE_D, TWO_D), extra=st.floats(0.5, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_operands_of_different_order_raise(self, lattice, extra):
        gens, order = lattice
        lat = ExponentLattice(gens if isinstance(gens, tuple) else (gens,))
        x = Series.constant(lat, order, 1.0)
        y = Series.constant(lat, order + extra, 1.0)
        for op in (lambda: x * y, lambda: x + y, lambda: y - x, lambda: x / y):
            with pytest.raises(ValueError, match="different orders"):
                op()

    def test_operands_on_different_lattices_raise(self):
        x = Series.constant(ExponentLattice((1.0,)), 6.0, 1.0)
        y = Series.constant(ExponentLattice((2.0,)), 6.0, 1.0)
        with pytest.raises(ValueError, match="different lattices"):
            x * y


class TestEngine:
    def test_scalar_model_against_independent_recursion(self):
        """t y' = y - y^2 + t on the analytic branch at y0 = 1, 12 terms."""

        def phi(ys):
            y = ys[0]
            lat, order = y.lattice, y.order
            t = Series.monomial(lat, order, (1,) + (0,) * (lat.dim - 1), 1.0)
            return [y - y * y + t]

        sol = solve_singular_ivp(phi, np.array([1.0]), (1.0,), 12.0)
        # independent oracle in shifted variables y = 1 + d: t d' = -d - d^2 + t
        d = {0: 0.0}
        for h in range(1, 13):
            conv = sum(d[i] * d[h - i] for i in range(1, h))
            d[h] = ((1.0 if h == 1 else 0.0) - conv) / (h + 1)
        for h in range(1, 13):
            got = sol.coefficients.get((h,), np.zeros(1))[0]
            assert got == pytest.approx(d[h], abs=1e-15), h

    def test_fixed_point_required(self):
        def phi(ys):
            return [ys[0] + 1.0]

        from g2flow.errors import ConstraintError

        with pytest.raises(ConstraintError):
            solve_singular_ivp(phi, np.array([5.0]), (1.0,), 4.0)

    def test_resonance_error_without_repair(self):
        # t y' = 2y + t^2: exponent 2 hits the eigenvalue 2 with forcing
        def phi(ys):
            y = ys[0]
            lat, order = y.lattice, y.order
            t2 = Series.monomial(lat, order, (2,) + (0,) * (lat.dim - 1), 1.0)
            return [2 * y + t2]

        with pytest.raises(ResonanceError) as err:
            solve_singular_ivp(phi, np.array([0.0]), (1.0,), 4.0)
        assert err.value.index == (2,)

    def test_free_mode_coefficient(self):
        # t y' = y: solution u * t along the eigenvector
        def phi(ys):
            return [ys[0] * 1.0]

        sol = solve_singular_ivp(
            phi, np.array([0.0]), (1.0,), 4.0, free_modes={0: (2.5, np.array([1.0]))}
        )
        assert sol.coefficients[(1,)][0] == pytest.approx(2.5)


def per_column_linearization(rhs, y0, lattice, shift_pad):
    """d_y Phi(., 0) one column per evaluation: the oracle of the one-pass `_linearize`.

    Column j perturbs unknown j alone along one probe generator t^(1/pi).
    """
    k = len(y0)
    probe = 1.0 / math.pi
    probe_lat = ExponentLattice(lattice.generators + (probe,))
    order = probe + shift_pad + 0.05
    unit = (0,) * lattice.dim + (1,)
    A = np.empty((k, k))
    for j in range(k):
        ys = [Series.constant(probe_lat, order, y0[i]) for i in range(k)]
        ys[j] = ys[j] + Series.monomial(probe_lat, order, unit, 1.0)
        A[:, j] = [f.coeff(unit) for f in rhs(ys)]
    return A


def _linearization_cases():
    """(Phi, base point, lattice, shift pad) of each seed family."""
    b7 = sd.seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)[0]
    d7 = sd.seed_su2_factor(1.0, 2**0.25, 2**0.25, 2**-0.5, 0.1)[0]
    k12 = sd.seed_kmn(1, 2, 1.0, 1.0)[0]
    end = ModelParams.kmn(1, 2, 1.0)
    ac = sd._ac_series_unit(end.p, end.q, 15.0)
    return {
        "b7": (sd._phi_delta_su2(1.0), b7.base, b7.lattice, 2.0),
        "d7": (sd._phi_su2_factor(1.0), d7.base, d7.lattice, 0.0),
        "kmn(1,2)": (sd._phi_kmn(1, 2, 1.0, 1.0), k12.base, k12.lattice, 0.0),
        "cs": (sd._phi_cs(), np.zeros(4), ExponentLattice((NU0,)), 0.0),
        "ac(1,2)": (sd._phi_ac(end.p, end.q), ac.base, ac.lattice, 0.0),
    }


class TestLinearization:
    @pytest.mark.parametrize("family", ["b7", "d7", "kmn(1,2)", "cs", "ac(1,2)"])
    def test_one_pass_equals_per_column(self, family):
        """All k tangents in one evaluation give the per-column matrix bit for bit."""
        rhs, y0, lattice, pad = _linearization_cases()[family]
        one_pass = sd._linearize(rhs, y0, lattice, pad)
        assert np.array_equal(one_pass, per_column_linearization(rhs, y0, lattice, pad))
        assert np.max(np.abs(one_pass)) > 0

    def test_one_evaluation_of_phi(self):
        calls = []
        phi = sd._phi_cs()

        def counted(ys):
            calls.append(len(ys))
            return phi(ys)

        sd._linearize(counted, np.zeros(4), ExponentLattice((NU0,)), 0.0)
        assert calls == [4]
