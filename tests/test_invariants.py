import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flow.errors import DomainError
from g2flow.invariants import (
    U1State,
    eval_F,
    eval_lambda,
    hamiltonian,
    lambda_magnitude,
    mean_curvature,
    su2cubed_curve_residual,
)
from g2flow.params import ModelParams
from g2flow.seeds import cone_state

RNG = np.random.default_rng(42)
SQRT3 = math.sqrt(3.0)


class TestEvalLambda:
    def test_zero_everything(self):
        assert eval_lambda((0, 0, 0), ModelParams.plain(0, 0)) == 0.0

    def test_unit_ys_no_pq(self):
        assert eval_lambda((1, 1, 1), ModelParams.plain(0, 0)) == pytest.approx(-3.0, abs=1e-15)

    def test_factorization_point(self):
        # V = 4, V1 = V2 = V3 = 0 at y = (1,1,1), p = 1, q = -1
        assert eval_lambda((1, 1, 1), ModelParams.plain(1, -1)) == 0.0

    def test_factored_vs_grouped_cross_check(self):
        from g2flow.invariants import _lambda_factored, _lambda_grouped

        for _ in range(200):
            y = RNG.uniform(-2, 2, size=3)
            p = RNG.uniform(-2, 2)
            lf = _lambda_factored(y, p)
            lg = _lambda_grouped(y, p, -p)
            scale = lambda_magnitude(y, ModelParams.plain(p, -p)) + 1
            assert abs(lf - lg) <= 64 * np.finfo(float).eps * scale


def _pq_draws(rng, n):
    """(p, q) pairs: n general draws, n on q = -p (eval_F's factored branch) and the cone p = q = 0."""
    general = [tuple(rng.uniform(-2, 2, size=2)) for _ in range(n)]
    antidiagonal = [(p, -p) for p in rng.uniform(-2, 2, size=n)]
    return general + antidiagonal + [(0.0, 0.0)] * n


class TestEvalF:
    def test_simple(self):
        f, fa, fb = eval_F(1.0, 1.0, ModelParams.plain(0, 0))
        assert (f, fa, fb) == (3.0, 8.0, 4.0)

    def test_singular_point_of_level_set(self):
        # (0, mn r0^3) with (m, n, r0) = (1, 2, 1)
        f, _, _ = eval_F(0.0, 2.0, ModelParams.kmn(1, 2, 1.0))
        assert f == 0.0

    def test_direct_value(self):
        f, fa, fb = eval_F(1.0, 3.0, ModelParams.plain(-1.0, 4.0))
        assert f == pytest.approx(4 * 4 * 7 - 25)
        assert fa == pytest.approx(8 * 4 * 7)

    def test_matches_minus_lambda(self):
        for p, q in _pq_draws(RNG, 300):
            a, b = RNG.uniform(-3, 3, size=2)
            params = ModelParams.plain(p, q)
            f, _, _ = eval_F(a, b, params)
            scale = lambda_magnitude((a, a, b), params) + 1
            assert abs(f + eval_lambda((a, a, b), params)) <= 64 * np.finfo(float).eps * scale

    def test_partials_match_finite_differences(self):
        h = 1e-6
        for p, q in _pq_draws(RNG, 50):
            a, b = RNG.uniform(0.2, 3, size=2)
            params = ModelParams.plain(p, q)
            _, fa, fb = eval_F(a, b, params)
            fa_fd = (eval_F(a + h, b, params)[0] - eval_F(a - h, b, params)[0]) / (2 * h)
            fb_fd = (eval_F(a, b + h, params)[0] - eval_F(a, b - h, params)[0]) / (2 * h)
            assert fa == pytest.approx(fa_fd, rel=1e-7, abs=1e-5)
            assert fb == pytest.approx(fb_fd, rel=1e-7, abs=1e-5)


class TestIdentities:
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        p=st.floats(-2, 2),
        q=st.floats(-2, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_F_is_minus_lambda_on_diagonal(self, a, b, p, q):
        params = ModelParams.plain(p, q)
        f, _, _ = eval_F(a, b, params)
        scale = lambda_magnitude((a, a, b), params) + 1
        assert abs(f + eval_lambda((a, a, b), params)) <= 64 * np.finfo(float).eps * scale

    def test_eq_310_identities_random(self):
        # 2Fb - Fa = 8(a-b)(a(2b+q-p) + b^2 + pq); 2bFb - aFa = 8(a-b)(a+b)(b^2+pq)
        n = 10_000
        a = RNG.uniform(-3, 3, size=n)
        b = RNG.uniform(-3, 3, size=n)
        p = RNG.uniform(-2, 2, size=n)
        q = RNG.uniform(-2, 2, size=n)
        fa = 8 * a * (b - p) * (b + q)
        fb = 4 * a * a * (2 * b + q - p) - 4 * b * (b * b + p * q)
        lhs1 = 2 * fb - fa
        rhs1 = 8 * (a - b) * (a * (2 * b + q - p) + b * b + p * q)
        lhs2 = 2 * b * fb - a * fa
        rhs2 = 8 * (a - b) * (a + b) * (b * b + p * q)
        scale1 = np.abs(lhs1) + np.abs(rhs1) + 1
        scale2 = np.abs(lhs2) + np.abs(rhs2) + 1
        assert np.max(np.abs(lhs1 - rhs1) / scale1) < 1e-12
        assert np.max(np.abs(lhs2 - rhs2) / scale2) < 1e-12


class TestHamiltonian:
    def test_cone_on_shell(self):
        assert hamiltonian(cone_state(1.0), ModelParams.cone()) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        st = U1State(a=1.0, b=1.0, da=1.0, db=1.0)  # x = y = (1, 1, 1)
        assert hamiltonian(st, ModelParams.cone()) == pytest.approx(SQRT3 - 2)

    def test_zero_x_on_lambda_zero(self):
        st = U1State(a=1.0, b=1.0, da=0.0, db=0.0)
        assert hamiltonian(st, ModelParams.plain(1, -1)) == 0.0

    def test_domain_error_off_locus(self):
        st = U1State(a=0.1, b=5.0, da=1.0, db=1.0)  # Lambda(0.1, 0.1, 5) > 0
        with pytest.raises(DomainError):
            hamiltonian(st, ModelParams.cone())


def _mean_curvature_6d(y, da, p, q):
    """The 6-D formula: sum_i da_i G_i / (2 (da_1 da_2 da_3)^2), G_i = -dLambda/dy_i / 4."""
    total = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g = y[i] * (-y[i] ** 2 + y[j] ** 2 + y[k] ** 2 - p * q) - (p - q) * y[j] * y[k]
        total += da[i] * g
    return total / (2 * (da[0] * da[1] * da[2]) ** 2)


class TestMeanCurvature:
    def test_cone_is_six_over_t(self):
        for t in (1.0, 2.0, 5.0):
            st = cone_state(t)
            assert mean_curvature(st, ModelParams.cone()) == pytest.approx(6.0 / t, rel=1e-12)

    def test_u1_value_from_eval_F(self):
        params = ModelParams.plain(-1.0, 4.0)
        st = U1State(a=1.0, b=3.0, da=1.0, db=0.5)
        f, fa, fb = eval_F(1.0, 3.0, params)
        assert mean_curvature(st, params) == pytest.approx((1.0 * fa + 0.5 * fb) / (2 * f))

    def test_full_agrees_with_u1_on_symmetric_states(self):
        """The 6-D formula at y = (a, a, b), da = (da, da, db): an oracle sharing no code with eval_F."""
        params = ModelParams.kmn(1, 2, 1.0)
        for _ in range(50):
            a = RNG.uniform(2.5, 6.0)
            b = RNG.uniform(2.1, a - 0.1)
            f, _, _ = eval_F(a, b, params)
            if f <= 0:
                continue
            lam = RNG.uniform(1.1, 2.0)
            db = (math.sqrt(f) / (2 * lam * lam)) ** (1 / 3)
            st = U1State(a=a, b=b, da=lam * db, db=db)
            oracle = _mean_curvature_6d((a, a, b), (st.da, st.da, st.db), params.p, params.q)
            assert oracle == pytest.approx(mean_curvature(st, params), rel=1e-10)


class TestBryantSalamonCurve:
    def test_cone_on_curve(self):
        assert su2cubed_curve_residual(1 / 108, SQRT3 / 54, ModelParams.cone()) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_pq_value(self):
        assert su2cubed_curve_residual(0.0, 1.0, ModelParams.plain(1, -1)) == pytest.approx(0.0)

    def test_off_curve(self):
        assert su2cubed_curve_residual(0.0, 1.0, ModelParams.cone()) == pytest.approx(-3.0)

