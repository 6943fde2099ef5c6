import math

import numpy as np
import pytest

from g2flow import seeds as sd
from g2flow.errors import ConstraintError, SeedError
from g2flow.flow import Budget, integrate
from g2flow.invariants import U1State, hamiltonian, su2cubed_curve_residual
from g2flow.params import ModelParams
from g2flow.series import ExponentLattice
from g2flow.seeds import (
    NU0,
    NUINF,
    SeedSpec,
    cone_state,
    cs_linearization_eigen,
    seed_ac_end,
    seed_cs_end,
    seed_delta_su2,
    seed_kmn,
    seed_su2_factor,
)

SQRT3 = math.sqrt(3.0)


def coefficient_at(sol, e):
    """The coefficient vector of t^e in a series solution, whatever its lattice."""
    (vec,) = [c for h, c in sol.coefficients.items() if sol.lattice.exponent(h) == e]
    return vec


class TestExponents:
    def test_printed_roots(self):
        assert NU0 == pytest.approx((math.sqrt(145) - 7) / 2, abs=1e-15)
        assert NUINF == pytest.approx((math.sqrt(145) + 7) / 2, abs=1e-15)
        assert NU0 * NUINF == pytest.approx(24.0, rel=1e-14)
        assert NUINF - NU0 == pytest.approx(7.0, abs=1e-13)


class TestCsEigen:
    def test_eigenvalues(self):
        L, vals, vecs = cs_linearization_eigen()
        assert sorted(np.linalg.eigvals(L).real) == pytest.approx(
            sorted([-1.0, -6.0, -NUINF, NU0]), abs=1e-12
        )

    def test_eigenvectors_are_printed_ones(self):
        L, vals, vecs = cs_linearization_eigen()
        for i in range(4):
            v = vecs[:, i]
            assert np.max(np.abs(L @ v - vals[i] * v)) < 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_minus_one_eigenvector(self):
        L, _, _ = cs_linearization_eigen()
        v = np.array([4.0, 4.0, 3.0, 3.0])
        assert np.max(np.abs(L @ v + v)) < 1e-12


class TestFamilyEigenvalues:
    """The linearizations reproduce the printed determinant factorizations, on the U(1) subspace."""

    def test_delta_su2(self):
        sol, _ = seed_delta_su2(1 / 160, 1 / 320, 0.1)
        eig = np.sort(np.linalg.eigvals(sol.linearization).real)
        assert eig == pytest.approx([-8, -5, -3, 0], abs=1e-9)

    def test_su2_factor(self):
        sol, _ = seed_su2_factor(2**0.25, 2**-0.5, 0.1)
        eig = np.sort(np.linalg.eigvals(sol.linearization).real)
        assert eig == pytest.approx([-4, -3, -1, 0], abs=1e-9)

    def test_kmn(self):
        sol, _ = seed_kmn(1, 2, 1.0, t_switch=0.05)
        eig = np.sort(np.linalg.eigvals(sol.linearization).real)
        assert eig == pytest.approx([-2, -2, -1, -1], abs=1e-9)


class TestEvenLattice:
    """B7, D7 and K(m,n) blow-ups are functions of t^2: their seeds are solved on the t^2 lattice."""

    @pytest.mark.parametrize(
        "seed, phi, pad",
        [
            (lambda: seed_delta_su2(1 / 160, 1 / 320, 0.1), sd._phi_delta_su2(), 2.0),
            (lambda: seed_su2_factor(2**0.25, 2**-0.5, 0.1), sd._phi_su2_factor(), 0.0),
            (lambda: seed_kmn(1, 2, 1.0, t_switch=0.1), sd._phi_kmn(1, 2, 1.0), 0.0),
            (lambda: seed_kmn(2, 3, 4.4, t_switch=0.1), sd._phi_kmn(2, 3, 4.4), 0.0),
        ],
        ids=["b7", "d7", "kmn(1,2)", "kmn(2,3)"],
    )
    def test_t_lattice_solve_has_only_even_terms(self, seed, phi, pad):
        sol, _ = seed()
        assert sol.lattice.generators == (2.0,)
        on_t = sd.solve_singular_ivp(phi, sol.base, (1.0,), sol.truncation_order, shift_pad=pad)
        # a solution keeps only the coefficients that are not exactly zero
        assert all(h[0] % 2 == 0 for h in on_t.coefficients)
        assert len(on_t.coefficients) == len(sol.coefficients)
        for h, vec in on_t.coefficients.items():
            assert np.max(np.abs(coefficient_at(sol, float(h[0])) - vec)) <= 1e-14 * np.max(np.abs(vec))
        assert np.array_equal(on_t.evaluate(0.1), sol.evaluate(0.1))

    def test_monomials_off_the_lattice_raise(self):
        lat = ExponentLattice((2.0,))
        assert sd._mono(lat, 10.0, 4).coeff((2,)) == 1.0
        with pytest.raises(ValueError, match="not on the lattice"):
            sd._mono(lat, 10.0, 1)
        x = sd._mono(lat, 10.0, 6)
        assert sd._down(x, 2, 1e-12).coeff((2,)) == 1.0
        with pytest.raises(ValueError, match="not on the lattice"):
            sd._down(x, 3, 1e-12)
        ac = ExponentLattice((3.0, NUINF))
        assert sd._mono(ac, 15.0, 3).coeff((1, 0)) == 1.0
        with pytest.raises(ValueError, match="not on the lattice"):
            sd._mono(ac, 15.0, 1)


class TestDeltaSu2:
    def test_constraint_enforced(self):
        with pytest.raises(ConstraintError):
            seed_delta_su2(0.01, 0.01, 0.1)

    def test_equal_alpha_on_bryant_salamon_quartic(self):
        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1 / 192, 1 / 192, 0.1)
        assert abs(su2cubed_curve_residual(st.da * st.db, st.a, params)) < 1e-10

    def test_sign_pattern_alpha3_below(self):
        _, u = seed_delta_su2(1 / 160, 1 / 320, 0.1)
        assert u.a > u.b and u.da > u.db

    def test_leading_coefficients(self):
        # a_i = 1 + t^2/4 + alpha_i t^4 + O(t^6) at r0 = 1
        al = (1 / 160, 1 / 160, 1 / 320)
        sol, _ = seed_delta_su2(al[0], al[2], 0.1)
        for t in (0.02, 0.01):
            XY = sol.evaluate(t)
            y = 1.0 + t**2 / 4 + t**4 * XY[2:]
            model = 1.0 + t**2 / 4 + np.array(al[1:]) * t**4
            assert np.max(np.abs(y - model)) < 5.0 * t**6


class TestSu2Factor:
    def test_constraint_enforced(self):
        with pytest.raises(ConstraintError):
            seed_su2_factor(1.0, 2.0, 0.1)
        with pytest.raises(ConstraintError):
            seed_su2_factor(-1.0, 1.0, 0.1)

    def test_remark_t4_coefficients(self):
        # at r0 = 1, a1 t^4 coefficient: (8 - 5 a3^3)/(576 a1); a3: -(4 - 7a3^3) a3/(576 a1^2)
        for a3 in (1.0, 0.6, 1.4):
            a1 = 1 / math.sqrt(a3)
            sol, _ = seed_su2_factor(a1, a3, 0.1)
            c2 = coefficient_at(sol, 2.0)
            assert c2[2] == pytest.approx((8 - 5 * a3**3) / (576 * a1), rel=1e-11)
            assert c2[3] == pytest.approx(-(4 - 7 * a3**3) * a3 / (576 * a1**2), rel=1e-11, abs=1e-14)

    def test_d7_cross_term_coefficient(self):
        """da b - a db = (1 - a3^3) a3/(96 a1) t^5 + O(t^7)."""
        a3 = 0.7
        a1 = 1 / math.sqrt(a3)
        sol, _ = seed_su2_factor(a1, a3, 0.1)
        lead = (1 - a3**3) * a3 / (96 * a1)
        vals = []
        for t in (0.02, 0.01):
            X = sol.evaluate(t)
            a = t**2 * X[2]
            b = t**2 * X[3]
            # derivatives of a = t^2 Y1(t): da = 2t Y1 + t^2 Y1'
            h = 1e-7
            Xp = sol.evaluate(t + h)
            Xm = sol.evaluate(t - h)
            da = 2 * t * X[2] + t**2 * (Xp[2] - Xm[2]) / (2 * h)
            db = 2 * t * X[3] + t**2 * (Xp[3] - Xm[3]) / (2 * h)
            vals.append((da * b - a * db) / t**5)
        assert vals[-1] == pytest.approx(lead, rel=2e-3)

    def test_alpha_equal_one_gives_1_over_192(self):
        sol, _ = seed_su2_factor(1.0, 1.0, 0.1)
        assert coefficient_at(sol, 2.0)[2] == pytest.approx(1 / 192, rel=1e-12)

    def test_sign_pattern(self):
        _, u = seed_su2_factor(2**0.5, 0.5, 0.05)
        assert u.a > u.b and u.da > u.db


class TestKmn:
    def test_constraints(self):
        with pytest.raises(ConstraintError):
            seed_kmn(2, 4, 1.0, 0.1)
        with pytest.raises(ConstraintError):
            seed_kmn(1, 2, -1.0, 0.1)

    def test_remark_b_coefficient(self):
        # b(t) = mn + sqrt(mn)(m+n)/(2 beta) t^2 + O(t^4) at r0 = 1
        sol, _ = seed_kmn(1, 2, 1.0, t_switch=0.05)
        assert sol.base[3] == pytest.approx(math.sqrt(2) * 3 / 2, rel=1e-13)

    def test_explicit_odd_order_checks_the_last_retained_term(self):
        """At order 11 the last retained term is t^10, and at t = 0.4 it is 2e-8, over the 1e-10 bound."""
        base = seed_kmn(1, 2, 2.5, t_switch=0.1)[0].base
        sol = sd.solve_singular_ivp(sd._phi_kmn(1, 2, 2.5), base, (2.0,), 11.0)
        with pytest.raises(SeedError, match="tail estimate"):
            sd._check_series_tail(sol, 0.4)

    def test_hamiltonian_budget(self):
        params = ModelParams.kmn(2, 3, 1.0)
        _, st = seed_kmn(2, 3, 4.4, t_switch=0.05)
        vol = 2 * st.da**2 * st.db
        assert abs(hamiltonian(st, params)) <= 1e-10 * (1 + vol)

    def test_kmn_seed_b_of_s_expansion(self):
        """b(s) = mn + sqrt(mn)(m+n)/(2 b^3) s^2 + O(s^4) near s = 0, at r0 = 1."""
        m, n, beta = 1, 2, 1.0
        sol, _ = seed_kmn(m, n, beta, t_switch=0.05)
        D = math.sqrt(m * n) * (m + n) / (2 * beta**3)
        errs = []
        for t in (0.02, 0.01):
            X1, X3, Y1, Y3 = sol.evaluate(t)
            s = t * Y1
            b = m * n + t**2 * Y3
            errs.append(abs(b - (m * n + D * s * s)))
        # O(s^4) remainder: quartic decay under halving
        assert errs[1] <= errs[0] / 8


class TestCsEnd:
    def test_c_zero_is_cone(self):
        _, st = seed_cs_end(0.0, 0.1)
        cone = cone_state(0.1)
        assert st.a == pytest.approx(cone.a, rel=1e-14)
        assert st.b == pytest.approx(cone.b, rel=1e-14)

    def test_signs_follow_c(self):
        _, sp = seed_cs_end(1.0, 0.1)
        assert sp.a > sp.b and sp.da > sp.db and sp.da * sp.b - sp.a * sp.db > 0
        _, sm = seed_cs_end(-1.0, 0.1)
        assert sm.a < sm.b and sm.da < sm.db and sm.a * sm.db - sm.da * sm.b > 0

    def test_leading_coefficients(self):
        """(54/sqrt3) t^-3 a = 1 + c/2 t^nu0 + O(t^2nu0), b-coeff is -c."""
        c = 0.37
        sol, _ = seed_cs_end(c, 0.05)
        lead = sol.coefficients[(1,)]
        assert lead[2] == pytest.approx(c / 2, rel=1e-13)
        assert lead[3] == pytest.approx(-c, rel=1e-13)

    def test_cross_term_asymptotics(self):
        """54^2 (da b - a db)/(3 t^5) ~ (3/2) c nu0 t^nu0 as t -> 0."""
        c = 0.5
        sol, _ = seed_cs_end(c, 0.05)
        from g2flow.seeds import _cs_state

        vals = []
        for t in (0.02, 0.01):
            st = _cs_state(sol, t)
            vals.append(54**2 * (st.da * st.b - st.a * st.db) / (3 * t**5) / t**NU0)
        assert vals[-1] == pytest.approx(1.5 * c * NU0, rel=5e-3)

    @pytest.mark.parametrize("c", [-1.7, 0.3, 1.9])
    def test_scaled_unit_series_matches_a_direct_solve(self, c):
        sol, _ = seed_cs_end(c, 0.1)
        v = np.array([-(3.0 + NU0) / 6.0, (3.0 + NU0) / 3.0, 0.5, -1.0])
        direct = sd.solve_singular_ivp(
            sd._phi_cs(), np.zeros(4), (NU0,), sol.truncation_order, free_modes={0: (c, v)}
        )
        assert sol.coefficients.keys() == direct.coefficients.keys()
        for h, vec in direct.coefficients.items():
            assert np.max(np.abs(sol.coefficients[h] - vec)) <= 1e-13 * np.max(np.abs(vec))

    def test_switch_beyond_series_reach_is_a_seed_error(self):
        """At t = 1 the series gives 1 + X2 < 0, so no real da: every order of the ladder fails."""
        from g2flow.seeds import _cs_state

        sol, _ = seed_cs_end(1.0, 0.1)
        assert 1 + sol.evaluate(1.0)[1] < 0
        with pytest.raises(SeedError, match="1 \\+ X2"):
            _cs_state(sol, 1.0)
        with pytest.raises(SeedError):
            seed_cs_end(1.0, 1.0)


class TestAcEnd:
    def test_pq_zero_pure_nuinf(self):
        sol, _ = seed_ac_end(ModelParams.cone(), 1.0, 10.0)
        assert all(h[0] == 0 for h in sol.coefficients)

    def test_c_zero_is_cone(self):
        _, st = seed_ac_end(ModelParams.cone(), 0.0, 10.0)
        cone = cone_state(10.0)
        assert st.a == pytest.approx(cone.a, rel=1e-13)

    def test_backward_region_signs(self):
        params = ModelParams.kmn(1, 2, 1.0)
        _, st = seed_ac_end(params, 1.0, 10.0)
        assert st.b > st.a and st.da > st.db > 0

    def test_resonance_repaired_and_h0_sector_symmetric(self):
        params = ModelParams.kmn(1, 2, 1.0)
        sol, _ = seed_ac_end(params, 1.0, 10.0)
        assert (2, 0) in sol.repaired
        for h, cvec in sol.coefficients.items():
            if h[1] == 0 and h[0] <= 3:
                assert abs(cvec[2] - cvec[3]) < 1e-9 * (1 + np.max(np.abs(cvec)))

    def test_normalized_mode_coefficient(self):
        """(54/sqrt3) t^-3 (b - a) -> c t^-nu_inf."""
        params = ModelParams.kmn(1, 2, 1.0)
        c = 0.8
        vals = []
        for T in (10.0, 20.0):
            _, st = seed_ac_end(params, c, T)
            vals.append(54 / SQRT3 * T**-3 * (st.b - st.a) * T**NUINF)
        # the forced t^-3 ladder correction dies off ~ 8x per T doubling;
        # much beyond T = 20 the decaying mode drops under float granularity
        assert vals[-1] == pytest.approx(c, rel=1e-2)
        assert abs(vals[0] - c) > 5 * abs(vals[-1] - c)

    def test_hamiltonian_budget(self):
        params = ModelParams.kmn(2, 3, 1.0)
        _, st = seed_ac_end(params, 1.0, 10.0)
        vol = 2 * st.da**2 * st.db
        assert abs(hamiltonian(st, params)) <= 1e-10 * (1 + vol)

    def test_too_small_T_rejected(self):
        with pytest.raises(SeedError):
            seed_ac_end(ModelParams.kmn(2, 3, 1.0), 1.0, 2.0)


def _b7(r0, ratio):
    a1 = 1.0 / (64.0 * r0 * (2.0 + ratio))
    return SeedSpec(family="b7", r0=r0, alphas=(a1, a1, ratio * a1))


def _d7(r0, alpha3):
    return SeedSpec(family="d7", r0=r0, alphas=(None, None, alpha3))


# (a, b, da, db) of the B7 seeds at ratio alpha3/alpha1 and the D7 seeds at alpha3,
# at the default switch parameter 0.1 r0, as the 6-unknown series read back through
# sqrt(x1 x2 x3) gave them
FINGERPRINT = {
    ("b7", 0.2, 0.5): (0.12531258875763937, 0.12531251774459226, 0.012507099780863135, 0.012501419124109242),
    ("b7", 0.2, 1.0): (1.002500710061115, 1.002500141956738, 0.05002839912345254, 0.05000567649643697),
    ("b7", 0.2, 2.0): (8.02000568048892, 8.020001135653905, 0.20011359649381016, 0.20002270598574787),
    ("b7", 1.0, 0.5): (0.12531256508518981, 0.12531256508518981, 0.012505206056584449, 0.012505206056584449),
    ("b7", 1.0, 1.0): (1.0025005206815185, 1.0025005206815185, 0.050020824226337794, 0.050020824226337794),
    ("b7", 1.0, 2.0): (8.020004165452148, 8.020004165452148, 0.20008329690535118, 0.20008329690535118),
    ("b7", 4.0, 0.5): (0.12531253251682267, 0.12531263023006936, 0.012502599935551932, 0.012510419276376037),
    ("b7", 4.0, 1.0): (1.0025002601345814, 1.0025010418405549, 0.05001039974220773, 0.05004167710550415),
    ("b7", 4.0, 2.0): (8.020002081076651, 8.020008334724439, 0.20004159896883092, 0.2001667084220166),
    ("d7", 0.5, 0.5): (0.0004420548772390167, 0.0001562330578161902, 0.01768671937633402, 0.006248645105920386),
    ("d7", 0.5, 1.0): (0.0035364390179121337, 0.0012498644625295217, 0.07074687750533608, 0.024994580423681544),
    ("d7", 0.5, 2.0): (0.02829151214329707, 0.009998915700236173, 0.2829875100213443, 0.09997832169472617),
    ("d7", 1.0, 0.5): (0.0003125650851898098, 0.0003125650851898098, 0.012505206056584449, 0.012505206056584449),
    ("d7", 1.0, 1.0): (0.0025005206815184784, 0.0025005206815184784, 0.050020824226337794, 0.050020824226337794),
    ("d7", 1.0, 2.0): (0.020004165452147827, 0.020004165452147827, 0.20008329690535118, 0.20008329690535118),
    ("d7", 2.0, 0.5): (0.0002199737634862634, 0.0006296042696529259, 0.008758453131534154, 0.025372053278172466),
    ("d7", 2.0, 1.0): (0.0017597901078901072, 0.0050368341572234075, 0.03503381252613662, 0.10148821311268987),
    ("d7", 2.0, 2.0): (0.014078320863120858, 0.04029467325778726, 0.14013525010454647, 0.40595285245075946),
}
_MAKE = {"b7": _b7, "d7": _d7}


def _fingerprint_ulps(family, value, r0):
    """The largest distance of the seed's (a, b, da, db) from its pinned value, in ulps of the pin."""
    _, st, _ = _MAKE[family](r0, value).build()
    pinned = FINGERPRINT[family, value, r0]
    return max(abs(x - p) / np.spacing(p) for x, p in zip((st.a, st.b, st.da, st.db), pinned))


class TestSeedFingerprint:
    """The B7 and D7 seeds keep their pinned states to 2 ulps: the series agree bit for
    bit, and da = sqrt(x3), db = x1/da round differently from sqrt(x1 x2 x3)/x_i."""

    @pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "family, value",
        [("b7", 0.2), ("b7", 1.0), ("b7", 4.0), ("d7", 0.5), ("d7", 1.0), ("d7", 2.0)],
        ids=["b7-0.2", "b7-1", "b7-4", "d7-0.5", "d7-1", "d7-2"],
    )
    def test_state_matches_the_pinned_value(self, family, value, r0):
        assert _fingerprint_ulps(family, value, r0) <= 2

    def test_a_perturbed_right_side_fails_the_check(self, monkeypatch):
        """The check can fail: a 1e-9 t^2 forcing on X1 alone moves the B7 seed off its pin."""
        phi = sd._phi_delta_su2

        def skewed():
            rhs = phi()

            def bent(ys):
                out = rhs(ys)
                out[0] = out[0] + 1e-9 * sd._mono(ys[0].lattice, ys[0].order, 2)
                return out

            return bent

        monkeypatch.setattr(sd, "_phi_delta_su2", skewed)
        assert _fingerprint_ulps("b7", 0.2, 1.0) > 2


class TestHandoffStability:
    @pytest.mark.parametrize(
        "spec",
        [
            SeedSpec(family="delta_su2", r0=1.0, alphas=(1 / 160, 1 / 160, 1 / 320), switch_parameter=0.1),
            SeedSpec(family="su2_factor", r0=1.0, alphas=(2**0.25, 2**0.25, 2**-0.5), switch_parameter=0.1),
            SeedSpec(family="kmn", m=1, n=2, beta=4.0, switch_parameter=0.06),
            SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1),
        ],
        ids=["b7", "d7", "kmn", "cs"],
    )
    def test_half_switch_agrees_at_checkpoint(self, spec):
        """Integrating from t_switch and t_switch/2 agrees at a common checkpoint."""
        import dataclasses

        t1 = spec.switch_parameter
        t_check = 3.0 * t1
        states = []
        for t0 in (t1, t1 / 2):
            params, st, _ = dataclasses.replace(spec, switch_parameter=t0).build()
            traj = integrate(st, t0, params, [], Budget(span=t_check - t0), rtol=1e-12)
            states.append(traj.zs[-1])
        z1, z2 = states
        assert np.max(np.abs(z1 - z2) / (np.abs(z1) + 1e-12)) < 1e-7


class TestSeedSpec:
    def test_build_families(self):
        for spec in (
            SeedSpec(family="cone", switch_parameter=1.0),
            SeedSpec(family="cs_end", c=0.5),
            SeedSpec(family="kmn", m=1, n=2, beta=3.0),
        ):
            params, state, _ = spec.build()
            assert state is not None

    def test_u1_state_exactly_on_the_u1_locus(self):
        """build returns the seed constructors' U1State, and a seed off the locus is refused."""
        kmn = ModelParams.kmn(1, 2, 1.0)
        on_locus = [
            (SeedSpec(family="b7", alphas=(1 / 160, 1 / 160, 1 / 320), switch_parameter=0.1),
             seed_delta_su2(1 / 160, 1 / 320, 0.1)[1]),
            (SeedSpec(family="d7", alphas=(2**0.5, 2**0.5, 0.5), switch_parameter=0.1),
             seed_su2_factor(2**0.5, 0.5, 0.1)[1]),
            (SeedSpec(family="kmn", m=1, n=2, beta=4.0, switch_parameter=0.05),
             seed_kmn(1, 2, 4.0, t_switch=0.05)[1]),
            (SeedSpec(family="cs", c=1.0, switch_parameter=0.1), seed_cs_end(1.0, 0.1)[1]),
            (SeedSpec(family="ac", m=1, n=2, c=1.0, switch_parameter=10.0), seed_ac_end(kmn, 1.0, 10.0)[1]),
            (SeedSpec(family="cone", switch_parameter=1.0), cone_state(1.0)),
        ]
        for spec, low_level in on_locus:
            _, state, _ = spec.build()
            assert isinstance(state, U1State), spec.family
            assert state == low_level, spec.family
        off_locus = [
            dict(family="b7", alphas=(1 / 150, 1 / 200, 1 / 64 - 1 / 150 - 1 / 200)),
            dict(family="d7", alphas=(2.0, 1.0, 0.5)),
            dict(family="b7", alphas=(None, 1 / 150, 1 / 320)),
        ]
        for kwargs in off_locus:
            with pytest.raises(ConstraintError, match="U\\(1\\) locus"):
                SeedSpec(switch_parameter=0.1, **kwargs)

    def test_unknown_family(self):
        with pytest.raises(ConstraintError):
            SeedSpec(family="nope").build()

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize(
        "inputs",
        [
            dict(family="cone"),
            dict(family="b7", alphas=(None, None, 0.002)),
            dict(family="d7", alphas=(None, None, 2**-0.5)),
            dict(family="kmn", m=1, n=2, beta=2.0),
            dict(family="cs", c=0.5),
            dict(family="ac", m=1, n=2, c=0.5),
        ],
        ids=lambda inputs: inputs["family"],
    )
    def test_switch_parameter_must_be_positive(self, inputs, t):
        with pytest.raises(ConstraintError, match="switch parameter"):
            SeedSpec(switch_parameter=t, **inputs)


@pytest.mark.parametrize("r0", [0.0, -1.0])
@pytest.mark.parametrize(
    "family",
    [ModelParams.delta_su2, ModelParams.su2_factor, lambda r0: ModelParams.kmn(1, 2, r0)],
    ids=["delta_su2", "su2_factor", "kmn"],
)
def test_every_family_requires_positive_r0(family, r0):
    with pytest.raises(ConstraintError, match="r0"):
        family(r0)


@pytest.mark.parametrize("m, n", [(1.5, 2), (1, 2.5), (math.nan, 1)])
def test_kmn_requires_integral_m_n(m, n):
    """A non-integral (m, n) is refused, not truncated to int: K(1.5, 2) is no K(1, 2)."""
    with pytest.raises(ConstraintError, match="\\(m, n\\)"):
        ModelParams.kmn(m, n, 1.0)
    with pytest.raises(ConstraintError, match="\\(m, n\\)"):
        SeedSpec(family="kmn", m=m, n=n, beta=4.0).build()
    with pytest.raises(ConstraintError, match="\\(m, n\\)"):
        seed_kmn(m, n, 4.0, 0.1)
