import math

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from g2flow import dop853, flow
from g2flow.errors import SeedError, StiffnessError
from g2flow.flow import (
    _VECTOR_FIELDS,
    DEGENERATION_STOPS,
    Budget,
    StopEvent,
    Trajectory,
    _vf_u1_a,
    _vf_u1_arc,
    integrate,
    state_to_vec,
)
from g2flow.invariants import FullState, Param, U1State, eval_F, hamiltonian, u1_from_full
from g2flow.params import ModelParams
from g2flow.seeds import cone_state, seed_ac_end, seed_delta_su2, seed_kmn
from g2flow.shooter import to_aparam

RNG = np.random.default_rng(11)
SQRT3 = math.sqrt(3.0)


def random_u1_vec(params, rng, lo=0.5, hi=3.0):
    """A random (x1, x2, a, b) with x1, x2 > 0 and Lambda(a, a, b) < -1e-3."""
    from g2flow.invariants import eval_lambda

    while True:
        a, b = rng.uniform(lo, hi, size=2)
        if eval_lambda((a, a, b), params) >= -1e-3:
            continue
        return np.array([*rng.uniform(0.2, 2.0, size=2), a, b])


def u1_hamiltonian(z, params):
    """H of the full state ((x1, x1, x2), (a, a, b)) for z = (x1, x2, a, b)."""
    x1, x2, a, b = z
    return hamiltonian(FullState(x=np.array([x1, x1, x2]), y=np.array([a, a, b])), params)


def brandhuber_residual(a, b, da, db, dda, ddb, params):
    """Parametrization-free residual of the second-order U(1) equation."""
    f, fa, fb = eval_F(a, b, params)
    return 2 * f * (da * ddb - db * dda) - da * db * (da * fa - 2 * db * fb)


class TestRhs:
    def test_gradient_oracle(self):
        """The U(1) field is the Hamiltonian field restricted to x = (x1, x1, x2),
        y = (a, a, b): (dH/da / 2, dH/db, -dH/dx1 / 2, -dH/dx2) by central finite
        differences of H on the full state."""
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            p, q = RNG.uniform(-1.5, 1.5, size=2)
            params = ModelParams.plain(p, q)
            z = random_u1_vec(params, RNG)
            dz = _vf_u1_arc(params)(0.0, z)
            grad = [
                (u1_hamiltonian(z + h * e, params) - u1_hamiltonian(z - h * e, params)) / (2 * h)
                for e in np.eye(4)
            ]
            dHdx1, dHdx2, dHda, dHdb = grad
            want = (dHda / 2, dHdb, -dHdx1 / 2, -dHdx2)
            worst = max(worst, *(abs(d - w) / (1 + abs(d)) for d, w in zip(dz, want)))
        assert worst < 1e-6

    def test_u1_restriction_of_full(self):
        params = ModelParams.plain(-1.0, 4.0)
        st = U1State(a=1.0, b=3.0, da=1.3, db=0.6)
        vec_u1 = _vf_u1_arc(params)(0.0, state_to_vec(st)[1])
        f, fa, fb = eval_F(1.0, 3.0, params)
        assert vec_u1[0] == pytest.approx(fa / (4 * math.sqrt(f)), rel=1e-13)
        assert vec_u1[1] == pytest.approx(fb / (2 * math.sqrt(f)), rel=1e-13)


    def test_overflow_gives_non_finite_values_not_exceptions(self):
        """Huge trial states overflow to inf or nan, as on numpy, instead of raising.

        b = 9.6e136 is where a rejected trial stage of acceptance criterion 7
        lands; there (b^2 + pq)^2 overflows, which ``**`` on Python floats
        turns into OverflowError.
        """
        params = ModelParams.delta_su2(1.0)
        for b in (9.6e136, 1e200):
            assert not all(math.isfinite(v) for v in eval_F(1.96, b, params))
            assert not np.all(np.isfinite(_vf_u1_arc(params)(0.0, np.array([1.0, 1.0, 1.96, b]))))
            assert not np.all(np.isfinite(_vf_u1_a(params)(1.96, np.array([b, 1.0]))))


class TestBrandhuber:
    def test_cone_solves(self):
        # s-parametrized cone: a = b = s^3 (up to scale), p = q = 0
        params = ModelParams.cone()
        s = 1.3
        r = brandhuber_residual(s**3, s**3, 3 * s**2, 3 * s**2, 6 * s, 6 * s, params)
        f, fa, fb = eval_F(s**3, s**3, params)
        scale = abs(f * s) + abs(fa) + 1
        assert abs(r) < 1e-10 * scale

    def test_zero_when_derivatives_vanish(self):
        params = ModelParams.plain(0.3, -0.2)
        # da = 0 leaves 2 F (da b'' - db a'') = 2 F (-0.3)
        assert brandhuber_residual(1.0, 2.0, 0.0, 1.0, 0.3, 0.4, params) == pytest.approx(
            -0.6 * eval_F(1.0, 2.0, params)[0], rel=1e-15
        )
        # da = 0 and a'b'' - b'a'' = 0 gives an exactly zero residual
        assert brandhuber_residual(1.0, 2.0, 0.0, 1.0, 0.0, 0.0, params) == 0.0

    def test_integrated_trajectory_h2_convergence(self):
        """Divided-difference residual along a numeric B7 trajectory is O(h^2)."""
        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)
        traj = integrate(u1_from_full(st), 0.1, params, [], Budget(span=3.0), rtol=1e-12)
        resid = []
        for h in (4e-2, 2e-2):
            t0 = 1.5
            vals = [traj.interpolate(t0 + k * h) for k in (-1, 0, 1)]
            a = [v[2] for v in vals]
            b = [v[3] for v in vals]
            da = (a[2] - a[0]) / (2 * h)
            db = (b[2] - b[0]) / (2 * h)
            dda = (a[2] - 2 * a[1] + a[0]) / h**2
            ddb = (b[2] - 2 * b[1] + b[0]) / h**2
            resid.append(abs(brandhuber_residual(a[1], b[1], da, db, dda, ddb, params)))
        order = math.log(resid[0] / resid[1]) / math.log(2.0)
        assert order > 1.5  # O(h^2) divided-difference error dominates


class TestIntegrate:
    def test_cone_forward(self):
        traj = integrate(cone_state(1.0), 1.0, ModelParams.cone(), [], Budget(span=9.0), rtol=1e-12)
        a, b, _, _ = traj.ab_arrays()
        assert np.max(np.abs(a / b - 1)) < 1e-9
        h, v = traj.hamiltonian_drift()
        assert h <= 1e-9 * (1 + v)

    def test_full_state_seed_is_refused(self):
        """integrate runs the U(1) system only; a 6-D seed is refused by name."""
        _, st = seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)
        with pytest.raises(SeedError, match="u1_from_full"):
            integrate(st, 0.1, ModelParams.delta_su2(1.0), [], Budget(span=1.0))

    def test_seed_error_off_locus(self):
        bad = U1State(a=1.0, b=5.0, da=1.0, db=1.0)  # F < 0 for p=q=0
        with pytest.raises(SeedError):
            integrate(bad, 1.0, ModelParams.cone(), [], Budget(span=1.0))

    def test_death_seed_terminates(self):
        """A state in the death quadrant ends in F_vanishes or blow_up."""
        params, st = _death_cone_state()
        traj = integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4))
        assert traj.terminal_event[0] in ("F_vanishes", "blow_up")

    def test_b7_stays_on_quartic(self):
        from g2flow.invariants import su2cubed_curve_residual

        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1.0, 1 / 192, 1 / 192, 1 / 192, 0.1)
        traj = integrate(u1_from_full(st), 0.1, params, [], Budget(span=10.0), rtol=1e-11)
        worst = 0.0
        for x, _, y, _ in traj.zs:  # x1 = da db, y1 = a
            scale = 4 * abs(x) ** 3 + 3 * y**4 + 8 * abs(y) ** 3 + 1
            worst = max(worst, abs(su2cubed_curve_residual(x, y, params)) / scale)
        assert worst <= 1e-8

    def test_symmetric_b7_holds_the_curve_to_1e_10(self):
        """Criterion 5's run: the symmetric B7 seed over 100-fold growth in a at rtol 1e-11.

        At q = -p, F in its expanded form 4 a^2 (b - p)^2 - (b^2 - p^2)^2 loses
        digits to cancellation; that took this run 1.04e-8 off the curve.
        """
        from g2flow.invariants import su2cubed_curve_residual

        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1.0, 1 / 192, 1 / 192, 1 / 192, 0.1)
        u = u1_from_full(st)
        traj = integrate(u, 0.1, params, [], Budget(span=2 * (1800 * u.a) ** (1 / 3)), rtol=1e-11)
        assert traj.zs[-1][2] >= 100 * u.a
        worst = max(
            abs(su2cubed_curve_residual(x, y, params)) / (4 * abs(x) ** 3 + 3 * y**4 + 8 * abs(y) ** 3 + 1)
            for x, _, y, _ in traj.zs
        )
        assert worst <= 1e-10
        assert np.max(np.abs(traj.zs[:, 2] / traj.zs[:, 3] - 1)) <= 1e-10

    def test_event_localization_tolerance(self):
        """The a = b crossing parameter is located to 1e-10."""
        params = ModelParams.kmn(1, 2, 1.0)
        _, st = seed_kmn(1, 2, 1.0, 4.0, t_switch=0.05)
        u = u1_from_full(st)
        traj = integrate(
            u, 0.05, params, [StopEvent.make("reaches_a_equals_b")], Budget(span=100.0), rtol=1e-12
        )
        kind, tp, zv = traj.terminal_event
        assert kind == "reaches_a_equals_b"
        assert abs(zv[2] - zv[3]) <= 1e-8 * abs(zv[2])

    def test_hamiltonian_drift_tightens_with_tolerance(self):
        """Tightening rtol by 16x cuts the drift by at least 4x."""
        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)
        u = u1_from_full(st)
        drifts = []
        for rtol in (1e-8, 1e-8 / 16):
            traj = integrate(u, 0.1, params, [], Budget(span=30.0), rtol=rtol)
            drifts.append(traj.hamiltonian_drift()[0])
        assert drifts[1] <= drifts[0] / 4

    def test_scaling_equivariance(self):
        lam = 2.0
        p1 = ModelParams.kmn(1, 2, 1.0)
        p2 = ModelParams.kmn(1, 2, lam)
        _, s1 = seed_kmn(1, 2, 1.0, 4.0, t_switch=0.05)
        _, s2 = seed_kmn(1, 2, lam, 4.0, t_switch=lam * 0.05)
        tr1 = integrate(u1_from_full(s1), 0.05, p1, [], Budget(span=4.0), rtol=1e-12)
        tr2 = integrate(u1_from_full(s2), lam * 0.05, p2, [], Budget(span=lam * 4.0), rtol=1e-12)
        for t in np.linspace(0.3, 7.9, 25):
            z2 = tr2.interpolate(t)
            z1 = tr1.interpolate(t / lam)
            assert z2[2] == pytest.approx(lam**3 * z1[2], rel=1e-8)
            assert z2[3] == pytest.approx(lam**3 * z1[3], rel=1e-8)


def _death_cone_state():
    """A cone state in the death quadrant: a = 1, b = 1.6, da / db = 0.5 a / b."""
    params = ModelParams.cone()
    a, b = 1.0, 1.6
    lam = 0.5 * a / b
    f, _, _ = eval_F(a, b, params)
    assert f > 0
    db = (math.sqrt(f) / (2 * lam * lam)) ** (1 / 3)
    return params, U1State(a=a, b=b, da=lam * db, db=db)


class TestSundmanLeg:
    """Forward arc-length legs from the death quadrant step in the Sundman clock."""

    # the end of the leg from t = 1 in the arc-length clock, where DOP853 takes
    # 95 steps into the F -> 0 end and stops on a step underflow
    ARC_CLOCK_END = 1.1647809698210547

    def test_reaches_the_end_in_few_steps(self):
        params, st = _death_cone_state()
        traj = integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4), rtol=1e-11)
        kind, t_end, z_end = traj.terminal_event
        assert kind in ("F_vanishes", "blow_up")
        assert t_end == traj.ts[-1] and np.array_equal(z_end, traj.zs[-1])
        assert abs(t_end - self.ARC_CLOCK_END) <= 1e-10 * self.ARC_CLOCK_END
        assert len(traj.segments) <= 40
        assert traj.system == "u1_arc" and traj.zs.shape[1] == 4
        assert np.all(np.diff(traj.ts) >= 0)

    def test_ends_at_the_w_zero_point_without_a_blow_up_margin(self):
        """With no stop registered, the leg ends where w = da reaches 0, at the same t."""
        params, st = _death_cone_state()
        traj = integrate(st, 1.0, params, [], Budget(span=5e4), rtol=1e-11)
        kind, t_end, z_end = traj.terminal_event
        assert kind == "blow_up"
        assert abs(t_end - self.ARC_CLOCK_END) <= 1e-9 * self.ARC_CLOCK_END
        assert z_end[1] <= 1e-12 * z_end[0] ** 2  # x2 = w^2

    def test_budget_ends_at_exactly_the_span(self):
        params, st = _death_cone_state()
        span = 0.1
        traj = integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=span))
        kind, t_end, _ = traj.terminal_event
        assert kind == "budget_exhausted"
        assert t_end == 1.0 + span == traj.ts[-1]
        # the located stop sits within its tolerance of t_end; interpolate still covers it
        assert np.array_equal(traj.interpolate(t_end), traj.zs[-1])
        for t in (np.nextafter(t_end, 0.0), t_end - 1e-12, t_end - 1e-9):
            assert np.allclose(traj.interpolate(t), traj.zs[-1], rtol=1e-7)

    def test_interpolate_covers_the_leg(self):
        params, st = _death_cone_state()
        traj = integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4))
        assert len(traj.segments) == len(traj) - 1
        for t, z in zip(traj.ts, traj.zs):
            assert np.array_equal(traj.interpolate(t), z)
        inside = np.concatenate([np.linspace(traj.ts[0], traj.ts[-1], 501), (traj.ts[:-1] + traj.ts[1:]) / 2])
        for t in inside:
            z = traj.interpolate(t)
            assert np.all(np.isfinite(z)) and z[1] >= 0
        # the state read back at t lies between its neighbouring samples
        i = len(traj) // 2
        mid = traj.interpolate(0.5 * (traj.ts[i] + traj.ts[i + 1]))
        assert min(traj.zs[i][3], traj.zs[i + 1][3]) <= mid[3] <= max(traj.zs[i][3], traj.zs[i + 1][3])

    def test_step_points_follow_the_step_clock(self):
        params, st = _death_cone_state()
        traj = integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4))
        for i in range(len(traj.segments)):
            pts = traj.step_points(i, 4)
            assert len(pts) == 4
            ts = [t for t, _ in pts]
            assert traj.ts[i] <= ts[0] and ts[-1] <= traj.ts[i + 1] and np.all(np.diff(ts) > 0)

    def test_step_underflow_raises(self, monkeypatch):
        """Underflow raises on a Sundman-clock leg; elsewhere a blow_up stop still takes it."""

        class Underflowing(flow.DOP853):
            def step(self):
                super().step()
                self.status = "failed"

        monkeypatch.setattr(flow, "DOP853", Underflowing)
        params, st = _death_cone_state()
        with pytest.raises(StiffnessError):
            integrate(st, 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4))
        traj = integrate(cone_state(1.0), 1.0, params, list(DEGENERATION_STOPS), Budget(span=5e4))
        assert traj.terminal_event[0] == "blow_up" and len(traj) == 1


def _b7_arc_run():
    _, st = seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)
    return u1_from_full(st), 0.1, ModelParams.delta_su2(1.0), 3.0


def _kmn_a_run():
    _, st = seed_kmn(1, 2, 1.0, 4.0, t_switch=0.05)
    u = u1_from_full(st)
    return U1State(a=u.a, b=u.b, da=1.0, db=u.db / u.da, param=Param.A_EQUALS_S), u.a, ModelParams.kmn(1, 2, 1.0), 2.0


def _ac_backward_a_run():
    """The backward a-parametrized leg from an AC end near c_ac(1,2) that c_ac shooting takes."""
    params = ModelParams.kmn(1, 2, 1.0)
    _, st = seed_ac_end(params, 991210.0, 10.0)
    seed = to_aparam(st)
    return seed, seed.a, params, -0.9 * seed.a


class TestDenseOutput:
    @pytest.mark.parametrize(
        "run",
        [_b7_arc_run, _kmn_a_run, _ac_backward_a_run],
        ids=["b7_u1_arc", "kmn_u1_a", "ac_u1_a_backward"],
    )
    def test_matches_solve_ivp_bit_for_bit(self, run):
        """Steps and step interpolants equal scipy's own DOP853 driver exactly."""
        seed, t0, params, span = run()  # a negative span runs backwards
        rtol = 1e-11
        traj = integrate(
            seed, t0, params, [], Budget(span=abs(span)), direction=1 if span > 0 else -1, rtol=rtol,
        )
        system, z0 = state_to_vec(seed)
        assert traj.system == system
        res = solve_ivp(
            _VECTOR_FIELDS[system](params), (t0, t0 + span), z0, method="DOP853", dense_output=True,
            rtol=rtol, atol=flow.ATOL_SCALE * max(1.0, float(np.max(np.abs(z0)))),
        )
        assert res.success and len(res.t) > 10
        assert np.array_equal(traj.ts, res.t)
        assert np.array_equal(traj.zs, res.y.T)
        for t in np.concatenate([(traj.ts[:-1] + traj.ts[1:]) / 2, traj.ts[:-1] + 0.1 * np.diff(traj.ts)]):
            assert np.array_equal(traj.interpolate(t), res.sol(t))

    @pytest.mark.parametrize("direction", [+1, -1])
    def test_interpolate_returns_stored_nodes(self, direction):
        traj = integrate(cone_state(1.0), 1.0, ModelParams.cone(), [], Budget(span=0.5), direction=direction)
        assert len(traj.segments) == len(traj) - 1 > 3
        for t, z in zip(traj.ts[:-1], traj.zs[:-1]):
            assert np.array_equal(traj.interpolate(t), z)
        assert np.allclose(traj.interpolate(traj.ts[-1]), traj.zs[-1], rtol=1e-14)
        with pytest.raises(ValueError):
            traj.interpolate(traj.ts[-1] + direction * 1e-3)

    def test_event_state_is_read_off_the_step_interpolant(self):
        params = ModelParams.kmn(1, 2, 1.0)
        _, st = seed_kmn(1, 2, 1.0, 4.0, t_switch=0.05)
        traj = integrate(u1_from_full(st), 0.05, params, [StopEvent.make("reaches_a_equals_b")], Budget(span=100.0))
        kind, tp, zv = traj.terminal_event
        assert kind == "reaches_a_equals_b" and tp == traj.ts[-1]
        assert traj.segments[-1].t_min < tp < traj.segments[-1].t_max
        assert np.array_equal(traj.interpolate(tp), zv)

    def test_resampled_trajectory_refuses_to_interpolate(self):
        """A trajectory without interpolants reads back its samples and nothing else."""
        traj = integrate(cone_state(1.0), 1.0, ModelParams.cone(), [], Budget(span=9.0), rtol=1e-12)
        bare = Trajectory(system=traj.system, params=traj.params, ts=traj.ts, zs=traj.zs, segments=[])
        for i in (0, 1, len(bare) - 1):
            assert np.array_equal(bare.interpolate(bare.ts[i]), bare.zs[i])
        for t in (0.5 * (bare.ts[0] + bare.ts[1]), 0.5 * (bare.ts[-2] + bare.ts[-1])):
            with pytest.raises(ValueError):
                bare.interpolate(t)


def _oscillator(_t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1] * abs(y[1])])


def _riccati(t, y):
    # y' = y^2 + t blows up in finite time, where the step underflows
    return np.array([y[0] * y[0] + t])


class TestDop853Port:
    """The in-repo DOP853 steps as scipy's does, bit for bit, with scipy as the oracle."""

    @pytest.mark.parametrize("name", ["C", "A", "B", "E3", "E5", "D"])
    def test_coefficient_tables_equal_scipy(self, name):
        assert np.array_equal(getattr(dop853, name), getattr(dop853_coefficients, name))

    @pytest.mark.parametrize(
        "fun, t0, y0, t_bound, rtol, atol",
        [
            (_oscillator, 0.0, [1.0, 0.0], 12.5, 1e-9, 1e-12),
            (_oscillator, 3.0, [0.2, -1.5], -4.0, 1e-11, 1e-13),
            (_riccati, 0.0, [0.5], 5.0, 1e-10, 1e-12),
        ],
        ids=["forward", "backward", "underflow"],
    )
    def test_steps_equal_scipy_step_by_step(self, fun, t0, y0, t_bound, rtol, atol):
        """Every step, evaluation count, status and interpolant equals scipy.integrate.DOP853's."""
        ours = dop853.DOP853(fun, t0, np.array(y0), t_bound, rtol=rtol, atol=atol)
        ref = scipy.integrate.DOP853(fun, t0, np.array(y0), t_bound, rtol=rtol, atol=atol)
        assert ours.nfev == ref.nfev == 2 and ours.h_abs == ref.h_abs
        steps = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while ref.status == "running":
                ref.step()
                ours.step()
                # scipy's dense output evaluates three extra stages through its counter
                assert ours.status == ref.status and ours.nfev == ref.nfev - len(ours.C_EXTRA) * steps
                steps += 1
                assert (ours.nfev - 2) % ours.n_stages == 0
                if ref.status == "failed":
                    break
                assert ours.t == ref.t and ours.t_old == ref.t_old and ours.h_previous == ref.h_previous
                assert np.array_equal(ours.y, ref.y) and np.array_equal(ours.f, ref.f)
                sol = dop853.dense_output(fun, ours.K_extended, ours.t_old, ours.t, ours.y_old, ours.y, ours.f)
                ref_sol = ref.dense_output()
                inside = ours.t_old + (ours.t - ours.t_old) * np.array([0.0, 0.1, 0.5, 0.9, 1.0])
                assert np.array_equal(sol(inside), ref_sol(inside))
                assert np.array_equal(sol(inside[2]), ref_sol(inside[2]))
        assert steps > 10
        assert ours.status == ("failed" if fun is _riccati else "finished")
