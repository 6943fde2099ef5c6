import json
import math

import numpy as np
import pytest
import scipy.optimize

from g2flow import dop853, shooter
from g2flow.dop853 import brentq
from g2flow.errors import BracketError, ClosureError, SeedError
from g2flow.flow import Budget, StopEvent, _margin_fn, integrate, vec_to_state
from g2flow.params import ModelParams
from g2flow.seeds import NUINF, seed_ac_end, seed_kmn
from g2flow.shooter import (
    AC_T_SWITCH,
    GammaCurve,
    closure_extract_beta,
    extend_ac_backward,
    find_beta_ac,
    find_c_ac,
    TOL_FLOOR,
    _root_on_miss,
)


def _b_at_a(traj, a: float) -> float:
    """b where the run passes a, on its step interpolants."""
    az = traj.zs[:, 2]
    i = int(np.flatnonzero((az[:-1] - a) * (az[1:] - a) <= 0)[0])
    t = brentq(lambda t: traj.interpolate(t)[2] - a, traj.ts[i], traj.ts[i + 1], xtol=1e-14)
    return traj.interpolate(t)[3]


class TestGammaCurve:
    def test_corner_flags(self):
        gamma = GammaCurve(m=1, n=2, k=1.5)
        # the corner (0, mn) lies on gamma1 and on gamma2
        assert gamma.corner_b == 2.0
        assert gamma.gamma2_margin(0.0, gamma.corner_b) == 0.0

    def test_gamma1_any_a(self):
        gamma = GammaCurve(m=1, n=2, k=1.5)
        # the hits_gamma1 stop of a backward run reads b - mn, whatever a
        stop = StopEvent.make("hits_gamma1", level=gamma.corner_b)
        g, _ = _margin_fn(stop, ModelParams.kmn(1, 2, 1.0), None)
        for a in (0.5, 1.0, 3.0):
            assert g(1.0, np.array([0.1, 1.0, a, gamma.corner_b])) == 0.0

    def test_gamma2_value(self):
        gamma = GammaCurve(m=1, n=2, k=1.5)
        assert gamma.gamma2_margin(1.0, 3.0) == pytest.approx(1.5 - 5.0 / math.sqrt(28.0))

    def test_k_range_enforced(self):
        with pytest.raises(ValueError):
            GammaCurve(m=1, n=2, k=2.5)


class TestBackwardExtension:
    def test_small_c_hits_gamma1(self):
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        _, st = seed_ac_end(params, 1.0, 10.0)
        traj, hit = extend_ac_backward((params, st), 10.0, gamma)
        assert hit == "gamma1"

    def test_large_c_hits_gamma2(self):
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        cscale = (54.0 / math.sqrt(3.0) * 2.0) ** (NUINF / 3.0)
        _, st = seed_ac_end(params, 8.0 * cscale, 10.0)
        traj, hit = extend_ac_backward((params, st), 10.0, gamma)
        assert hit == "gamma2"

    def test_mu_decreases_backward(self):
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        _, st = seed_ac_end(params, 1.0, 10.0)
        traj, _ = extend_ac_backward((params, st), 10.0, gamma)
        mu = traj.zs[:, 0] / traj.zs[:, 1]  # db/da = x1 / x2
        assert np.all(np.diff(mu) < 0)  # backward direction: mu shrinks

    def test_c_nonpositive_rejected(self):
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        _, st = seed_ac_end(params, 0.0, 10.0)
        with pytest.raises(SeedError):
            extend_ac_backward((params, st), 10.0, gamma)


class TestClosure:
    def test_forward_seed_roundtrip_beta(self):
        """Integrate a kmn seed forward, shoot back to the corner, recover beta = 1."""
        m, n, beta = 1, 2, 1.0
        params = ModelParams.kmn(m, n, 1.0)
        _, st = seed_kmn(m, n, beta, t_switch=0.02)
        # forward in t (staying clear of the F = 0 wall), then back to the corner
        fwd = integrate(st, 0.02, params, [], Budget(span=0.4), rtol=1e-12)
        end = vec_to_state(fwd.system, fwd.ts[-1], fwd.zs[-1])
        back = integrate(
            end, fwd.ts[-1], params,
            [StopEvent.make("hits_corner", eps=1e-5)],
            Budget(span=fwd.ts[-1]), direction=-1, rtol=1e-12,
        )
        beta_rec, resid = closure_extract_beta(back, m, n)
        assert beta_rec == pytest.approx(beta, rel=1e-6)
        assert resid["beta_cross_mismatch"] < 1e-4

    def test_noncritical_gamma2_raises(self):
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        cscale = (54.0 / math.sqrt(3.0) * 2.0) ** (NUINF / 3.0)
        _, st = seed_ac_end(params, 8.0 * cscale, 10.0)
        traj, hit = extend_ac_backward((params, st), 10.0, gamma)
        assert hit == "gamma2"
        with pytest.raises(ClosureError):
            closure_extract_beta(traj, 1, 2)


class TestNoCross:
    def test_ordered_solutions_stay_ordered_backward(self):
        """b1 > b2 with db1 < db2 at common a persists while in the region."""
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        cscale = (54.0 / math.sqrt(3.0) * 2.0) ** (NUINF / 3.0)
        trajs = []
        for c in (1.0 * cscale, 2.0 * cscale):
            _, st = seed_ac_end(params, c, 10.0)
            traj, _ = extend_ac_backward((params, st), 10.0, gamma)
            trajs.append(traj)
        t1, t2 = trajs  # t2 has the larger c: should lie above (larger b at same a)
        lo = max(t1.zs[-1, 2], t2.zs[-1, 2]) * 1.05
        hi = min(t1.zs[0, 2], t2.zs[0, 2]) * 0.95
        for a in np.linspace(lo, hi, 25):
            assert _b_at_a(t2, a) > _b_at_a(t1, a)

    def test_forward_no_cross_from_seeds(self):
        """Seeds with larger beta sit below in b at matched a (forward ordering)."""
        params = ModelParams.kmn(1, 2, 1.0)
        trajs = []
        for beta in (3.0, 4.0):
            _, st = seed_kmn(1, 2, beta, t_switch=0.02)
            trajs.append(integrate(st, 0.02, params, [], Budget(span=2.0), rtol=1e-11))
        lo = max(trajs[0].zs[0, 2], trajs[1].zs[0, 2]) * 1.3
        hi = min(trajs[0].zs[-1, 2], trajs[1].zs[-1, 2]) * 0.9
        for a in np.linspace(lo, hi, 20):
            assert _b_at_a(trajs[0], a) > _b_at_a(trajs[1], a)


class TestBisections:
    def test_find_c_ac_monotone_split_and_determinism(self):
        res1 = find_c_ac(1, 2, 1.0, tol=1e-4)
        res2 = find_c_ac(1, 2, 1.0, tol=1e-4)
        assert res1.bracket == res2.bracket  # bit-identical reruns
        g1 = [c for c, h, _ in res1.history if h == "gamma1"]
        g2 = [c for c, h, _ in res1.history if h in ("gamma2", "corner")]
        assert max(g1) < min(g2)  # hit-segment monotonicity in c
        assert res1.bracket[0] < res1.critical_value < res1.bracket[1]

    def test_find_beta_ac_bracket(self):
        res = find_beta_ac(1, 2, 1.0, tol=1e-3)
        assert res.bracket[0] < res.critical_value < res.bracket[1]
        incompletes = [b for b, t, _ in res.history if t == "incomplete"]
        alcs = [b for b, t, _ in res.history if t == "alc"]
        assert max(incompletes) < min(alcs)

    def test_c_ac_scaling_equivariance(self):
        """c_ac(m, n, r0) = r0^nu_inf c_ac(m, n, 1), exactly: the shots run at r0 = 1."""
        unit = find_c_ac(1, 2, 1.0, tol=1e-6)
        for r0 in (0.5, 2.0):
            res = find_c_ac(1, 2, r0, tol=1e-6)
            scale = r0**NUINF
            assert res.critical_value == scale * unit.critical_value
            assert res.bracket == (scale * unit.bracket[0], scale * unit.bracket[1])
            assert [c for c, _, _ in res.history] == [scale * c for c, _, _ in unit.history]
            assert [(hit, miss) for _, hit, miss in res.history] == [(hit, miss) for _, hit, miss in unit.history]
            assert res.closure == unit.closure
            assert res.meta["T_switch"] == shooter.AC_T_SWITCH * r0
            # the critical run is the r0 = 1 run in r0's units, exactly: r0 is a power of two
            scale_z = np.array([r0**4, r0**4, r0**3, r0**3])
            assert np.array_equal(res.trajectory.ts, r0 * unit.trajectory.ts)
            assert np.array_equal(res.trajectory.zs, scale_z * unit.trajectory.zs)

    def test_beta_ac_scale_invariant(self):
        """beta_ac is scale-free: the result at any r0 is the r0 = 1 result."""

        def without_r0(res):
            out = json.loads(res.to_json())
            assert out["meta"].pop("r0") == res.meta["r0"]
            return out

        unit = without_r0(find_beta_ac(1, 2, 1.0, tol=1e-6))
        for r0 in (0.5, 1.5, 2.0):
            assert without_r0(find_beta_ac(1, 2, r0, tol=1e-6)) == unit

    def test_critical_trajectory_respects_k_bound(self):
        """On the critical backward run, k a > gamma2-expression everywhere."""
        res = find_c_ac(1, 2, 1.0, tol=1e-6)
        params = ModelParams.kmn(1, 2, 1.0)
        gamma = GammaCurve(m=1, n=2)
        _, st = seed_ac_end(params, res.critical_value, AC_T_SWITCH)
        traj, _ = extend_ac_backward((params, st), AC_T_SWITCH, gamma)
        # the result carries this same run
        assert np.array_equal(res.trajectory.ts, traj.ts) and np.array_equal(res.trajectory.zs, traj.zs)
        for _, _, a, b in traj.zs[:-1]:
            assert gamma.gamma2_margin(a, b) > 0

    @pytest.mark.parametrize("shoot", [find_c_ac, find_beta_ac], ids=["c_ac", "beta_ac"])
    def test_tolerance_below_floor_rejected(self, shoot):
        """Below TOL_FLOOR the bracket cannot shrink to tol: refuse before shooting."""
        with pytest.raises(ValueError):
            shoot(1, 1, 1.0, tol=1e-20)
        with pytest.raises(ValueError):
            shoot(1, 1, 1.0, tol=0.5 * TOL_FLOOR)


class TestShotHamiltonian:
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 3)])
    def test_critical_run_conserves_h(self, m, n):
        """Every shot is an arc-length run, so H = 0 checks it: on the critical
        runs max |H| is 4e-13 to 8e-13 of 1 + the max volume."""
        res = find_c_ac(m, n, 1.0, tol=1e-10)
        hmax, vmax = res.trajectory.hamiltonian_drift()
        assert hmax <= 1e-10 * (1 + vmax)


class TestRootOnMiss:
    def test_kinked_miss_converges_fast(self):
        """A miss with slopes 4.8 : 1 across its root, from a factor-2 bracket."""
        root = 3.0
        history: list = []

        def shoot(value):
            x = math.log(value / root)
            return ("below", 4.8 * x) if x < 0 else ("above", x)

        lo, hi, est, iterations = _root_on_miss(shoot, 2.0, 1e-10, history)
        assert len(history) <= 15
        assert iterations == len(history) - 2  # the walk took 2.0 and 4.0
        assert lo < root < hi and hi - lo <= 1e-10 * hi
        assert lo <= est <= hi and est == pytest.approx(root, rel=1e-12)
        assert [tag for _, tag, _ in history[:2]] == ["below", "above"]

    def test_miss_sign_disagreeing_with_label_raises(self, monkeypatch):
        """A gamma1 label on a run whose end gives a positive miss is refused, not used."""
        real = shooter.extend_ac_backward

        def mislabelled(seed, T, gamma, rtol=1e-11):
            traj, hit = real(seed, T, gamma, rtol=rtol)
            return traj, "gamma1"

        monkeypatch.setattr(shooter, "extend_ac_backward", mislabelled)
        with pytest.raises(BracketError, match="gamma1 hit with miss"):
            find_c_ac(1, 2, 1.0, tol=1e-6)

    def test_c_ac_shots(self):
        res = find_c_ac(1, 2, 1.0, tol=1e-6)
        assert len(res.history) <= 15  # label-only bisection took 31
        lo, hi = res.bracket
        assert lo < res.critical_value < hi and hi - lo <= 1e-6 * hi
        # each miss has its label's sign
        assert all((miss < 0) == (hit == "gamma1") for _, hit, miss in res.history)

    def test_bracket_at_tolerance_floor(self):
        res = find_c_ac(1, 1, 1.0, tol=TOL_FLOOR)
        lo, hi = res.bracket
        assert 0 < hi - lo <= TOL_FLOOR * hi
        assert lo <= res.critical_value <= hi

    def test_forward_resolution_limit(self):
        """Below about 1e-11 the forward runs cannot tell the sides apart; the
        shot that fails says so instead of returning a bracket."""
        with pytest.raises(BracketError, match="do not resolve the critical value"):
            find_beta_ac(1, 2, 1.0, tol=1e-13)


def _brent_problem(rng):
    """A monotone function with a root r, a bracket around r and Brent's tolerances."""
    r, p = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0)
    f = [
        lambda x: math.copysign(abs(x - r) ** p, x - r),
        lambda x: math.tanh(p * (x - r)) + 0.01 * (x - r) ** 3,
        lambda x: math.exp(p * (x - r)) - 1.0,
        lambda x: p * (x - r) * (1.0 + (x - r) ** 2) ** 2,
        lambda x: math.atan(x - r) ** 3 + 1e-3 * (x - r),
    ][rng.integers(5)]
    a, b = r - rng.uniform(1e-3, 4.0), r + rng.uniform(1e-3, 4.0)
    if rng.integers(2):
        a, b = b, a
    # numpy tolerances, as the event location passes them
    xtol = np.float64(10.0 ** rng.uniform(-15.0, -2.0))
    rtol = 4 * np.finfo(float).eps * 10.0 ** rng.uniform(0.0, 6.0)
    return f, a, b, xtol, rtol


def _traced(solver, f, *args, **kwargs):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    root = solver(g, *args, **kwargs)
    return root, xs


class TestBrentq:
    """The port of Brent's method equals scipy.optimize.brentq bit for bit."""

    def test_roots_and_evaluation_points_equal_scipy(self):
        rng = np.random.default_rng(2024)
        for _ in range(600):
            f, a, b, xtol, rtol = _brent_problem(rng)
            # disp=False: a run out of iterations returns its last point, compared too
            root, xs = _traced(brentq, f, a, b, xtol=xtol, rtol=rtol, disp=False)
            ref_root, ref_xs = _traced(scipy.optimize.brentq, f, a, b, xtol=xtol, rtol=rtol, disp=False)
            assert type(root) is type(ref_root) is float
            assert root == ref_root and xs == ref_xs

    def test_same_sign_ends_raise(self):
        f = lambda x: x * x - 1.0  # noqa: E731
        for solver in (brentq, scipy.optimize.brentq):
            with pytest.raises(ValueError):
                solver(f, 1.5, 3.0, xtol=1e-12)

    @pytest.mark.parametrize("maxiter", [1, 3, 5])
    def test_running_out_of_iterations(self, monkeypatch, maxiter):
        """Out of iterations it raises, or with disp=False returns scipy's last point."""
        monkeypatch.setattr(dop853, "BRENT_MAXITER", maxiter)
        f = lambda x: math.tanh(x - 0.3)  # noqa: E731
        with pytest.raises(RuntimeError):
            brentq(f, -2.0, 2.0, xtol=1e-15)
        ref = scipy.optimize.brentq(f, -2.0, 2.0, xtol=1e-15, maxiter=maxiter, disp=False)
        assert brentq(f, -2.0, 2.0, xtol=1e-15, disp=False) == ref
