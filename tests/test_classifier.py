import math

import numpy as np
import pytest

from g2flow import classify, shooter
from g2flow.classify import (
    ClassifyBudget,
    alc_strict_supported,
    chamber_membership,
    classify_trajectory,
    extract_alc_ell,
)
from g2flow.errors import ConvergenceError, DomainError, SeedError, StiffnessError
from g2flow.flow import (
    ALC_HORIZON, Budget, StopEvent, Trajectory, _margin_fn, integrate, state_to_vec, vec_to_state,
)
from g2flow.invariants import U1State, eval_F
from g2flow.params import ModelParams
from g2flow.seeds import NU0, SeedSpec, seed_ac_end, seed_cs_end, seed_delta_su2
from g2flow.verification import _b7_spec, _d7_spec

RNG = np.random.default_rng(5)


def on_shell(a, b, lam, params):
    """Arc-length state with da/db = lam on the H = 0 shell."""
    f, _, _ = eval_F(a, b, params)
    assert f > 0
    db = (math.sqrt(f) / (2 * lam * lam)) ** (1 / 3)
    return U1State(a=a, b=b, da=lam * db, db=db)


class TestChamberMembership:
    def test_b7_seed_in_alc_strict(self):
        params = ModelParams.delta_su2(1.0)
        _, st = seed_delta_su2(1.0, 1 / 160, 1 / 160, 1 / 320, 0.1)
        from g2flow.invariants import u1_from_full

        mem = chamber_membership(u1_from_full(st), params)
        assert {"alc_chamber", "alc_strict"} <= mem

    def test_cs_negative_c_in_death(self):
        _, st = seed_cs_end(-1.0, 0.1)
        assert "death_quadrant" in chamber_membership(st, ModelParams.cone())

    def test_ac_end_in_backward_region(self):
        params = ModelParams.kmn(1, 2, 1.0)
        _, st = seed_ac_end(params, 1.0, 10.0)
        assert "ac_backward" in chamber_membership(st, params)

    def test_domain_error_off_locus(self):
        with pytest.raises(DomainError):
            chamber_membership(U1State(a=1.0, b=5.0, da=1.0, db=1.0), ModelParams.cone())

    def test_alc_strict_refused_outside_hypotheses(self):
        # q < p and q != -p: the convergence proposition does not apply
        params = ModelParams.plain(1.0, -2.0)
        st = on_shell(7.0, 5.0, 2.0, params)
        mem = chamber_membership(st, params)
        assert "alc_chamber" in mem and "alc_strict" not in mem


# criterion 7's parameter sets, plus one outside the strict-chamber hypotheses
DRIFT_PARAMS = [
    ModelParams.delta_su2(1.0),
    ModelParams.su2_factor(1.0),
    ModelParams.kmn(1, 2, 1.0),
    ModelParams.kmn(2, 3, 1.0),
    ModelParams.cone(),
    ModelParams.plain(1.0, -2.0),
]


def _ratio(rng):
    """Exactly 1, within 4e-9 of 1 (across the 1e-9 relative cushion), or anywhere."""
    u = rng.uniform()
    return 1.0 if u < 0.1 else 1.0 + rng.uniform(-4e-9, 4e-9) if u < 0.5 else rng.uniform(0.2, 3.0)


def wall_states(params, rng, count=400):
    """On-shell states in and around every region, many on or within rounding of a wall."""
    bfl = params.b_floor
    base = max(bfl, params.scale3, 0.3)
    states = []
    while len(states) < count:
        b = bfl * _ratio(rng) if bfl > 0 and rng.uniform() < 0.25 else bfl + base * rng.uniform(0.05, 2.0)
        a = b * _ratio(rng) * (-1.0 if rng.uniform() < 0.1 else 1.0)
        lam = _ratio(rng) * (abs(a) / b if rng.uniform() < 0.5 else 1.0)
        if eval_F(a, b, params)[0] > 0:
            states.append(on_shell(a, b, lam, params))
    return states


class TestChambersDefinedOnce:
    """Stop events, membership and the backward seed check read the same inequalities."""

    @pytest.mark.parametrize("params", DRIFT_PARAMS, ids=lambda p: f"p={p.p:g},q={p.q:g}")
    def test_event_margins_agree_with_membership(self, params):
        def margin(kind, **data):
            return _margin_fn(StopEvent.make(kind, **data), "u1_arc", params, None)[0]

        alc, alc_strict = margin("enters_alc_chamber"), margin("enters_alc_chamber", strict=True)
        death = margin("enters_death_chamber")
        seen = set()
        for st in wall_states(params, np.random.default_rng(17)):
            z = state_to_vec(st)[1]
            st = vec_to_state("u1_arc", 0.0, z)  # the (a, b, da, db) the margins read
            mem = chamber_membership(st, params)
            assert ("alc_chamber" in mem) == (alc(0.0, z) > 0)
            assert ("alc_strict" in mem) == (alc_strict_supported(params) and alc_strict(0.0, z) > 0)
            assert ("death_quadrant" in mem) == (st.a > 0 and death(0.0, z) > 0)
            seen |= {(name, name in mem) for name in ("alc_chamber", "death_quadrant")}
        assert len(seen) == 4  # each chamber both entered and missed

    @pytest.mark.parametrize("params", DRIFT_PARAMS, ids=lambda p: f"p={p.p:g},q={p.q:g}")
    def test_backward_seed_check_agrees_with_membership(self, params, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*_args, **_kwargs):
            raise Admitted

        monkeypatch.setattr(shooter, "integrate", admitted)  # stop at the run an admitted seed starts
        gamma = shooter.GammaCurve(m=1, n=2, r0=1.0)
        admitted_count = 0
        states = wall_states(params, np.random.default_rng(23))
        for st in states:
            inside = "ac_backward" in chamber_membership(st, params)
            with pytest.raises(Admitted if inside else SeedError):
                shooter.extend_ac_backward((params, st), gamma)
            admitted_count += inside
        assert 0 < admitted_count < len(states)


class TestExtractEll:
    def test_synthetic_alc_model(self):
        """a = t^3/18, b = ell t^2/6 reproduces ell to 1e-6 by both estimators."""
        ell = 2.0
        ts = np.linspace(800.0, 1600.0, 200)
        zs = []
        for t in ts:
            a = t**3 / 18
            b = ell * t**2 / 6
            da = t**2 / 6
            db = ell * t / 3
            zs.append([da * db, da * da, a, b])
        traj = Trajectory(
            system="u1_arc", params=ModelParams.cone(), ts=ts, zs=np.array(zs), segments=[]
        )
        e1, e2, e3 = extract_alc_ell(traj)
        assert e1 == pytest.approx(ell, abs=1e-6)
        assert e2 == pytest.approx(ell, abs=1e-6)
        assert e3 == pytest.approx(ell, abs=1e-6)

    def test_refuses_trajectories_outside_the_arc_length_system(self):
        """ell is read off (x1, x2, a, b) in arc length: a full or an a-parametrized run is refused."""
        ts = np.array([800.0, 1600.0])
        for system, width in (("full", 6), ("u1_a", 2)):
            traj = Trajectory(system=system, params=ModelParams.cone(), ts=ts, zs=np.ones((2, width)))
            with pytest.raises(DomainError, match="arc-length"):
                extract_alc_ell(traj)


class TestClassify:
    def test_b7_ladder_with_ell_monotone(self):
        ells = []
        for ratio in (0.2, 0.4, 0.6):
            a1 = 1.0 / (64 * (2 + ratio))
            v = classify_trajectory(
                SeedSpec(family="delta_su2", r0=1.0, alphas=(a1, a1, ratio * a1), switch_parameter=0.1)
            )
            assert v.kind == "ALC"
            assert abs(v.ell - v.ell_alt) / v.ell <= 0.02
            ells.append(v.ell)
        # fixed singular-orbit scale: smaller alpha3/alpha1 collapses the circle
        assert ells[0] < ells[1] < ells[2]

    def test_d7_trichotomy(self):
        for a3, want in ((0.8, "ALC"), (1.0, "AC"), (1.25, "Incomplete")):
            a1 = 1 / math.sqrt(a3)
            v = classify_trajectory(
                SeedSpec(family="su2_factor", r0=1.0, alphas=(a1, a1, a3), switch_parameter=0.1)
            )
            assert v.kind == want, (a3, v.kind, v.reason)

    def test_cs_trichotomy(self):
        for c, want in ((0.5, "ALC"), (0.0, "AC"), (-0.5, "Incomplete")):
            v = classify_trajectory(SeedSpec(family="cs_end", c=c, switch_parameter=0.1))
            assert v.kind == want, (c, v.kind, v.reason)

    def test_incomplete_carries_event(self):
        v = classify_trajectory(SeedSpec(family="cs_end", c=-1.0, switch_parameter=0.1))
        assert v.kind == "Incomplete"
        assert v.event is not None

    def test_confirm_blowup(self):
        v = classify_trajectory(
            SeedSpec(family="cs_end", c=-1.0, switch_parameter=0.1), confirm_blowup=True
        )
        assert v.diagnostics.get("confirmed") in ("F_vanishes", "blow_up")

    def test_symmetric_seed_stiffness_is_indeterminate(self, monkeypatch):
        """A stalled run on an SU(2)^3-symmetric seed gives a verdict, like every other leg."""

        def stalled(*args, **kwargs):
            raise StiffnessError("step size underflow")

        monkeypatch.setattr(classify, "integrate", stalled)
        v = classify_trajectory(SeedSpec(family="cone", switch_parameter=1.0))
        assert v.kind == "Indeterminate"
        assert "underflow" in v.reason

    def test_verdict_json(self):
        v = classify_trajectory(SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1))
        import json

        payload = json.loads(v.to_json())
        assert payload["kind"] == "ALC"
        assert payload["ell"] > 0


def _wide_gap(_traj):
    return 1.0, 1.0 + 2 * classify.ELL_GAP_TOL, 1.0


def _no_limit(_traj):
    raise ConvergenceError("no limit")


def _kmn(m, n, beta_factor):
    beta_ac = shooter.find_beta_ac(m, n, 1.0, tol=1e-6).critical_value
    return SeedSpec(family="kmn", m=m, n=n, beta=beta_factor * beta_ac, switch_parameter=0.05)


class TestAlcTail:
    """One tail leg to the ALC horizon, and the checks an ALC verdict must pass."""

    @pytest.mark.parametrize(
        "make, legs",
        [
            (lambda: _b7_spec(0.45), 1),
            (lambda: _d7_spec(0.7), 1),
            (lambda: SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1), 1),
            (lambda: _kmn(1, 2, 2.0), 2),  # a first leg up to the a = b crossing
        ],
        ids=["B7", "D7", "CS", "K12"],
    )
    def test_one_tail_leg(self, make, legs):
        v = classify_trajectory(make())
        assert v.kind == "ALC"
        assert v.diagnostics["legs"] == legs
        assert abs(v.ell - v.ell_alt) <= classify.ELL_GAP_TOL * v.ell

    def test_horizon_scales_with_ell(self):
        """The CS end has b_floor = 0, so its horizon is t = ALC_HORIZON * 6 b / t^2 alone.

        6 b / t^2 is ell + O(ell / t), 1.5% above ell at that horizon.
        """
        v = classify_trajectory(SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1))
        assert v.diagnostics["t_final"] == pytest.approx(ALC_HORIZON * v.ell, rel=0.05)

    def test_membership_checked_at_every_tail_sample(self, monkeypatch):
        """Losing alc_strict at one sample in the middle of the tail gives Indeterminate."""
        real = classify.chamber_membership
        dropped = []

        def lossy(state, params, cushion=classify.CHAMBER_CUSHION):
            out = real(state, params, cushion)
            # the tail's a runs from 1 at the seed to about 1e6 at the horizon
            if cushion == 0.0 and not dropped and 2.0 < state.a < 100.0:
                dropped.append(state)
                out.discard("alc_strict")
            return out

        monkeypatch.setattr(classify, "chamber_membership", lossy)
        v = classify_trajectory(_b7_spec(0.45))
        assert dropped
        assert v.kind == "Indeterminate"
        assert "alc_strict" in v.reason

    def test_cs_scaling_law(self):
        """ell c^(1/nu0) is the cone's scaling invariant: one constant for every c > 0."""
        laws = []
        for c in (0.25, 0.5, 1.0, 2.0, 4.0):
            v = classify_trajectory(SeedSpec(family="cs_end", c=c, switch_parameter=0.1))
            assert v.kind == "ALC"
            laws.append(v.ell * c ** (1 / NU0))
        assert max(laws) - min(laws) <= 1e-8 * laws[0]
        assert laws[0] == pytest.approx(0.1837115778, rel=1e-5)

    def test_kmn_collapse_limit(self):
        """ell beta / r0 -> (m + n) sqrt(mn) like beta^-3; at 64 beta_ac it is 1.5e-6 from the limit."""
        spec = _kmn(1, 2, 64.0)
        v = classify_trajectory(spec)
        assert v.kind == "ALC"
        assert v.ell * spec.beta == pytest.approx(3 * math.sqrt(2), rel=1e-4)

    @pytest.mark.parametrize(
        "extract, reason", [(_wide_gap, "disagree"), (_no_limit, "no limit")], ids=["gap", "convergence"]
    )
    def test_unsettled_ell_is_indeterminate(self, monkeypatch, extract, reason):
        monkeypatch.setattr(classify, "extract_alc_ell", extract)
        v = classify_trajectory(SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1))
        assert v.kind == "Indeterminate"
        assert reason in v.reason

    def test_unreached_horizon_is_indeterminate(self):
        v = classify_trajectory(
            SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1), ClassifyBudget(max_steps=5)
        )
        assert v.kind == "Indeterminate"
        assert "horizon" in v.reason


class TestPersistence:
    def test_death_persists_under_flow(self):
        """Once in the death quadrant, samples stay there while da, db, F > 0."""
        params = ModelParams.kmn(1, 2, 1.0)
        checked = 0
        while checked < 40:
            b = 2.0 * (1 + RNG.uniform(0.2, 1.5))
            a = b * RNG.uniform(0.2, 0.9)
            f, _, _ = eval_F(a, b, params)
            if f <= 0:
                continue
            lam = (a / b) * RNG.uniform(0.2, 0.9)
            st = on_shell(a, b, lam, params)
            if "death_quadrant" not in chamber_membership(st, params):
                continue
            checked += 1
            traj = integrate(
                st, 0.0, params, [StopEvent.make("F_vanishes"), StopEvent.make("blow_up")],
                Budget(span=2.0), rtol=1e-10,
            )
            upto = len(traj) - (1 if traj.terminal_event[0] != "budget_exhausted" else 0)
            for i in range(upto):
                s = traj.state(i)
                assert "death_quadrant" in chamber_membership(s, params, cushion=0.0)

    def test_mu_increases_on_backward_region(self):
        """mu = db/da is strictly increasing in forward time on the backward-AC region.

        mu tends to its limit 1; once 1 - mu is at rounding level its
        increments are noise, so strict growth is asserted on the leading
        samples with 1 - mu > 1e-12 and the tail only has to sit at 1.
        """
        params = ModelParams.kmn(1, 2, 1.0)
        _, st = seed_ac_end(params, 1.0, 10.0)
        # integrate forward: mu must increase toward 1
        traj = integrate(st, 10.0, params, [], Budget(span=30.0), rtol=1e-11)
        x1, x2 = traj.zs[:, 0], traj.zs[:, 1]
        mu = x1 / x2  # (da db)/da^2
        away = 1.0 - mu > 1e-12
        n_away = int(np.count_nonzero(away))
        assert n_away >= 8
        assert np.all(away[:n_away])  # no sample falls back below the limit band
        assert np.all(np.diff(mu[:n_away]) > 0)
        assert abs(1.0 - mu[-1]) < 1e-10

    def test_alc_trajectory_positive_mean_curvature(self):
        v = classify_trajectory(SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1))
        assert v.kind == "ALC"
        assert v.diagnostics["min_mean_curvature"] > 0
