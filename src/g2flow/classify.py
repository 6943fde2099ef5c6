"""Global fate of a trajectory via the chamber criteria.

Forward completeness is governed by the sign of the mean curvature; entry
into the death quadrant forces forward incompleteness.  Once a solution
enters the (cushioned, strict) ALC chamber it stays there and has an ALC
end: one tail leg runs from the entry to the ALC horizon (the
``reaches_alc_horizon`` stop of ``flow``), strict membership is checked at
every sample of it, and the circle length ell is read off the end of the leg
by two independent estimators that must agree to ``ELL_GAP_TOL``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, SeedError, StiffnessError
from .flow import (
    CHAMBER_CUSHION, DEGENERATION_STOPS, Budget, StopEvent, Trajectory, integrate, vec_to_state,
)
from .invariants import (
    U1State, alc_margin, alc_strict_margin, death_margin, eval_F, in_ac_backward,
)
from .params import ModelParams
from .seeds import NUINF, SeedSpec

# relative gap of the two ell estimators at the ALC horizon: at most 6.4e-5 on
# criterion 6's ladders and K(m, n) at 2 beta_ac, 2.9e-4 for K(m, n) from
# 1.001 to 64 beta_ac
ELL_GAP_TOL = 1e-3
# no blow_up stop: the strict chamber forces a complete ALC end, where the
# absolute size test would trip on healthy growth (a ~ t^3/18 reaches 1e12)
ALC_TAIL_STOPS = (StopEvent.make("F_vanishes"), StopEvent.make("reaches_alc_horizon"))
AC_RATIO_TOL = 1e-4
AC_EXPONENT_WINDOW = 0.5
AC_EXACT_FLOOR = 1e-12


@dataclass
class Verdict:
    kind: str  # ALC | AC | Incomplete | Indeterminate
    ell: float | None = None
    ell_alt: float | None = None
    rate: float | None = None
    reason: str | None = None
    event: tuple | None = None
    budget_used: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "ell": self.ell,
            "ell_alt": self.ell_alt,
            "rate": self.rate,
            "reason": self.reason,
            "event": None
            if self.event is None
            else {"kind": self.event[0], "param": float(self.event[1])},
            "budget_used": self.budget_used,
            "diagnostics": _jsonable(self.diagnostics),
        }
        return json.dumps(payload, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def alc_strict_supported(params: ModelParams) -> bool:
    """Hypotheses under which the strict ALC chamber forces ALC asymptotics."""
    return params.q >= params.p or (params.q == -params.p and params.q <= 0)


def chamber_membership(
    state: U1State, params: ModelParams, cushion: float = CHAMBER_CUSHION
) -> set[str]:
    """Cushioned strict membership in the dynamically invariant regions.

    The ALC and death chambers carry a relative cushion against boundary
    chatter; the backward-AC region is tested with raw strict inequalities
    since its defining mode is legitimately tiny far out on an AC end.
    """
    f, _, _ = eval_F(state.a, state.b, params)
    if state.da <= 0 or state.db <= 0 or f <= 0:
        raise DomainError("state off the principal-orbit locus (need da, db, F > 0)")
    a, b, da, db = state.a, state.b, state.da, state.db
    bfl = params.b_floor
    out: set[str] = set()
    # a > b in the ALC chamber and b > a in the death quadrant: at most one holds
    if alc_margin(a, b, da, db, bfl, cushion, strict=False) > 0:
        out.add("alc_chamber")
        if alc_strict_supported(params) and alc_strict_margin(a, b, da, db, cushion) > 0:
            out.add("alc_strict")
    elif a > 0 and death_margin(a, b, da, db, bfl, cushion) > 0:
        out.add("death_quadrant")
    if in_ac_backward(a, b, da, db, params.p, params.q):
        out.add("ac_backward")
    return out


@dataclass
class ClassifyBudget:
    t_factor: float = 3e3  # absolute t ceiling, in units of the model scale
    max_steps: int = 400_000


def classify_trajectory(
    seed: SeedSpec,
    budget: ClassifyBudget | None = None,
    confirm_blowup: bool = False,
    rtol: float = 1e-11,
) -> Verdict:
    """Integrate a seed forward and decide ALC / AC / Incomplete / Indeterminate."""
    budget = budget or ClassifyBudget()
    try:
        params, state0, _series = seed.build()
    except SeedError as exc:
        return Verdict(kind="Indeterminate", reason=f"no seed: {exc}")
    t0 = seed.t_switch

    scale = max(params.scale3 ** (1.0 / 3.0), t0)
    t_max = max(200.0 * t0, budget.t_factor * scale)
    diag: dict = {"legs": 0}

    try:
        membership = chamber_membership(state0, params)
    except DomainError as exc:
        return Verdict(kind="Indeterminate", reason=f"inadmissible seed: {exc}")

    state, t_cur = state0, t0

    # a seed on the SU(2)^3-symmetric locus stays there; long integrations
    # would only amplify roundoff along the unstable separatrix mode
    if (
        abs(state0.a / state0.b - 1.0) <= AC_EXACT_FLOOR
        and abs(state0.da / state0.db - 1.0) <= AC_EXACT_FLOOR
    ):
        return _verify_conical(state0, t0, params, budget, rtol, diag)

    if "death_quadrant" in membership:
        return _incomplete_death(state, t_cur, params, confirm_blowup, rtol, diag)

    if "alc_strict" not in membership:
        stops = [
            StopEvent.make("enters_alc_chamber", strict=True),
            StopEvent.make("enters_death_chamber"),
            StopEvent.make("reaches_a_equals_b"),
            *DEGENERATION_STOPS,
        ]
        try:
            traj = integrate(
                state, t_cur, params, stops, Budget(span=t_max - t_cur, max_steps=budget.max_steps),
                rtol=rtol,
            )
        except (SeedError, StiffnessError) as exc:
            return Verdict(kind="Indeterminate", reason=str(exc))
        diag["legs"] += 1
        kind, t_ev, z_ev = traj.terminal_event
        state = vec_to_state(traj.system, t_ev, z_ev)
        t_cur = t_ev
        if kind == "enters_death_chamber":
            return _incomplete_death(state, t_cur, params, confirm_blowup, rtol, diag)
        if kind == "F_vanishes":
            return Verdict(
                kind="Incomplete", reason="F_vanishes", event=(kind, t_cur), diagnostics=diag
            )
        if kind == "blow_up":
            return Verdict(kind="Incomplete", reason="blow_up", event=(kind, t_cur), diagnostics=diag)
        if kind == "budget_exhausted":
            return _ac_or_indeterminate(traj, params, t_cur, diag)
        if kind == "reaches_a_equals_b":
            if not state.da > state.db:
                return Verdict(
                    kind="Indeterminate",
                    reason="crossed a = b without da > db",
                    event=(kind, t_cur),
                    diagnostics=diag,
                )
            # immediately past the crossing the strict ALC chamber opens up;
            # advance a hair so the strict inequalities hold with a margin
            diag["a_equals_b_at"] = t_cur
            nudge = integrate(
                state, t_cur, params, [], Budget(span=1e-3 * t_cur), rtol=rtol
            )
            state = vec_to_state(nudge.system, nudge.ts[-1], nudge.zs[-1])
            t_cur = nudge.ts[-1]
            if "alc_strict" not in chamber_membership(state, params):
                return Verdict(
                    kind="Indeterminate",
                    reason="strict chamber did not open after the a = b crossing",
                    diagnostics=diag,
                )

    # one tail leg from the strict-chamber entry out to the ALC horizon
    try:
        leg = integrate(
            state, t_cur, params, ALC_TAIL_STOPS,
            Budget(span=50 * t_max - t_cur, max_steps=budget.max_steps), rtol=rtol,
        )
    except StiffnessError as exc:
        return Verdict(kind="Indeterminate", reason=str(exc), diagnostics=diag)
    diag["legs"] += 1
    kind, t_end, _ = leg.terminal_event
    if kind == "F_vanishes":
        return Verdict(kind="Incomplete", reason=kind, event=(kind, t_end), diagnostics=diag)
    if kind != "reaches_alc_horizon":
        return Verdict(
            kind="Indeterminate", reason=f"ALC horizon not reached by t = {t_end}", diagnostics=diag
        )
    ok, bad_t = _strict_persists(leg, params)
    if not ok:
        return Verdict(
            kind="Indeterminate",
            reason=f"alc_strict membership lost at t = {bad_t} in the tail",
            diagnostics=diag,
        )
    try:
        ell, ell_alt, ell_deriv = extract_alc_ell(leg)
    except ConvergenceError as exc:
        return Verdict(kind="Indeterminate", reason=str(exc), diagnostics=diag)
    if not abs(ell - ell_alt) <= ELL_GAP_TOL * ell:
        return Verdict(
            kind="Indeterminate",
            reason=f"ell estimators disagree: {ell} against {ell_alt}",
            diagnostics=diag,
        )
    diag["ell_deriv"] = ell_deriv
    diag["t_final"] = t_end
    diag["min_mean_curvature"] = _min_mean_curvature(leg)
    diag["b_fit_exponent"] = _growth_exponent(leg)
    return Verdict(kind="ALC", ell=ell, ell_alt=ell_alt, budget_used=t_end, diagnostics=diag)


def _verify_conical(state0, t0, params, budget, rtol, diag) -> Verdict:
    """Validate the AC criterion on a symmetric seed: |b/a - 1| pinned while t doubles."""
    # a span of 7 t0 lets t double three times, well before roundoff amplifies
    try:
        traj = integrate(
            state0, t0, params, DEGENERATION_STOPS, Budget(span=7.0 * t0, max_steps=budget.max_steps), rtol=rtol
        )
    except StiffnessError as exc:
        return Verdict(kind="Indeterminate", reason=str(exc), diagnostics=diag)
    diag["legs"] += 1
    kind, tp, _ = traj.terminal_event
    if kind != "budget_exhausted":
        return Verdict(kind="Incomplete", reason=kind, event=(kind, tp), diagnostics=diag)
    a, b, _, _ = traj.ab_arrays()
    rel = float(np.max(np.abs(b / a - 1.0)))
    diag["ac_mode"] = "symmetric seed"
    diag["max_ratio_dev"] = rel
    if rel <= AC_RATIO_TOL:
        return Verdict(
            kind="AC", rate=_ac_nominal_rate(params), budget_used=float(traj.ts[-1]), diagnostics=diag
        )
    return Verdict(
        kind="Indeterminate",
        reason=f"symmetric seed lost the conical ratio: |b/a - 1| reached {rel:.2e}",
        diagnostics=diag,
    )


def _ac_nominal_rate(params: ModelParams) -> float:
    """Nominal decay rate of an AC end towards its cone: t^-3 when (p, q) != 0, else t^-nu_inf."""
    return -NUINF if (params.p == 0 and params.q == 0) else -3.0


def _incomplete_death(state, t_cur, params, confirm_blowup, rtol, diag) -> Verdict:
    verdict = Verdict(
        kind="Incomplete",
        reason="death_quadrant",
        event=("enters_death_chamber", t_cur),
        diagnostics=diag,
    )
    if confirm_blowup:
        try:
            leg = integrate(
                state,
                t_cur,
                params,
                DEGENERATION_STOPS,
                Budget(span=1e6 * max(t_cur, 1.0)),
                rtol=rtol,
            )
            verdict.diagnostics["confirmed"] = leg.terminal_event[0]
            verdict.diagnostics["confirm_param"] = float(leg.terminal_event[1])
        except StiffnessError as exc:
            verdict.diagnostics["confirmed"] = f"stiffness: {exc}"
    return verdict


def _strict_persists(traj: Trajectory, params: ModelParams) -> tuple[bool, float | None]:
    for i in range(len(traj)):
        try:
            if "alc_strict" not in chamber_membership(traj.state(i), params, cushion=0.0):
                return False, float(traj.ts[i])
        except DomainError:
            return False, float(traj.ts[i])
    return True, None


def _min_mean_curvature(traj: Trajectory) -> float:
    from .invariants import mean_curvature

    vals = []
    for i in range(len(traj)):
        st = traj.state(i)
        vals.append(mean_curvature(st, traj.params))
    return float(np.min(vals))


def _read_points(traj: Trajectory) -> tuple[tuple[float, U1State], tuple[float, U1State]]:
    """(t, state) at T/2 and at T, the end of an arc-length run."""
    if traj.system != "u1_arc":
        raise DomainError(f"ell extraction needs a U(1) arc-length trajectory, not {traj.system!r}")
    T = traj.ts[-1]
    if T / 2 < traj.ts[0]:
        raise ConvergenceError("trajectory too short for Richardson extrapolation")

    def at(tv):
        return vec_to_state(traj.system, tv, traj.interpolate(tv))

    return (T / 2, at(T / 2)), (T, at(T))


def extract_alc_ell(traj: Trajectory) -> tuple[float, float, float]:
    """Two independent ALC circle-length estimators (plus a derivative-based one).

    Each is read at T/2 and T and Richardson-extrapolated in the order it
    converges at (b = ell t^2/6 + c1 t + c0 + ..., a = t^3/18 + ...):
    ell       from 6 db/t - 6 b/t^2 = ell + O(1/t^2), one step in 1/t^2;
    ell_alt   from a^2/b^3 = 2/(3 ell^3) + O(1/t^2), one step in 1/t^2;
    ell_deriv from 3 db/t = ell + O(1/t), one step in 1/t (diagnostic only).
    """
    (Th, s1), (T, s2) = _read_points(traj)
    e1, e2 = 6 * s1.db / Th - 6 * s1.b / Th**2, 6 * s2.db / T - 6 * s2.b / T**2
    ell = (4 * e2 - e1) / 3
    r1, r2 = s1.a**2 / s1.b**3, s2.a**2 / s2.b**3
    r = (4 * r2 - r1) / 3
    if r <= 0:
        raise ConvergenceError("a^2/b^3 extrapolated to a non-positive value")
    ell_alt = (2.0 / (3.0 * r)) ** (1.0 / 3.0)
    d1, d2 = 3 * s1.db / Th, 3 * s2.db / T
    ell_deriv = 2 * d2 - d1
    return float(ell), float(ell_alt), float(ell_deriv)


def _growth_exponent(traj: Trajectory) -> float:
    """The local exponent t db/b = 2 + O(1/t) of b ~ t^2, one Richardson step in 1/t."""
    (Th, s1), (T, s2) = _read_points(traj)
    return float(2 * T * s2.db / s2.b - Th * s1.db / s1.b)


def _ac_or_indeterminate(traj: Trajectory, params: ModelParams, t_cur, diag) -> Verdict:
    a, b, _, _ = traj.ab_arrays()
    t = traj.ts
    tail = t >= t[-1] / 2
    if np.count_nonzero(tail) < 4:
        return Verdict(kind="Indeterminate", reason="budget exhausted", diagnostics=diag)
    rel = np.abs(b[tail] / a[tail] - 1.0)
    nominal_rate = _ac_nominal_rate(params)
    if np.max(rel) <= AC_EXACT_FLOOR:
        diag["ac_mode"] = "exactly conical"
        return Verdict(kind="AC", rate=nominal_rate, budget_used=t_cur, diagnostics=diag)
    if np.max(rel) <= AC_RATIO_TOL:
        tt = t[tail]
        mask = rel > 0
        if np.count_nonzero(mask) >= 4:
            slope = np.polyfit(np.log(tt[mask]), np.log(rel[mask]), 1)[0]
            diag["ac_fit_exponent"] = float(slope)
            # b - a carries only the decaying nu_infinity modes, so the ratio
            # falls off like t^-nu_inf for every AC end
            if abs(slope + NUINF) <= AC_EXPONENT_WINDOW or abs(slope + 3.0) <= AC_EXPONENT_WINDOW:
                return Verdict(kind="AC", rate=nominal_rate, budget_used=t_cur, diagnostics=diag)
    return Verdict(
        kind="Indeterminate",
        reason="budget exhausted without a committed chamber",
        budget_used=t_cur,
        diagnostics=diag,
    )
