"""Right-hand sides and adaptive integration for the torsion-free flow.

Every run is on the SU(2) x SU(2) x U(1)-invariant system, a = a_1 = a_2 and
b = a_3, in one of two equivalent formulations:

* ``u1_arc`` -- the U(1) reduction of the Hamiltonian system,
                (x1, x2, y1, y2) = (da*db, da^2, a, b) in the arc-length
                parameter t,
* ``u1_a``   -- the second-order equation for b(s) with s = a, as the
                first-order pair (b, mu = db/da).

`integrate` takes a `U1State`; a 6-D `FullState` seed is projected with
`invariants.u1_from_full` first.

Integration is the explicit embedded Runge-Kutta pair DOP853, of order
8(5,3), in the port of scipy's stepper in ``dop853``, which steps bit for bit
as scipy does.  Each accepted step keeps a lazy record of its stages; the step's
dense interpolant, which costs three more right-hand-side evaluations, is
built only when something reads it: the step that locates a stop event by
root bracketing, or a later ``Trajectory.interpolate``.

A leg steps in one of two clocks.  Every leg but one steps in the parameter
it records (t, or s = a).  A forward ``u1_arc`` leg that starts strictly
inside the death quadrant steps in the Sundman clock sigma, with
d/dsigma = w sqrt(F) d/dt and w = da, on the state (x1, w, a, b, t).  There
the arc-length field's 1/sqrt(F) and 1/sqrt(x2) singularities at the F -> 0
end are gone: the field is polynomial apart from sqrt(F), and the end is the
regular point w = 0, where t stops advancing.  Such a leg is recorded in its
arc-length view (t, (x1, w^2, a, b)), so it reads like any other ``u1_arc``
trajectory; its stops and its budget are evaluated on that view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dop853 import DOP853, brentq, dense_output
from .errors import DomainError, SeedError, StiffnessError
from .invariants import (
    FullState,
    Param,
    U1State,
    alc_margin,
    death_margin,
    eval_F,
    gamma2_margin,
    hamiltonian,
)
from .params import ModelParams

EVENT_PARAM_TOL = 1e-10
F_VANISH_EPS = 1e-10
CHAMBER_CUSHION = 1e-9
BLOWUP_FACTOR = 1e12
# DOP853's absolute tolerance, relative to max(1, |z0|) of a leg's start
ATOL_SCALE = 1e-13
# the ALC horizon: t >= ALC_HORIZON * ell and b >= ALC_HORIZON_B * b_floor
ALC_HORIZON = 128.0
ALC_HORIZON_B = 512.0
_FLOOR = 1e-300


# -- right-hand sides ---------------------------------------------------------


# The U(1) fields unpack the state into Python floats, whose arithmetic is
# much cheaper than numpy scalars'.  Python floats raise on overflow in ``**``
# and on division by zero where numpy returns inf or nan, and rejected trial
# stages do overflow; so eval_F squares by multiplication and every divisor
# here is floored away from zero.


def _vf_u1_arc(params: ModelParams) -> Callable:
    """Reduced field for (x1, x2, y1, y2) = (da*db, da^2, a, b)."""

    def fun(_t, z):
        x1, x2, a, b = z.tolist()
        f, fa, fb = eval_F(a, b, params)
        rootf = math.sqrt(max(f, _FLOOR))
        rootx = math.sqrt(max(x2, _FLOOR))
        return np.array([fa / (4 * rootf), fb / (2 * rootf), rootx, x1 / rootx])

    return fun


def _vf_u1_a(params: ModelParams) -> Callable:
    def fun(s, z):
        b, mu = z.tolist()
        f, fa, fb = eval_F(float(s), b, params)
        f = f if f > 0 else _FLOOR
        return np.array([mu, mu * (fa - 2 * mu * fb) / (2 * f)])

    return fun


_VECTOR_FIELDS = {"u1_arc": _vf_u1_arc, "u1_a": _vf_u1_a}


def _vf_u1_sundman(params: ModelParams) -> Callable:
    """The arc-length field times w sqrt(F), on (x1, w, a, b, t) with w = da."""

    def fun(_sigma, y):
        x1, w, a, b, _t = y.tolist()
        f, fa, fb = eval_F(a, b, params)
        rootf = math.sqrt(max(f, _FLOOR))
        return np.array([fa * w / 4, fb / 4, w * w * rootf, x1 * rootf, w * rootf])

    return fun


def _sundman_view(_sigma, y) -> tuple[float, np.ndarray]:
    """The arc-length view (t, (x1, x2, a, b)) of a Sundman-clock state."""
    x1, w, a, b, t = y
    return t, np.array([x1, w * w, a, b])


def _same_view(t, z):
    return t, z


# -- state <-> vector conversions --------------------------------------------


def state_to_vec(state: U1State) -> tuple[str, np.ndarray]:
    if state.param is Param.ARC_LENGTH_T:
        return "u1_arc", np.array([state.da * state.db, state.da**2, state.a, state.b])
    return "u1_a", np.array([state.b, state.db / state.da])


def vec_to_state(system: str, param_value: float, z: np.ndarray) -> U1State:
    if system == "u1_arc":
        x1, x2, a, b = z
        da = math.sqrt(max(x2, 0.0))
        return U1State(a=a, b=b, da=da, db=x1 / da if da > 0 else math.inf)
    b, mu = z
    return U1State(a=param_value, b=b, da=1.0, db=mu, param=Param.A_EQUALS_S)


def _ab_view(system: str, t: float, z: np.ndarray) -> tuple[float, float, float, float]:
    """(a, b, da, db) in whatever derivative normalization the system carries."""
    if system == "u1_arc":
        x1, x2, a, b = z
        da = math.sqrt(max(x2, _FLOOR))
        return a, b, da, x1 / da
    b, mu = z
    return t, b, 1.0, mu


def _on_symmetric_locus(state: U1State) -> bool:
    """a_1 = a_2 = a_3 and da_1 = da_2 = da_3 exactly."""
    return state.a == state.b and state.da == state.db


# -- stop events ---------------------------------------------------------------


@dataclass(frozen=True)
class StopEvent:
    """Declarative stop condition; realized as a sign change of a margin function.

    kind: one of F_vanishes | enters_alc_chamber | enters_death_chamber |
          hits_gamma1 | hits_gamma2 | hits_corner | blow_up |
          budget_exhausted | reaches_a_equals_b | reaches_alc_horizon
    data: kind-specific settings (strict, level, k, eps, ...).
    """

    kind: str
    data: tuple = ()

    @classmethod
    def make(cls, kind: str, **data) -> StopEvent:
        return cls(kind=kind, data=tuple(sorted(data.items())))


# the genuine degenerations that end a run: the form leaves the stable locus,
# or the state blows up
DEGENERATION_STOPS = (StopEvent.make("F_vanishes"), StopEvent.make("blow_up"))


def _margin_fn(event: StopEvent, system: str, params: ModelParams, z0) -> tuple[Callable, int]:
    """Return (g(t, z), direction): event fires when g crosses 0 in direction."""
    d = dict(event.data)
    bfloor = params.b_floor

    if event.kind == "F_vanishes":
        eps = F_VANISH_EPS

        def g(t, z):
            a, b, _, _ = _ab_view(system, t, z)
            return eval_F(a, b, params)[0] - eps * (b * b + abs(params.p * params.q)) ** 2

        return g, -1

    if event.kind == "enters_alc_chamber":
        strict = d.get("strict", False)

        def g(t, z):
            a, b, da, db = _ab_view(system, t, z)
            return alc_margin(a, b, da, db, bfloor, CHAMBER_CUSHION, strict)

        return g, +1

    if event.kind == "enters_death_chamber":

        def g(t, z):
            a, b, da, db = _ab_view(system, t, z)
            return death_margin(a, b, da, db, bfloor, CHAMBER_CUSHION)

        return g, +1

    if event.kind == "reaches_a_equals_b":

        def g(t, z):
            a, b, _, _ = _ab_view(system, t, z)
            return b - a

        return g, -1

    if event.kind == "reaches_alc_horizon":
        # on an ALC end 6 b / t^2 -> ell, so t^3 >= 6 H b once t >= H ell: the
        # expansion's two small parameters, ell / t and b_floor / b, are below
        # 1 / ALC_HORIZON and 1 / ALC_HORIZON_B

        def g(t, z):
            _, b, _, _ = _ab_view(system, t, z)
            return min(t**3 - 6 * ALC_HORIZON * b, b - ALC_HORIZON_B * bfloor)

        return g, +1

    if event.kind == "hits_gamma1":
        level = d["level"]

        def g(t, z):
            _, b, _, _ = _ab_view(system, t, z)
            return b - level

        return g, -1

    if event.kind == "hits_gamma2":
        k, m2, n2 = d["k"], d["m2r03"], d["n2r03"]

        def g(t, z):
            a, b, _, _ = _ab_view(system, t, z)
            return gamma2_margin(a, b, k, m2, n2)

        return g, -1

    if event.kind == "hits_corner":
        eps = d["eps"]

        def g(t, z):
            a, _, _, _ = _ab_view(system, t, z)
            return a - eps

        return g, -1

    if event.kind == "blow_up":
        limit = BLOWUP_FACTOR * max(np.max(np.abs(z0)), params.scale3, 1.0)

        def g(t, z):
            a, b, da, db = _ab_view(system, t, z)
            return limit - max(abs(a), abs(b), abs(da), abs(db))

        return g, -1

    raise ValueError(f"unknown or non-margin event kind {event.kind!r}")


# -- trajectories --------------------------------------------------------------


class _Step:
    """One accepted DOP853 step; its dense interpolant is built on the first call.

    The record keeps the step's stages, which the stepper hands over in an
    array of their own.  The interpolant's three extra stages evaluate the
    vector field directly, outside the stepper, so ``solver.nfev`` counts
    step attempts only.
    """

    __slots__ = ("fun", "t_old", "t", "t_min", "t_max", "y_old", "y", "f", "K", "_sol")

    def __init__(self, solver: DOP853):
        self.fun = solver.fun
        self.t_old, self.t = solver.t_old, solver.t
        self.t_min, self.t_max = min(self.t_old, self.t), max(self.t_old, self.t)
        self.y_old, self.y, self.f = solver.y_old, solver.y, solver.f
        self.K = solver.K_extended
        self._sol = None

    def __call__(self, t):
        if self._sol is None:
            self._sol = dense_output(self.fun, self.K, self.t_old, self.t, self.y_old, self.y, self.f)
            self.K = None
        return self._sol(t)

    def points(self, k: int, t_lo: float, t_hi: float) -> list[tuple[float, np.ndarray]]:
        """(t, z) at k evenly spaced points strictly inside [t_lo, t_hi]."""
        ts = _interior(t_lo, t_hi, k)
        return list(zip(ts, self(ts).T))


def _interior(lo: float, hi: float, k: int) -> np.ndarray:
    return lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)


class _ViewedStep:
    """A step taken in another clock, read in the parameter of its view.

    It covers the clock interval [tau_lo, tau_hi], cut at the leg's stop, over
    which the viewed parameter rises from t_min to t_max; ``__call__(t)``
    inverts that parameter on the step's interpolant.
    """

    __slots__ = ("step", "view", "tau_lo", "tau_hi", "t_min", "t_max")

    def __init__(self, step: _Step, view: Callable, tau_hi: float, t_min: float, t_max: float):
        self.step, self.view = step, view
        self.tau_lo, self.tau_hi = step.t_old, tau_hi
        self.t_min, self.t_max = t_min, t_max

    def _at(self, tau: float) -> tuple[float, np.ndarray]:
        return self.view(tau, self.step(tau))

    def __call__(self, t):
        if t <= self.t_min:
            tau = self.tau_lo
        elif t >= self.t_max or t >= self._at(self.tau_hi)[0]:
            # the interpolant's parameter at tau_hi may fall short of t_max,
            # by ulps, or by the located budget stop's tolerance
            tau = self.tau_hi
        else:
            tau = brentq(
                lambda u: self._at(u)[0] - t,
                self.tau_lo,
                self.tau_hi,
                xtol=4 * np.finfo(float).eps * max(1.0, abs(self.tau_hi)),
                rtol=4 * np.finfo(float).eps,
            )
        return self._at(tau)[1]

    def points(self, k: int, _t_lo: float, _t_hi: float) -> list[tuple[float, np.ndarray]]:
        """(t, z) at k points strictly inside the step, evenly spaced in its own clock."""
        taus = _interior(self.tau_lo, self.tau_hi, k)
        return [self.view(tau, y) for tau, y in zip(taus, self.step(taus).T)]


@dataclass
class Budget:
    span: float
    max_steps: int = 200_000


@dataclass
class Trajectory:
    system: str
    params: ModelParams
    ts: np.ndarray
    zs: np.ndarray
    events: list = field(default_factory=list)  # (kind, param value, state vector)
    # one callable per accepted step, covering [ts[i], ts[i+1]] (the last one
    # may reach past an event); integrate stores lazy _Step records, wrapped
    # in _ViewedStep on a Sundman-clock leg
    segments: list = field(default_factory=list)

    def __len__(self):
        return len(self.ts)

    def state(self, i: int) -> U1State:
        return vec_to_state(self.system, self.ts[i], self.zs[i])

    def interpolate(self, t: float) -> np.ndarray:
        lo, hi = (self.ts[0], self.ts[-1]) if self.ts[0] <= self.ts[-1] else (self.ts[-1], self.ts[0])
        if not (lo - 1e-12 * (1 + abs(lo)) <= t <= hi + 1e-12 * (1 + abs(hi))):
            raise ValueError(f"parameter {t} outside trajectory range [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        if not self.segments:
            # a trajectory built from samples alone: only its samples can be read
            hit = np.flatnonzero(self.ts == t)
            if hit.size == 0:
                raise ValueError(f"parameter {t} is not a sample of a trajectory without interpolants")
            return self.zs[hit[0]]
        if self.ts[0] <= self.ts[-1]:
            i = np.searchsorted(self.ts, t, side="right") - 1
        else:
            i = np.searchsorted(-self.ts, -t, side="right") - 1
        seg = self.segments[min(max(int(i), 0), len(self.segments) - 1)]
        if not seg.t_min <= t <= seg.t_max:
            raise ValueError(f"no step interpolant covers parameter {t}")
        return seg(t)

    def step_points(self, i: int, k: int) -> list[tuple[float, np.ndarray]]:
        """(parameter, state vector) at k points strictly inside step i, evenly
        spaced in the clock the step was taken in."""
        return self.segments[i].points(k, self.ts[i], self.ts[i + 1])

    def ab_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        out = np.array([_ab_view(self.system, t, z) for t, z in zip(self.ts, self.zs)])
        return out[:, 0], out[:, 1], out[:, 2], out[:, 3]

    def hamiltonian_drift(self) -> tuple[float, float]:
        """(max |H| over samples, max orbital volume) for arc-length runs."""
        if self.system == "u1_a":
            raise DomainError("Hamiltonian drift is tracked on arc-length runs only")
        hmax = 0.0
        vmax = 0.0
        for i in range(len(self.ts)):
            st = self.state(i)
            hmax = max(hmax, abs(hamiltonian(st, self.params)))
            vmax = max(vmax, 2 * st.da**2 * st.db)
        return hmax, vmax

    @property
    def terminal_event(self):
        return self.events[-1] if self.events else None


def integrate(
    seed: U1State,
    t_start: float,
    params: ModelParams,
    stops: Sequence[StopEvent] | None = None,
    budget: Budget | None = None,
    direction: int = +1,
    rtol: float = 1e-11,
) -> Trajectory:
    """Integrate from the seed until the first stop event or budget exhaustion.

    A forward ``u1_arc`` run from a seed strictly inside the death quadrant
    steps in the Sundman clock (see the module docstring).
    """
    if isinstance(seed, FullState):
        raise SeedError("integrate runs the U(1) system only: project a FullState seed with u1_from_full")
    system, z0 = state_to_vec(seed)
    if not seed.on_principal_locus(params):
        raise SeedError(f"seed {seed} is off the admissible locus")
    stops = stops or []
    if _on_symmetric_locus(seed):
        # the SU(2)^3-symmetric locus is invariant, so a run that starts on it
        # stays on a = b, where b - a changes sign on roundoff alone
        stops = [ev for ev in stops if ev.kind != "reaches_a_equals_b"]
    budget = budget or Budget(span=100.0 * max(1.0, abs(t_start)))

    t_end = t_start + direction * budget.span
    margins = [(*_margin_fn(ev, system, params, z0), ev.kind) for ev in stops]
    atol = ATOL_SCALE * max(1.0, float(np.max(np.abs(z0))))

    sundman = (
        direction > 0
        and system == "u1_arc"
        and seed.a > 0
        and death_margin(seed.a, seed.b, seed.da, seed.db, params.b_floor, CHAMBER_CUSHION) > 0
    )
    if sundman:
        # the Sundman clock: the stops read the arc-length view, and the budget
        # and the end w = 0, where t stops advancing and db = x1 / w diverges,
        # become located stops
        fun, view = _vf_u1_sundman(params), _sundman_view
        tau0, y0, tau_end = 0.0, np.array([z0[0], seed.da, z0[2], z0[3], t_start]), math.inf
        margins = [(lambda tau, y, g=g: g(*view(tau, y)), d, kind) for g, d, kind in margins] + [
            (lambda _tau, y: y[1], -1, "blow_up"),
            (lambda _tau, y: t_end - y[4], -1, "budget_exhausted"),
        ]
    else:
        fun, view = _VECTOR_FIELDS[system](params), _same_view
        tau0, y0, tau_end = t_start, z0, t_end

    solver = DOP853(fun, tau0, y0, tau_end, rtol=rtol, atol=atol)
    t_first, z_first = view(tau0, y0)
    ts = [t_first]
    zs = [z_first.copy()]
    segments: list = []
    events: list = []
    g_prev = [g(tau0, y0) for g, _, _ in margins]
    steps = 0

    # trial steps may transiently probe past a coordinate singularity;
    # rejected-step overflow is expected there and handled by step control
    with np.errstate(over="ignore", invalid="ignore"):
        while solver.status == "running":
            if steps >= budget.max_steps:
                events.append(("budget_exhausted", ts[-1], zs[-1].copy()))
                break
            solver.step()
            if solver.status == "failed":
                # step underflow.  Only legs outside the Sundman clock still
                # reach it, at the singular F -> 0 end (the u1_a runs of figure
                # 1's Incomplete curves do); with a blow_up stop registered it
                # stands there for that finite-time degeneration.  A Sundman
                # leg ends at the regular point w = 0, so there it is a failure.
                if not sundman and any(ev.kind == "blow_up" for ev in stops):
                    events.append(("blow_up", ts[-1], zs[-1].copy()))
                    break
                raise StiffnessError(
                    f"step size underflow at parameter {solver.t}",
                    last_param=ts[-1],
                    last_state=zs[-1],
                )
            steps += 1
            sol = _Step(solver)
            tau_old, tau_new, y_new = solver.t_old, solver.t, solver.y.copy()

            hit = None
            for i, (g, want_dir, kind) in enumerate(margins):
                g_new = g(tau_new, y_new)
                crossed = (g_prev[i] > 0 >= g_new) if want_dir < 0 else (g_prev[i] < 0 <= g_new)
                if crossed and g_prev[i] != g_new:
                    lo, hi = sorted((tau_old, tau_new))
                    if g(lo, sol(lo)) * g(hi, sol(hi)) <= 0:
                        troot = brentq(
                            lambda tt: g(tt, sol(tt)),
                            lo,
                            hi,
                            xtol=EVENT_PARAM_TOL * max(1.0, abs(hi)),
                            rtol=4 * np.finfo(float).eps,
                        )
                    else:
                        troot = tau_new
                    if hit is None or abs(troot - tau_old) < abs(hit[0] - tau_old):
                        hit = (troot, kind)
                g_prev[i] = g_new

            t_new, z_new = view(tau_new, y_new)
            if hit is not None:
                troot, kind = hit
                t_ev, z_ev = view(troot, sol(troot))
                if sundman:
                    # the view's parameter, read off the interpolant, may fall a
                    # few ulps below the step's start; past w = 0 it falls
                    # again, so the step's end is no upper bound
                    t_ev = t_end if kind == "budget_exhausted" else max(t_ev, ts[-1])
                    sol = _ViewedStep(sol, view, troot, ts[-1], t_ev)
                segments.append(sol)
                ts.append(t_ev)
                zs.append(z_ev)
                events.append((kind, t_ev, z_ev.copy()))
                break

            segments.append(_ViewedStep(sol, view, tau_new, ts[-1], t_new) if sundman else sol)
            ts.append(t_new)
            zs.append(z_new)
            if solver.status == "finished":
                events.append(("budget_exhausted", t_new, z_new.copy()))

    return Trajectory(
        system=system,
        params=params,
        ts=np.array(ts),
        zs=np.array(zs),
        events=events,
        segments=segments,
    )

