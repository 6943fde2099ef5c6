"""Locating the critical asymptotically conical solutions.

Two independent schemes bracket the same solution:

* backward shooting: extend AC ends backwards in arc length, stepping in
  log a, until they hit the gamma curve; locate the end parameter c_ac
  between gamma1 hits (below) and gamma2 hits (above), then read off the
  closure data beta at the corner;
* forward shooting: integrate singular-orbit seeds and locate beta_ac between
  incomplete (below) and ALC (above) outcomes.

Each shot ends at a point that moves continuously through the critical value,
so both schemes turn it into a signed miss (negative below, positive above)
and find its sign change with Brent's method (`_root_on_miss`).  The hit
labels stay as a check on the miss's sign.  The monotone separation behind
both schemes is the no-cross comparison of solutions as curves b(a).

Every shot runs at unit orbit size: the corner is (0, mn), the AC switch is
T = 10 and forward seeds are taken near t = 0.05.  The orbit size is a unit
of length, so beta_ac is scale-free and c_ac scales as r0^nu_inf; only
`find_beta_ac` and `find_c_ac` take it, and `find_c_ac` reports in its units.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dop853 import brentq
from .errors import (
    BracketError,
    ClosureError,
    RegionExitError,
    SeedError,
    StiffnessError,
)
from .flow import DEGENERATION_STOPS, Budget, StopEvent, Trajectory, integrate
from .invariants import U1State, eval_F, gamma2_margin, in_ac_backward
from .params import ModelParams
from .seeds import NUINF, SeedSpec, seed_ac_end

DEFAULT_K = 1.5
CORNER_EPS = 1e-5
# backward runs start from the AC series at t = 10: from much further out the
# decaying t^-nu_inf mode falls below double-precision resolution
AC_T_SWITCH = 10.0
# below this relative tolerance a bracket of shots cannot shrink to tol: its
# ends are a few ulps apart
TOL_FLOOR = 1e-15
# forward beta_ac (tol 1e-9) and the backward closure beta at c_ac (tol 1e-10)
# agree to 1e-10 for K(1,1), K(1,2) and K(2,3); this bounds their gap at any tol
BETA_GAP = 1e-7
# the walk that brackets a critical value doubles or halves its start at most
# this many times
WALK_LIMIT = 40


@dataclass(frozen=True)
class GammaCurve:
    """The stopping curve for backward AC runs: gamma1 u gamma2 with corner (0, mn)."""

    m: int
    n: int
    k: float = DEFAULT_K

    def __post_init__(self):
        if not (1.0 < self.k < 2.0):
            raise ValueError("gamma curve needs k in (1, 2)")
        if self.m <= 0 or self.n <= 0 or math.gcd(self.m, self.n) != 1:
            raise ValueError("gamma curve needs coprime positive (m, n)")

    @property
    def corner_b(self) -> float:
        return float(self.m * self.n)

    @property
    def gamma2_data(self) -> dict:
        """The arguments of `invariants.gamma2_margin` that fix this curve's gamma2."""
        return {"k": self.k, "m2r03": float(self.m**2), "n2r03": float(self.n**2)}

    def gamma2_margin(self, a: float, b: float) -> float:
        return gamma2_margin(a, b, **self.gamma2_data)


@dataclass
class ShootResult:
    critical_value: float
    bracket: tuple[float, float]
    iterations: int
    closure: dict | None = None
    history: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # the critical run, in the units of the call (samples only); not serialized
    trajectory: Trajectory | None = field(default=None, repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "critical_value": self.critical_value,
                "bracket": list(self.bracket),
                "iterations": self.iterations,
                "closure": self.closure,
                "history": [[float(v), tag, float(miss)] for v, tag, miss in self.history],
                "meta": self.meta,
            },
            sort_keys=True,
        )


def extend_ac_backward(
    seed: tuple[ModelParams, U1State],
    T: float,
    gamma: GammaCurve,
    rtol: float = 1e-11,
) -> tuple[Trajectory, str]:
    """Integrate an AC end `(params, state)` at t = T backwards until it hits
    gamma1, gamma2 or the corner.  The budget ends at t = 0, the tip of the
    AC end's asymptotic cone; the corner lies near t = (54 mn / sqrt3)^(1/3)."""
    params, state = seed
    inside = in_ac_backward(state.a, state.b, state.da, state.db, params.p, params.q)
    if not (inside and eval_F(state.a, state.b, params)[0] > 0):
        raise SeedError("backward extension needs a state in the backward-AC region (c > 0)")

    stops = [
        StopEvent.make("hits_gamma1", level=gamma.corner_b),
        StopEvent.make("hits_gamma2", **gamma.gamma2_data),
        StopEvent.make("hits_corner", eps=CORNER_EPS),
        StopEvent.make("blow_up"),
    ]
    try:
        traj = integrate(state, T, params, stops, Budget(span=T, max_steps=400_000), direction=-1, rtol=rtol)
    except StiffnessError as exc:
        raise RegionExitError(f"backward run stalled: {exc}") from exc

    _assert_backward_region(traj, params)
    kind, _t, z = traj.terminal_event
    if kind == "hits_gamma1":
        return traj, "gamma1"
    if kind == "hits_gamma2":
        return traj, "gamma2"
    if kind == "hits_corner":
        b_end = z[3]
        if abs(b_end - gamma.corner_b) <= 10 * CORNER_EPS:
            return traj, "corner"
        return traj, "gamma1" if b_end < gamma.corner_b else "gamma2"
    raise RegionExitError(f"backward run ended with {kind} before reaching the gamma curve")


def _assert_backward_region(traj: Trajectory, params: ModelParams):
    """Monitor persistence of the backward-AC inequalities along the run."""
    a, b, da, db = traj.ab_arrays()
    inside = in_ac_backward(a, b, da, db, params.p, params.q)
    # the very last sample may sit on the stopping curve itself
    if not bool(np.all(inside[:-1])):
        i = int(np.argmin(inside[:-1]))
        raise RegionExitError(
            f"backward-AC region left at t = {traj.ts[i]}, a = {a[i]}: (b - a, db/da) = ({b[i] - a[i]}, {db[i] / da[i]})"
        )


def _check_tol(tol: float):
    if not tol >= TOL_FLOOR:
        raise ValueError(f"shooting tolerance {tol} is below the floor {TOL_FLOOR}")


def _root_on_miss(shoot, start: float, tol: float, history: list) -> tuple[float, float, float, int]:
    """Bracket and locate the sign change of a shot's signed miss.

    `shoot(value)` returns `(tag, miss)`: miss < 0 below the critical value,
    miss >= 0 above it, NaN for a shot that ends on neither side (which
    raises `BracketError`).  Every shot is appended to `history` as
    `(value, tag, miss)`.  The walk from `start` doubles or halves it until
    the sign changes; Brent's method then runs in the centred coordinate
    x = log(value / centre), where its relative term stays below 4e-16.
    Returns the bracket `(lo, hi)`, the last shot on each side, with
    `hi - lo <= tol * hi`, the root of the miss interpolated linearly in log
    between them, and the number of shots after the walk.
    """

    walked = None  # the number of shots in the walk, once it is done

    def sides() -> tuple[tuple[float, float], tuple[float, float]]:
        """(value, miss) of the last shot below and of the last shot above."""
        return (
            next((v, miss) for v, _, miss in reversed(history) if miss < 0),
            next((v, miss) for v, _, miss in reversed(history) if miss >= 0),
        )

    def shot(value: float) -> float:
        tag, miss = shoot(value)
        history.append((value, tag, miss))
        if math.isnan(miss):
            message = f"{tag} shot at {value!r}"
            if walked is not None:
                (lo, _), (hi, _) = sides()
                gap = min(value - lo, hi - value) / value
                message += (
                    f", a relative {gap:.1e} inside the bracket [{lo!r}, {hi!r}]: the runs do not"
                    " resolve the critical value this finely; shoot with a larger tol"
                )
            raise BracketError(message, scan_table=history)
        return miss

    below = shot(start) < 0
    step = 2.0 if below else 0.5
    near = start
    for _ in range(WALK_LIMIT):
        far = near * step
        if (shot(far) < 0) != below:
            break
        near = far
    else:
        raise BracketError(f"no sign change of the miss within 2^{WALK_LIMIT} of {start!r}", scan_table=history)

    walked = len(history)
    centre = math.sqrt(near * far)
    ends = {math.log(v / centre): miss for v, _, miss in history[-2:]}
    brentq(lambda x: ends[x] if x in ends else shot(centre * math.exp(x)), *sorted(ends), xtol=0.25 * tol, disp=False)

    (lo, m_lo), (hi, m_hi) = sides()
    if not 0 < hi - lo <= tol * hi:
        raise BracketError(f"bracket [{lo!r}, {hi!r}] did not shrink to tol = {tol}", scan_table=history)
    return lo, hi, lo * (hi / lo) ** (m_lo / (m_lo - m_hi)), len(history) - walked


def find_c_ac(
    m: int,
    n: int,
    r0: float,
    tol: float = 1e-6,
    k: float = DEFAULT_K,
    rtol: float = 1e-11,
) -> ShootResult:
    """Locate the AC-end parameter c_ac between gamma1 hits (below) and gamma2 (above).

    The miss of a gamma1 hit is -a_hit^2, that of a gamma2 or corner hit
    (b_hit - mn) / mn; both tend to 0 at c_ac.  c, its bracket and the shots'
    c are reported times r0^nu_inf, `T_switch` and the critical run's t times
    r0, its (x1, x2) times r0^4 and its (a, b) times r0^3; the closure and the
    misses are scale-free.
    """
    _check_tol(tol)
    gamma = GammaCurve(m=m, n=n, k=k)
    in_units = ModelParams.kmn(m, n, r0)
    params = ModelParams.kmn(m, n, 1.0)
    # the corner sits at arc-length t ~ (54 mn / sqrt3)^(1/3); the decaying
    # mode becomes order-one there when c ~ t_corner^nu_inf
    cscale = (54.0 / math.sqrt(3.0) * m * n) ** (NUINF / 3.0)
    history: list = []

    def run(c: float) -> tuple[Trajectory, str]:
        _, state = seed_ac_end(params, c, AC_T_SWITCH)
        return extend_ac_backward((params, state), AC_T_SWITCH, gamma, rtol=rtol)

    def shoot(c: float) -> tuple[str, float]:
        traj, hit = run(c)
        kind, _t, z = traj.terminal_event
        if kind == "hits_gamma1":
            miss = -float(z[2] ** 2)
        else:
            miss = float(z[3] - gamma.corner_b) / gamma.corner_b
        if (hit == "gamma1") != (miss < 0):
            raise BracketError(f"{hit} hit with miss {miss!r} at c = {c!r}", scan_table=[*history, (c, hit, miss)])
        return hit, miss

    lo, hi, c_ac, iterations = _root_on_miss(shoot, cscale, tol, history)
    traj_final, hit_final = run(c_ac)
    closure = None
    try:
        beta, residuals = closure_extract_beta(traj_final, m, n)
        closure = {"beta": beta, **residuals}
    except ClosureError as exc:
        closure = {"error": str(exc), **exc.residuals}
    unit = r0**NUINF
    return ShootResult(
        critical_value=unit * c_ac,
        bracket=(unit * lo, unit * hi),
        iterations=iterations,
        closure=closure,
        history=[(unit * c, hit, miss) for c, hit, miss in history],
        meta={
            "m": m,
            "n": n,
            "r0": r0,
            "k": k,
            "scheme": "backward",
            "tol": tol,
            "T_switch": AC_T_SWITCH * r0,
            "final_hit": hit_final,
        },
        trajectory=_run_in_units(traj_final, in_units),
    )


def _run_in_units(traj: Trajectory, params: ModelParams) -> Trajectory:
    """The shot `traj` in the units of `params`: t scales as the orbit size r0,
    (x1, x2) as r0^4 and (a, b) as r0^3.  It keeps its samples and events, not
    its interpolants."""
    r0 = params.r0
    scale = np.array([r0**4, r0**4, r0**3, r0**3])
    events = [(kind, t * r0, z * scale) for kind, t, z in traj.events]
    return Trajectory(traj.system, params, traj.ts * r0, traj.zs * scale, events)


def closure_extract_beta(traj: Trajectory, m: int, n: int) -> tuple[float, dict]:
    """Extract beta from the corner limits da^2 -> beta^2 and the b-slope.

    The trajectory must be a shot that terminates near the corner
    (a -> 0, b -> mn, F -> 0).  da^2 is read off x2, and both limits are
    fitted in a over the step ends near the corner.  Residuals report the
    mismatch against the smooth-closure boundary template.
    """
    corner_b = float(m * n)
    _, x2, a, b = traj.zs.T
    a_end = a[-1]
    scale = corner_b
    resid: dict = {"b_end_mismatch": abs(b[-1] - corner_b) / scale, "a_end": abs(a_end) / scale}
    if resid["b_end_mismatch"] > 1e-3 or resid["a_end"] > 1e-3:
        raise ClosureError("trajectory does not terminate at the corner", residuals=resid)

    window = np.abs(a) <= 20 * abs(a_end)
    window &= np.abs(a) > 0
    if np.count_nonzero(window) < 6:
        window = np.zeros_like(a, dtype=bool)
        window[-8:] = True
    aw, bw, da2 = a[window], b[window], x2[window]
    if not np.all(da2 > 0):
        raise ClosureError("da^2 non-positive in the fit window", residuals=resid)

    # even expansions in a: da^2 = beta^2 + O(a^2), b = corner + D a^2 + O(a^4)
    basis = np.column_stack([np.ones_like(aw), aw**2])
    coef_da2, *_ = np.linalg.lstsq(basis, da2, rcond=None)
    coef_b, *_ = np.linalg.lstsq(basis, bw - corner_b, rcond=None)
    A0 = coef_da2[0]
    if A0 <= 0:
        raise ClosureError("da^2 extrapolated to a non-positive corner value", residuals=resid)
    beta = math.sqrt(A0)
    D = coef_b[1]
    if D <= 0:
        raise ClosureError("b-slope coefficient non-positive at the corner", residuals=resid)
    beta_alt = (math.sqrt(m * n) * (m + n) / (2 * D)) ** (1.0 / 3.0)
    resid["b_intercept"] = abs(coef_b[0]) / scale
    resid["beta_cross_mismatch"] = abs(beta - beta_alt) / beta
    if resid["beta_cross_mismatch"] > 0.05:
        raise ClosureError("the two beta estimates disagree at the corner", residuals=resid)
    return beta, resid


# -- forward shooting -----------------------------------------------------------


def forward_seed(m: int, n: int, beta: float) -> tuple[float, U1State]:
    """(t, state) of the K(m, n) seed of forward shooting, taken at t = 0.05,
    or at a fraction of it where the series cannot reach."""
    for shrink in (1.0, 0.5, 0.25, 0.1):
        try:
            spec = SeedSpec(family="kmn", m=m, n=n, beta=beta, switch_parameter=shrink * 0.05)
            _, state, _ = spec.build()
            return spec.t_switch, state
        except SeedError:
            if shrink == 0.1:
                raise


def forward_shot(m: int, n: int, beta: float, rtol: float = 1e-11) -> tuple[str, float]:
    """The side a forward run from `forward_seed` ends on, and its signed miss.

    "alc": it crosses a = b with da > db, miss +(1 / a)^4 at the crossing;
    "incomplete": it enters the death quadrant, F vanishes or it blows up,
    miss -(1 / a)^4 there.  Both ends recede as |beta / beta_ac - 1|^(-1/4),
    so the miss is about linear in beta through beta_ac.  "indeterminate" and
    "seed_error" carry a NaN miss.  The run's span in t starts at
    (54 * 50 mn / sqrt3)^(1/3), where the cone a = (sqrt3/54) t^3 reaches
    a = 50 mn, and doubles until the run reaches either side.
    """
    params = ModelParams.kmn(m, n, 1.0)
    try:
        t0, seed = forward_seed(m, n, beta)
    except SeedError:
        return "seed_error", math.nan
    span = (54.0 / math.sqrt(3.0) * 50.0 * max(m * n, 1)) ** (1.0 / 3.0)
    stops = [StopEvent.make("reaches_a_equals_b"), StopEvent.make("enters_death_chamber"), *DEGENERATION_STOPS]
    for _ in range(6):
        traj = integrate(seed, t0, params, stops, Budget(span=span), rtol=rtol)
        kind, _t, z = traj.terminal_event
        x1, x2, a_end, _ = z
        if kind == "reaches_a_equals_b":
            if x1 < x2:  # db/da = x1/x2 < 1 at the crossing
                return "alc", (1.0 / a_end) ** 4
            return "indeterminate", math.nan
        if kind in ("enters_death_chamber", "F_vanishes", "blow_up"):
            return "incomplete", -((1.0 / a_end) ** 4)
        span *= 2.0
    return "indeterminate", math.nan


def find_beta_ac(
    m: int,
    n: int,
    r0: float,
    tol: float = 1e-6,
    rtol: float = 1e-11,
) -> ShootResult:
    """Locate the seed parameter beta_ac between incomplete (below) and ALC (above).

    beta_ac is scale-free: r0 is checked and reported, and the shots run at r0 = 1.
    """
    _check_tol(tol)
    ModelParams.kmn(m, n, r0)
    history: list = []
    lo, hi, beta_ac, iterations = _root_on_miss(
        lambda beta: forward_shot(m, n, beta, rtol), 1.0, tol, history
    )
    return ShootResult(
        critical_value=beta_ac,
        bracket=(lo, hi),
        iterations=iterations,
        closure=None,
        history=history,
        meta={"m": m, "n": n, "r0": r0, "scheme": "forward", "tol": tol},
    )
