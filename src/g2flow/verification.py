"""Acceptance checks shared by `g2flow verify` and the pytest acceptance suite.

Each check returns a CheckResult with the measured quantity, its expectation
and the tolerance it was held to.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .classify import ELL_GAP_TOL, ClassifyBudget, chamber_membership, classify_trajectory
from .errors import DomainError, G2FlowError
from .flow import DEGENERATION_STOPS, Budget, integrate, vec_to_state
from . import seeds as sd
from .invariants import U1State, eval_F, su2cubed_curve_residual
from .params import ModelParams
from .seeds import (
    NU0,
    NUINF,
    SeedSpec,
    cone_state,
    cs_linearization_eigen,
)
from .shooter import BETA_GAP, find_beta_ac, find_c_ac

RNG_SEED = 20240801


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str
    runtime: float
    detail: dict = field(default_factory=dict)


class VerificationContext:
    """Carries artifacts between checks (criterion 10 reuses 6 and 8)."""

    def __init__(self, seed: int = RNG_SEED, quick: bool = False):
        self.rng = np.random.default_rng(seed)
        self.quick = quick
        self.alc_verdicts: list = []
        self.alc_tails: list = []
        self.results: list[CheckResult] = []

    def run(self, func) -> CheckResult:
        t0 = time.perf_counter()
        try:
            res = func(self)
        except G2FlowError as exc:
            res = CheckResult(
                name=func.__name__.removeprefix("check_"),
                passed=False,
                measured=f"error: {exc}",
                expected="no error",
                runtime=0.0,
            )
        res.runtime = time.perf_counter() - t0
        self.results.append(res)
        return res


# -- criterion 1: exponents ----------------------------------------------------


def check_exponents(_ctx) -> CheckResult:
    """nu0 and nu_inf as eigenvalues of the CS and AC linearizations, each
    computed by `_linearize` from its own Phi, not from the printed roots."""
    L, _, _ = cs_linearization_eigen()
    nu0 = float(np.max(np.linalg.eigvals(L).real))
    nuinf = float(np.max(np.linalg.eigvals(sd._ac_series_unit(0.0, 0.0, 15.0).linearization).real))
    e0 = abs(nu0 - (math.sqrt(145.0) - 7.0) / 2.0)
    e1 = abs(nuinf - (math.sqrt(145.0) + 7.0) / 2.0)
    e2 = abs(nu0 * nuinf - 24.0)
    e3 = abs(nuinf - nu0 - 7.0)
    worst = max(e0, e1, e2 / 24.0, e3 / 7.0)
    return CheckResult(
        name="exponents",
        passed=worst <= 1e-12,
        measured=f"nu0 = {nu0:.12f}, nu_inf = {nuinf:.12f} from the CS and AC linearizations"
        f" (worst defect {worst:.2e})",
        expected="(sqrt(145) -+ 7)/2 to 1e-12; nu0 nu_inf = 24, nu_inf - nu0 = 7",
        runtime=0.0,
    )


# -- criterion 2: eigen-structure ---------------------------------------------


def check_eigenstructure(_ctx) -> CheckResult:
    L, eigenvalues, eigenvectors = cs_linearization_eigen()
    expected = np.array([-1.0, -6.0, -NUINF, NU0])
    worst = 0.0
    actual = np.sort(np.linalg.eigvals(L).real)
    worst = max(worst, float(np.max(np.abs(actual - np.sort(expected)))))
    for i in range(4):
        v = eigenvectors[:, i]
        defect = np.linalg.norm(L @ v - eigenvalues[i] * v) / np.linalg.norm(v)
        worst = max(worst, float(defect))
    return CheckResult(
        name="eigenstructure",
        passed=worst <= 1e-10,
        measured=f"worst eigen defect {worst:.2e}",
        expected="eigenvalues {-1, -6, -nu_inf, nu0} and printed eigenvectors to 1e-10",
        runtime=0.0,
    )


# -- criterion 3: Hamiltonian conservation -------------------------------------


def _growth_span(a_target: float) -> float:
    # late-time a ~ t^3/18 for every complete end in scope
    return 2.0 * (18.0 * a_target) ** (1.0 / 3.0)


def check_hamiltonian_conservation(ctx) -> CheckResult:
    seeds = {
        "B7": SeedSpec(family="delta_su2", r0=1.0, alphas=(1 / 160, 1 / 160, 1 / 320), switch_parameter=0.1),
        "D7": SeedSpec(family="su2_factor", r0=1.0, alphas=(2 ** 0.25, 2 ** 0.25, 2 ** -0.5), switch_parameter=0.1),
        "CS": SeedSpec(family="cs_end", c=1.0, switch_parameter=0.1),
        "K12": SeedSpec(family="kmn", m=1, n=2, beta=4.0, switch_parameter=0.05),
    }
    growth = 100.0 if ctx.quick else 1000.0
    worst = 0.0
    grew = True
    detail = {}
    for name, spec in seeds.items():
        params, state, _ = spec.build()
        t0 = spec.t_switch
        span = _growth_span(state.a * growth)
        traj = integrate(
            state, t0, params, DEGENERATION_STOPS,
            Budget(span=span), rtol=1e-11,
        )
        a_grow = traj.ab_arrays()[0][-1] / state.a
        hmax, vmax = traj.hamiltonian_drift()
        rel = hmax / (1e-7 * (1.0 + vmax))
        detail[name] = {"max_H": hmax, "vol_scale": 1.0 + vmax, "a_growth": a_grow}
        worst = max(worst, rel)
        grew = grew and a_grow >= growth
    return CheckResult(
        name="hamiltonian_conservation",
        passed=worst <= 1.0 and grew,
        measured=f"worst max|H| at {worst:.3f} of budget" + ("" if grew else "; growth target missed"),
        expected=f"max|H| <= 1e-7 x volume scale over {growth:.0f}-fold growth in a",
        runtime=0.0,
        detail=detail,
    )


# -- criterion 4: cone exactness ------------------------------------------------


def check_cone_exactness(_ctx) -> CheckResult:
    params = ModelParams.cone()
    state = cone_state(1.0)
    traj = integrate(state, 1.0, params, [], Budget(span=99.0), rtol=1e-11)
    a, b, _, _ = traj.ab_arrays()
    t = traj.ts
    ratio = np.max(np.abs(a / b - 1.0))
    cone_dev = np.max(np.abs(54.0 * a / (math.sqrt(3.0) * t**3) - 1.0))
    passed = ratio <= 1e-8 and cone_dev <= 1e-7
    return CheckResult(
        name="cone_exactness",
        passed=passed,
        measured=f"max|a/b - 1| = {ratio:.2e}, max|54a/(sqrt3 t^3) - 1| = {cone_dev:.2e}",
        expected="<= 1e-8 and <= 1e-7 over t in [1, 100]",
        runtime=0.0,
    )


# -- criterion 5: Bryant-Salamon curve ------------------------------------------


def check_bryant_salamon_curve(_ctx) -> CheckResult:
    # the symmetric B7 seed; the curve is read off x1 = da db and y1 = a of the U(1) run
    spec = SeedSpec(family="delta_su2", r0=1.0, alphas=(1 / 192, 1 / 192, 1 / 192), switch_parameter=0.1)
    params, state, _ = spec.build()
    y0 = state.a
    span = _growth_span(y0 * 100.0)
    traj = integrate(state, spec.t_switch, params, [], Budget(span=span), rtol=1e-11)
    worst = 0.0
    for x, _, y, _ in traj.zs:
        scale = 4 * abs(x) ** 3 + 3 * y**4 + 4 * abs(params.p - params.q) * abs(y) ** 3 + 6 * abs(
            params.p * params.q
        ) * y**2 + (params.p * params.q) ** 2
        worst = max(worst, abs(su2cubed_curve_residual(x, y, params)) / scale)
    growth = traj.zs[-1][2] / y0
    return CheckResult(
        name="bryant_salamon_curve",
        passed=worst <= 1e-8 and growth >= 100.0,
        measured=f"max relative curve residual {worst:.2e} over {growth:.0f}-fold growth in y",
        expected="<= 1e-8 over 100-fold growth",
        runtime=0.0,
    )


# -- criterion 6: trichotomy ladders --------------------------------------------


def _b7_spec(ratio: float) -> SeedSpec:
    a1 = 1.0 / (64.0 * (2.0 + ratio))
    return SeedSpec(family="delta_su2", r0=1.0, alphas=(a1, a1, ratio * a1), switch_parameter=0.1)


def _d7_spec(alpha3: float) -> SeedSpec:
    a1 = 1.0 / math.sqrt(alpha3)
    return SeedSpec(family="su2_factor", r0=1.0, alphas=(a1, a1, alpha3), switch_parameter=0.1)


def check_trichotomy(ctx) -> CheckResult:
    ladders = {
        "B7": ([0.2, 0.45, 0.7, 0.9, 1.0, 1.15, 1.5, 2.5, 4.0], _b7_spec),
        "D7": ([0.5, 0.7, 0.85, 0.95, 1.0, 1.1, 1.3, 1.6, 2.0], _d7_spec),
        "CS": (
            [-1.0, -0.5, -0.1, -2.0, 0.0, 0.1, 0.5, 1.0, 2.0],
            lambda c: SeedSpec(family="cs_end", c=c, switch_parameter=0.1),
        ),
    }
    if ctx.quick:
        ladders = {fam: (vals[3:6], make) for fam, (vals, make) in ladders.items()}
    failures = []
    detail = {}
    for fam, (values, make) in ladders.items():
        for v in values:
            verdict = classify_trajectory(make(v), ClassifyBudget())
            expected = "ALC" if v < 1.0 else ("AC" if v == 1.0 else "Incomplete")
            if fam == "CS":
                expected = "ALC" if v > 0 else ("AC" if v == 0 else "Incomplete")
            detail[f"{fam}@{v}"] = verdict.kind
            if verdict.kind != expected:
                failures.append(f"{fam}@{v}: got {verdict.kind}, want {expected}")
            if verdict.kind == "ALC":
                ctx.alc_verdicts.append((f"{fam}@{v}", verdict))
    return CheckResult(
        name="trichotomy",
        passed=not failures,
        measured="; ".join(failures) if failures else "all ladder points classified as the theorems state",
        expected="ALC below / AC at / Incomplete above the critical parameter",
        runtime=0.0,
        detail=detail,
    )


# -- criterion 7: chamber persistence -------------------------------------------


def _sample_chamber_state(rng, params: ModelParams, chamber: str) -> U1State | None:
    bfl = params.b_floor
    base = max(bfl, params.scale3, 0.3)
    for _ in range(40):
        if chamber == "alc_chamber":
            b = bfl + base * rng.uniform(0.1, 2.0)
            a = b * (1.0 + rng.uniform(0.05, 1.5))
            lam = rng.uniform(1.05, 3.0)
        else:
            b = bfl + base * rng.uniform(0.15, 2.0)
            a = b * rng.uniform(0.15, 0.9)
            lam = (a / b) * rng.uniform(0.1, 0.92)
        f, _, _ = eval_F(a, b, params)
        if f <= 0:
            continue
        db = (math.sqrt(f) / (2 * lam * lam)) ** (1.0 / 3.0)
        state = U1State(a=a, b=b, da=lam * db, db=db)
        try:
            if chamber in chamber_membership(state, params):
                return state
        except DomainError:
            continue
    return None


# states checked inside each accepted step, besides its ends
PERSISTENCE_POINTS_PER_STEP = 4


def _persistence_points(traj, upto: int):
    """The first `upto` samples, each followed by points inside the step after it
    (evenly spaced in the clock the step was taken in), in order along the run."""
    for i in range(upto):
        yield traj.ts[i], traj.zs[i]
        if i < len(traj.segments):
            yield from traj.step_points(i, PERSISTENCE_POINTS_PER_STEP)


def check_chamber_persistence(ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.rng.integers(2**32))
    trials = 100 if ctx.quick else 1000
    param_pool = [
        ModelParams.delta_su2(1.0),
        ModelParams.su2_factor(1.0),
        ModelParams.kmn(1, 2, 1.0),
        ModelParams.kmn(2, 3, 1.0),
        ModelParams.cone(),
    ]
    exits = 0
    checked = 0
    tested = {"alc_chamber": 0, "death_quadrant": 0}
    for chamber in ("alc_chamber", "death_quadrant"):
        done = 0
        while done < trials:
            params = param_pool[int(rng.integers(len(param_pool)))]
            state = _sample_chamber_state(rng, params, chamber)
            if state is None:
                continue
            done += 1
            tested[chamber] += 1
            span = 0.5 * max(1.0, state.b ** (1.0 / 3.0))
            traj = integrate(
                state, 0.0, params,
                DEGENERATION_STOPS,
                Budget(span=span), rtol=1e-9,
            )
            upto = len(traj) - (1 if traj.terminal_event and traj.terminal_event[0] != "budget_exhausted" else 0)
            for t, z in _persistence_points(traj, upto):
                checked += 1
                try:
                    if chamber not in chamber_membership(vec_to_state(traj.system, t, z), params, cushion=0.0):
                        exits += 1
                        break
                except DomainError:
                    break  # left da, db, F > 0: persistence no longer required
    return CheckResult(
        name="chamber_persistence",
        passed=exits == 0,
        measured=f"{exits} exits over {tested} forward evolutions, {checked} states checked",
        expected="zero exits from alc_chamber / death_quadrant while da, db, F > 0",
        runtime=0.0,
    )


# -- criterion 8: critical-value cross-validation --------------------------------


# c_ac shot to tol = 1e-10 moves by at most 1.5e-11 over k in {1.25, 1.5, 1.75}
K_DEPENDENCE = 1e-8


def check_critical_cross_validation(ctx) -> CheckResult:
    pairs = [(1, 1), (1, 2), (2, 3)]
    kvals = [1.25, 1.5, 1.75]
    if ctx.quick:
        pairs, kvals = [(1, 2)], [1.5]
    failures = []
    detail = {}
    for m, n in pairs:
        fwd = find_beta_ac(m, n, 1.0, tol=1e-9)
        c_results = {k: find_c_ac(m, n, 1.0, tol=1e-10, k=k) for k in kvals}
        base = c_results[kvals[0]]
        beta_back = None
        if base.closure and "beta" in base.closure:
            beta_back = base.closure["beta"]
        detail[f"({m},{n})"] = {
            "beta_ac_forward": fwd.critical_value,
            "c_ac": base.critical_value,
            "beta_backward": beta_back,
        }
        if beta_back is None:
            failures.append(f"({m},{n}): no closure extracted at c_ac")
            continue
        rel = abs(fwd.critical_value - beta_back) / fwd.critical_value
        detail[f"({m},{n})"]["cross_residual"] = rel
        if rel > BETA_GAP:
            failures.append(f"({m},{n}): forward/backward beta mismatch {rel:.2e}")
        for k in kvals[1:]:
            dk = abs(c_results[k].critical_value - base.critical_value) / base.critical_value
            detail[f"({m},{n})"][f"k_dev_{k}"] = dk
            if dk > K_DEPENDENCE:
                failures.append(f"({m},{n}): c_ac k-dependence {dk:.2e} at k = {k}")
        ctx.alc_tails.append((m, n, fwd))
    return CheckResult(
        name="critical_cross_validation",
        passed=not failures,
        measured="; ".join(failures) if failures else "forward and backward schemes agree",
        expected=f"|beta_fwd - beta_back|/beta <= {BETA_GAP:g}; c_ac k-independent to {K_DEPENDENCE:g}",
        runtime=0.0,
        detail=detail,
    )


# -- criterion 9: figure 1 --------------------------------------------------------


def check_figure1(ctx) -> CheckResult:
    import tempfile
    from .cli import cmd_figure1
    from .config import RunConfig

    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig(out_dir=tmp, m=1, n=2, r0=1.0, tol=1e-4)
        report = cmd_figure1(cfg)
    tags = [curve["verdict"] for curve in report["curves"]]
    n_alc = tags.count("ALC")
    n_ac = tags.count("AC")
    n_inc = tags.count("Incomplete")
    passed = n_alc >= 2 and n_ac == 1 and n_inc >= 2
    return CheckResult(
        name="figure1",
        passed=passed,
        measured=f"{n_alc} ALC, {n_ac} AC, {n_inc} incomplete curves",
        expected=">= 2 ALC, exactly 1 AC separatrix, >= 2 incomplete",
        runtime=0.0,
        detail={"tags": tags},
    )


# -- criterion 10: ALC asymptotics ------------------------------------------------


# t db/b at the ALC horizon is at most 5.2e-3 from 2 on the criterion-6 ladders
# and the K(m, n) seeds at 2 beta_ac (worst: D7 at alpha3 = 0.5)
EXPONENT_WINDOW = 1e-2


def check_alc_asymptotics(ctx) -> CheckResult:
    failures = []
    verdicts = list(ctx.alc_verdicts)
    for m, n, fwd in ctx.alc_tails:
        label = f"kmn({m},{n}) at 2 beta_ac"
        verdict = classify_trajectory(
            SeedSpec(family="kmn", m=m, n=n, beta=2.0 * fwd.critical_value, switch_parameter=0.05)
        )
        if verdict.kind == "ALC":
            verdicts.append((label, verdict))
        else:
            failures.append(f"{label}: {verdict.kind}")
    for label, verdict in verdicts:
        rel = abs(verdict.ell - verdict.ell_alt) / abs(verdict.ell)
        if not rel <= ELL_GAP_TOL:
            failures.append(f"{label}: ell estimators disagree by {rel:.2e}")
        expo = verdict.diagnostics.get("b_fit_exponent")
        if expo is None:
            failures.append(f"{label}: no b ~ t^k growth exponent")
        elif not abs(expo - 2.0) <= EXPONENT_WINDOW:
            failures.append(f"{label}: b ~ t^k exponent k = {expo:.4f}")
    checked = len(ctx.alc_verdicts) + len(ctx.alc_tails)
    if checked == 0:
        failures.append("no ALC verdicts were produced by criteria 6 and 8")
    return CheckResult(
        name="alc_asymptotics",
        passed=not failures,
        measured="; ".join(failures) if failures else f"{checked} ALC verdicts cross-checked",
        expected=f"two ell estimators within {ELL_GAP_TOL:g} relative; b-exponent within {EXPONENT_WINDOW:g} of 2",
        runtime=0.0,
    )


# -- criterion 11: series residual orders ------------------------------------------


def _series_residual_slope(sol, rhs, hs=(0.2, 0.1)) -> tuple[float, float]:
    """Residual t dy/dt - Phi(y(t), t) of the truncated series at two parameters.

    Phi is evaluated numerically by feeding constant-y series into the
    right-hand side (its explicit t-monomials survive) and evaluating the
    resulting t-series at the parameter.
    """
    from .series import Series

    order_eval = sol.truncation_order + 8.0
    resid = []
    for h in hs:
        y = sol.evaluate(h)
        tdy = sol.evaluate_tderivative(h)
        ys = [Series.constant(sol.lattice, order_eval, float(v)) for v in y]
        phi = rhs(ys)
        phi_vals = np.array([p.evaluate(h) for p in phi])
        resid.append(float(np.max(np.abs(tdy - phi_vals))))
    slope = math.log(resid[0] / resid[1]) / math.log(hs[0] / hs[1])
    return slope, resid[0]


def check_series_residual_orders(ctx) -> CheckResult:
    # per-family evaluation windows: large enough for the residual signal to
    # clear the roundoff floor, small enough to stay inside convergence
    cases = {
        "delta_su2": (
            sd.seed_delta_su2(1 / 160, 1 / 320, 0.1)[0],
            sd._phi_delta_su2(),
            (0.8, 0.4),
        ),
        "su2_factor": (
            sd.seed_su2_factor(2 ** 0.25, 2 ** -0.5, 0.1)[0],
            sd._phi_su2_factor(),
            (0.8, 0.4),
        ),
        "kmn(1,2)": (
            sd.seed_kmn(1, 2, 1.0, t_switch=0.05)[0],
            sd._phi_kmn(1, 2, 1.0),
            (0.2, 0.1),
        ),
        "cs(c=1)": (sd.seed_cs_end(1.0, 0.1)[0], sd._phi_cs(), (0.2, 0.1)),
        "ac(cone;c=1)": (sd._ac_series_unit(0.0, 0.0, 15.0), sd._phi_ac(0.0, 0.0), (0.35, 0.25)),
    }
    failures = []
    detail = {}
    for name, (sol, rhs, hs) in cases.items():
        declared = sol.first_omitted_exponent
        slope, r0 = _series_residual_slope(sol, rhs, hs=hs)
        detail[name] = {"declared": declared, "fitted": slope, "residual": r0}
        if abs(slope - declared) > 0.2:
            failures.append(f"{name}: slope {slope:.2f} vs declared {declared:.2f}")
    return CheckResult(
        name="series_residual_orders",
        passed=not failures,
        measured="; ".join(failures) if failures else "all residual orders match",
        expected="log-log residual slope within 0.2 of the first omitted exponent",
        runtime=0.0,
        detail=detail,
    )


# -- criterion 12: scaling equivariance ---------------------------------------------


def check_scaling_equivariance(_ctx) -> CheckResult:
    lam = 2.0
    t0 = 0.05
    span = 6.0
    p1, s1, _ = SeedSpec(family="kmn", m=1, n=2, r0=1.0, beta=4.0, switch_parameter=t0).build()
    p2, s2, _ = SeedSpec(family="kmn", m=1, n=2, r0=lam, beta=4.0, switch_parameter=lam * t0).build()
    tr1 = integrate(s1, t0, p1, [], Budget(span=span), rtol=1e-12)
    tr2 = integrate(s2, lam * t0, p2, [], Budget(span=lam * span), rtol=1e-12)
    tgrid = np.linspace(2 * lam * t0, lam * (t0 + span) * 0.98, 40)
    worst = 0.0
    for t in tgrid:
        z2 = tr2.interpolate(t)
        z1 = tr1.interpolate(t / lam)
        a2, b2 = z2[2], z2[3]
        a1, b1 = z1[2], z1[3]
        worst = max(
            worst,
            abs(a2 - lam**3 * a1) / max(abs(a2), 1e-30),
            abs(b2 - lam**3 * b1) / max(abs(b2), 1e-30),
        )
    return CheckResult(
        name="scaling_equivariance",
        passed=worst <= 1e-8,
        measured=f"worst matched-parameter mismatch {worst:.2e}",
        expected="lambda = 2 rescaled K(1,2) trajectory matches to 1e-8",
        runtime=0.0,
    )


ALL_CHECKS = [
    check_exponents,
    check_eigenstructure,
    check_hamiltonian_conservation,
    check_cone_exactness,
    check_bryant_salamon_curve,
    check_trichotomy,
    check_chamber_persistence,
    check_critical_cross_validation,
    check_figure1,
    check_alc_asymptotics,
    check_series_residual_orders,
    check_scaling_equivariance,
]

QUICK_CHECKS = [check_exponents, check_eigenstructure, check_series_residual_orders]


def run_verification(quick: bool = False, seed: int = RNG_SEED) -> list[CheckResult]:
    ctx = VerificationContext(seed=seed, quick=quick)
    for func in (QUICK_CHECKS if quick else ALL_CHECKS):
        ctx.run(func)
    return ctx.results
