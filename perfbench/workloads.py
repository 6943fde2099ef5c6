"""The three workloads: inputs drawn from a seed, the calls to time, the output checks.

Each workload's `build(seed, seconds)` returns the list of ops and a check
function mapping the run's OpLog to {op index: problem}.  Checks run after
the timed region.  Calls go through the `g2flow` package attributes at call
time, so a layer probe installed after the build sees them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import g2flow
from g2flow import Budget, DomainError, ModelParams, SeedSpec, StopEvent, U1State

from ops import Op

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Work per second of --seconds: a fixed amount of work per run that took
# about --seconds on the machine described in baseline.json.
LADDER_ROUNDS_PER_SECOND = 0.45
FLOWS_PER_SECOND = 70.0
WARM_C_AC_PER_SECOND = 0.5  # per pair, on top of the fixed shooting of critical_values


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# -- critical_values ------------------------------------------------------------

CV_FULL_PAIRS = ((1, 1), (1, 2))  # beta_ac, cold c_ac and warm c_ac
CV_BETA_ONLY_PAIRS = ((2, 3),)  # beta_ac only: a cold c_ac(2,3) alone took ~35 s there
CV_COLD_K = 1.25
CV_WARM_K = (1.40, 1.85)


def warm_count(seconds: float) -> int:
    return max(2, round(seconds * WARM_C_AC_PER_SECOND))


def _stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal slices of [lo, hi]."""
    return [lo + (hi - lo) * (j + rng.uniform()) / k for j in range(k)]


def build_critical_values(seed: int, seconds: float):
    """Criterion-8 shooting on (1,1) and (1,2), and forward shooting on (2,3).

    The first find_c_ac of a pair runs with an empty AC-series cache (cold),
    the ones after it reuse it (warm).  The seed draws the warm gamma-curve
    slopes k, one in each slice of CV_WARM_K, in shuffled order; c_ac does
    not depend on k.  The shooting for beta_ac and cold c_ac is a fixed
    amount of work; the number of warm c_ac grows with `seconds`.  The warm
    ops outnumber the others, so the median and tail latencies are warm
    c_ac times whatever the draw.
    """
    rng = np.random.default_rng(seed)
    tol = REFERENCE["tolerances"]
    ops: list[Op] = []
    pairs: list[str] = []
    for m, n in CV_FULL_PAIRS + CV_BETA_ONLY_PAIRS:
        ops.append(
            Op(f"beta_ac({m},{n})", lambda m=m, n=n: g2flow.find_beta_ac(m, n, 1.0, tol=tol["beta_ac"]), "beta_ac")
        )
        pairs.append(f"{m},{n}")
        if (m, n) not in CV_FULL_PAIRS:
            continue
        warm = [float(k) for k in rng.permutation(_stratified(rng, *CV_WARM_K, warm_count(seconds)))]
        for i, k in enumerate([CV_COLD_K] + warm):
            ops.append(
                Op(
                    f"c_ac({m},{n}) k={k:.4f}",
                    lambda m=m, n=n, k=k: g2flow.find_c_ac(m, n, 1.0, tol=tol["c_ac"], k=k),
                    "c_ac_cold" if i == 0 else "c_ac_warm",
                )
            )
            pairs.append(f"{m},{n}")

    def check(log) -> dict[int, str]:
        problems: dict[int, str] = {}
        forward: dict[str, float] = {}
        cold: dict[str, float] = {}
        for i, (op, pair, res) in enumerate(zip(log.ops, pairs, log.results)):
            if res is None:
                continue
            ref = REFERENCE["pairs"][pair]
            value = res.critical_value
            if op.phase == "beta_ac":
                forward[pair] = value
                if _rel(value, ref["beta_ac"]) > tol["beta_ac"]:
                    problems[i] = f"beta_ac {value!r} vs reference {ref['beta_ac']!r}"
                continue
            if _rel(value, ref["c_ac"]) > tol["c_ac"]:
                problems[i] = f"c_ac {value!r} vs reference {ref['c_ac']!r}"
                continue
            if op.phase == "c_ac_cold":
                cold[pair] = value
                beta_back = (res.closure or {}).get("beta")
                beta_fwd = forward.get(pair, ref["beta_ac"])
                if beta_back is None:
                    problems[i] = f"no closure beta at c_ac: {res.closure}"
                elif _rel(beta_back, beta_fwd) > tol["forward_backward"]:
                    problems[i] = f"forward beta {beta_fwd!r} vs backward {beta_back!r}"
            elif pair in cold and _rel(value, cold[pair]) > tol["k_independence"]:
                problems[i] = f"c_ac {value!r} depends on k (cold value {cold[pair]!r})"
        return problems

    return ops, check


# -- verdict_ladders --------------------------------------------------------------


def _b7(ratio: float) -> SeedSpec:
    a1 = 1.0 / (64.0 * (2.0 + ratio))
    return SeedSpec(family="delta_su2", r0=1.0, alphas=(a1, a1, ratio * a1), switch_parameter=0.1)


def _d7(alpha3: float) -> SeedSpec:
    a1 = 1.0 / math.sqrt(alpha3)
    return SeedSpec(family="su2_factor", r0=1.0, alphas=(a1, a1, alpha3), switch_parameter=0.1)


def _cs(c: float) -> SeedSpec:
    return SeedSpec(family="cs_end", c=c, switch_parameter=0.1)


def _kmn(m: int, n: int):
    beta_ac = REFERENCE["pairs"][f"{m},{n}"]["beta_ac"]
    return lambda f: SeedSpec(family="kmn", m=m, n=n, beta=f * beta_ac, switch_parameter=0.05)


# name: (spec from the ladder parameter, critical value or None, points per side,
#        (interval, verdict) below the critical value, (interval, verdict) above it).
# The intervals span the criterion-6 ladders; the K(m,n) ladders are in units
# of beta_ac.
LADDERS = {
    "B7": (_b7, 1.0, 4, ((0.2, 0.9), "ALC"), ((1.15, 4.0), "Incomplete")),
    "D7": (_d7, 1.0, 4, ((0.5, 0.95), "ALC"), ((1.1, 2.0), "Incomplete")),
    "CS": (_cs, 0.0, 4, ((-2.0, -0.1), "Incomplete"), ((0.1, 2.0), "ALC")),
    "K12": (_kmn(1, 2), None, 3, ((0.5, 0.95), "Incomplete"), ((1.05, 2.0), "ALC")),
    "K23": (_kmn(2, 3), None, 3, ((0.5, 0.95), "Incomplete"), ((1.05, 2.0), "ALC")),
}


def ladder_rounds(seconds: float) -> int:
    return max(1, round(seconds * LADDER_ROUNDS_PER_SECOND))


def build_verdict_ladders(seed: int, seconds: float):
    """Rounds of the B7 / D7 / CS ladders and the K(1,2) / K(2,3) beta ladders.

    Each side of a ladder gets one uniform draw in each of rounds * points
    equal slices of its interval, dealt to the rounds in shuffled order, so
    every run covers the intervals alike and the seed moves only the points
    within their slices.  The AC points sit exactly at the critical
    parameter.  An op's phase is the verdict the theorems state for it.
    """
    rng = np.random.default_rng(seed)
    rounds = ladder_rounds(seconds)

    def side(interval, k):
        return np.reshape(rng.permutation(_stratified(rng, *interval, rounds * k)), (rounds, k))

    draws = {
        name: (side(below, k), side(above, k))
        for name, (_, _, k, (below, _), (above, _)) in LADDERS.items()
    }
    ops: list[Op] = []
    for r in range(rounds):
        for name, (make, critical, k, (_, v_below), (_, v_above)) in LADDERS.items():
            xs_below, xs_above = draws[name]
            points = [(float(x), v_below) for x in xs_below[r]]
            if critical is not None:
                points.append((critical, "AC"))
            points += [(float(x), v_above) for x in xs_above[r]]
            for x, verdict in points:
                spec = make(x)
                ops.append(Op(f"{name}@{x:.6g}", lambda spec=spec: g2flow.classify_trajectory(spec), verdict))

    def check(log) -> dict[int, str]:
        problems: dict[int, str] = {}
        for i, (op, res) in enumerate(zip(log.ops, log.results)):
            want = op.phase
            if res is None:
                continue
            if res.kind != want:
                problems[i] = f"{op.label}: {res.kind} ({res.reason}), theorem says {want}"
            elif want == "ALC" and not (res.ell is not None and math.isfinite(res.ell) and res.ell > 0):
                problems[i] = f"{op.label}: ALC without a finite positive ell ({res.ell})"
        return problems

    return ops, check


# -- chamber_flows ------------------------------------------------------------------

FLOW_PARAMS = (
    ModelParams.delta_su2(1.0),
    ModelParams.su2_factor(1.0),
    ModelParams.kmn(1, 2, 1.0),
    ModelParams.kmn(2, 3, 1.0),
    ModelParams.cone(),
)
STRATA = tuple((chamber, params) for chamber in ("alc_chamber", "death_quadrant") for params in FLOW_PARAMS)


def _chamber_state(u, params: ModelParams, chamber: str) -> U1State | None:
    """Criterion 7's chamber sampler at the unit-cube point u."""
    bfl = params.b_floor
    base = max(bfl, params.scale3, 0.3)
    if chamber == "alc_chamber":
        b = bfl + base * (0.1 + 1.9 * u[0])
        a = b * (1.05 + 1.45 * u[1])
        lam = 1.05 + 1.95 * u[2]
    else:
        b = bfl + base * (0.15 + 1.85 * u[0])
        a = b * (0.15 + 0.75 * u[1])
        lam = (a / b) * (0.1 + 0.82 * u[2])
    f = g2flow.eval_F(a, b, params)[0]
    if f <= 0:
        return None
    db = (math.sqrt(f) / (2 * lam * lam)) ** (1.0 / 3.0)
    state = U1State(a=a, b=b, da=lam * db, db=db)
    try:
        return state if chamber in g2flow.chamber_membership(state, params) else None
    except DomainError:
        return None


RUNS_PER_STRATUM = 2  # per sweep


def sweep_count(seconds: float) -> int:
    return max(1, round(seconds * FLOWS_PER_SECOND / (RUNS_PER_STRATUM * len(STRATA))))


def _sample_stratum(rng, params, chamber, count) -> list[U1State]:
    """Latin-hypercube draws over the sampler's three coordinates; rejected points are redrawn."""
    cube = (np.array([rng.permutation(count) for _ in range(3)]).T + rng.uniform(size=(count, 3))) / count
    states = []
    for u in cube:
        state = _chamber_state(u, params, chamber)
        while state is None:
            state = _chamber_state(rng.uniform(size=3), params, chamber)
        states.append(state)
    return states


def _flow(state: U1State, params: ModelParams) -> tuple:
    """One short run; returns the accepted states before a located stop."""
    traj = g2flow.integrate(
        state, 0.0, params,
        [StopEvent.make("F_vanishes"), StopEvent.make("blow_up")],
        Budget(span=0.5 * max(1.0, state.b ** (1.0 / 3.0))), rtol=1e-9,
    )
    stopped = traj.terminal_event is not None and traj.terminal_event[0] != "budget_exhausted"
    upto = len(traj) - (1 if stopped else 0)
    return traj.system, traj.ts[:upto], traj.zs[:upto]


def build_chamber_flows(seed: int, seconds: float):
    """Short forward runs from random states in the ALC and death chambers.

    Criterion 7's runs, at rtol 1e-9 with F_vanishes and blow_up stops.  An
    op is a sweep: two runs from each of the ten strata (five parameter sets
    times two chambers).  Runs ending in budget exhaustion take about 1 ms
    and runs reaching a stop 20-40 ms, and the share of each varies with the
    draw, so a single run's latency is bimodal; a sweep's is close to normal.
    """
    rng = np.random.default_rng(seed)
    count = sweep_count(seconds)
    columns = [_sample_stratum(rng, params, chamber, count * RUNS_PER_STRATUM) for chamber, params in STRATA]
    plan = [
        [(column[RUNS_PER_STRATUM * i + j], chamber, params)
         for column, (chamber, params) in zip(columns, STRATA) for j in range(RUNS_PER_STRATUM)]
        for i in range(count)
    ]
    ops = [
        Op(f"sweep {i}", lambda sweep=sweep: [_flow(state, params) for state, _, params in sweep])
        for i, sweep in enumerate(plan)
    ]

    def check(log) -> dict[int, str]:
        problems: dict[int, str] = {}
        for i, (sweep, runs) in enumerate(zip(plan, log.results)):
            for (_, chamber, params), (system, ts, zs) in zip(sweep, runs or ()):
                t = _first_exit(chamber, params, system, ts, zs)
                if t is not None:
                    problems[i] = f"{log.ops[i].label}: left {chamber} at t = {t!r}"
        return problems

    return ops, check


def _first_exit(chamber, params, system, ts, zs):
    """First sample outside `chamber` while da, db and F are positive, or None."""
    for t, z in zip(ts, zs):
        try:
            state = g2flow.flow.vec_to_state(system, t, z)
            if chamber not in g2flow.chamber_membership(state, params, cushion=0.0):
                return t
        except DomainError:
            return None  # da, db or F no longer positive: persistence no longer required
    return None


WORKLOADS = {
    "critical_values": build_critical_values,
    "verdict_ladders": build_verdict_ladders,
    "chamber_flows": build_chamber_flows,
}
