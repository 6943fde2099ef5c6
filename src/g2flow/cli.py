"""Command-line driver: solve, classify, sweep, find-ac, figure1, verify."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .classify import ClassifyBudget, chamber_membership, classify_trajectory
from .config import RunConfig, load_config
from .errors import BracketError, ConfigError, ConstraintError, G2FlowError
from .flow import DEGENERATION_STOPS, Budget, StopEvent, Trajectory, integrate, vec_to_state
from .invariants import eval_F, hamiltonian, mean_curvature
from .params import ModelParams
from .seeds import SeedSpec
from .shooter import BETA_GAP, find_beta_ac, find_c_ac, forward_seed, forward_shot

CSV_HEADER = (
    "param,t,s,a,b,da,db,F,H,mean_curvature,alc_chamber,alc_strict,death_quadrant,ac_backward"
)


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.17g}"


def spec_from_config(cfg: RunConfig) -> SeedSpec:
    """The seed the configuration names; `SeedSpec` resolves the family name
    and fills in the inputs left unset.  It raises `ConstraintError` on inputs
    the family rejects, which `main` reports as a config error."""
    return SeedSpec(
        family=cfg.family, switch_parameter=cfg.t_switch, r0=cfg.r0,
        alphas=(cfg.alpha1, None, cfg.alpha3), beta=cfg.beta,
        m=cfg.m, n=cfg.n, c=cfg.c, p=cfg.p, q=cfg.q,
    )


def _csv_rows(traj: Trajectory) -> list[str]:
    params = traj.params
    rows = []
    for i in range(len(traj)):
        pv = traj.ts[i]
        st = traj.state(i)
        a, b, da, db = st.a, st.b, st.da, st.db
        f = eval_F(a, b, params)[0]
        tval = pv if traj.system == "u1_arc" else float("nan")
        sval = a if traj.system == "u1_arc" else pv
        try:
            h = hamiltonian(st, params)
        except G2FlowError:
            h = float("nan")
        try:
            mc = mean_curvature(st, params)
        except G2FlowError:
            mc = float("nan")
        flags = [-1, -1, -1, -1]
        if da > 0 and db > 0 and f > 0:
            mem = chamber_membership(st, params)
            flags = [
                int("alc_chamber" in mem),
                int("alc_strict" in mem),
                int("death_quadrant" in mem),
                int("ac_backward" in mem),
            ]
        rows.append(
            ",".join(
                [_fmt(pv), _fmt(tval), _fmt(sval), _fmt(a), _fmt(b), _fmt(da), _fmt(db), _fmt(f), _fmt(h), _fmt(mc)]
                + [str(fl) for fl in flags]
            )
        )
    return rows


def write_trajectory_csv(path: str, traj: Trajectory):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in _csv_rows(traj):
            fh.write(row + "\n")


def _manifest(cfg: RunConfig, events: list, wall: float | None) -> dict:
    out = {
        "config": cfg.echo(),
        "config_hash": cfg.hash(),
        "events": [{"kind": k, "param": float(tp)} for k, tp, _ in events],
    }
    if wall is not None:
        out["wall_time_s"] = wall
    return out


def cmd_solve(cfg: RunConfig) -> dict:
    started = time.perf_counter()
    spec = spec_from_config(cfg)
    params, state, _ = spec.build()
    t0 = spec.t_switch
    t1 = cfg.t1 if cfg.t1 is not None else t0 + cfg.t_factor * params.scale3 ** (1.0 / 3.0)

    # chamber entries are recorded and the run continues; only genuine
    # degenerations terminate it
    recording = [
        StopEvent.make("enters_alc_chamber", strict=True),
        StopEvent.make("enters_death_chamber"),
        StopEvent.make("reaches_a_equals_b"),
    ]
    legs = []
    events = []
    cur_state, cur_t = state, t0
    active = list(recording)
    for _ in range(len(recording) + 1):
        traj = integrate(
            cur_state, cur_t, params, [*active, *DEGENERATION_STOPS],
            Budget(span=t1 - cur_t, max_steps=cfg.max_steps), rtol=cfg.rtol,
        )
        legs.append(traj)
        kind, tp, zv = traj.terminal_event
        events.append(traj.terminal_event)
        if kind in ("F_vanishes", "blow_up", "budget_exhausted") or tp >= t1:
            break
        active = [ev for ev in active if ev.kind != kind]
        cur_state = vec_to_state(traj.system, tp, zv)
        cur_t = tp

    merged = _merge_legs(legs, params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, merged)
    manifest = _manifest(cfg, events, time.perf_counter() - started)
    manifest["csv"] = csv_path
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _merge_legs(legs: list[Trajectory], params: ModelParams) -> Trajectory:
    ts = np.concatenate([legs[0].ts] + [leg.ts[1:] for leg in legs[1:]])
    zs = np.concatenate([legs[0].zs] + [leg.zs[1:] for leg in legs[1:]])
    events = [ev for leg in legs for ev in leg.events]
    segments = [seg for leg in legs for seg in leg.segments]
    return Trajectory(
        system=legs[0].system, params=params, ts=ts, zs=zs, events=events, segments=segments,
    )


def cmd_classify(cfg: RunConfig) -> dict:
    spec = spec_from_config(cfg)
    verdict = classify_trajectory(
        spec, ClassifyBudget(t_factor=cfg.t_factor, max_steps=cfg.max_steps),
        confirm_blowup=cfg.confirm_blowup, rtol=cfg.rtol,
    )
    payload = json.loads(verdict.to_json())
    payload["config_hash"] = cfg.hash()
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "verdict.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return payload


def cmd_sweep(cfg: RunConfig) -> dict:
    if not cfg.param or not cfg.values:
        raise ConfigError("sweep needs --param and --values")
    try:
        values = [float(v) for v in cfg.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from exc
    out = []
    for v in values:
        sub = replace(cfg, **{cfg.param: v})
        spec = spec_from_config(sub)
        verdict = classify_trajectory(
            spec, ClassifyBudget(t_factor=cfg.t_factor, max_steps=cfg.max_steps),
            confirm_blowup=cfg.confirm_blowup, rtol=cfg.rtol,
        )
        out.append({"value": v, "verdict": json.loads(verdict.to_json())})
    report = {"param": cfg.param, "results": out, "config_hash": cfg.hash()}
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def cmd_find_ac(cfg: RunConfig) -> dict:
    fwd = find_beta_ac(cfg.m, cfg.n, cfg.r0, tol=cfg.tol, rtol=cfg.rtol)
    back = find_c_ac(cfg.m, cfg.n, cfg.r0, tol=cfg.tol, k=cfg.k, rtol=cfg.rtol)
    beta_back = (back.closure or {}).get("beta")
    residual = None
    if beta_back is not None:
        residual = abs(fwd.critical_value - beta_back) / fwd.critical_value
    report = {
        "m": cfg.m,
        "n": cfg.n,
        "r0": cfg.r0,
        "beta_ac_forward": json.loads(fwd.to_json()),
        "c_ac_backward": json.loads(back.to_json()),
        "cross_validation_residual": residual,
        "config_hash": cfg.hash(),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(cfg.out_dir, "critical_trajectory.csv"), back.trajectory)
    with open(os.path.join(cfg.out_dir, "find_ac.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def cmd_figure1(cfg: RunConfig) -> dict:
    m, n, r0 = cfg.m, cfg.n, cfg.r0
    tol = min(cfg.tol, 1e-4)
    fwd = find_beta_ac(m, n, r0, tol=tol, rtol=cfg.rtol)
    beta_ac = fwd.critical_value
    # the beta_ac curve is AC only if the backward closure at c_ac lands on it
    beta_back = (find_c_ac(m, n, r0, tol=tol, k=cfg.k, rtol=cfg.rtol).closure or {}).get("beta")
    closes = beta_back is not None and abs(beta_back - beta_ac) <= max(tol, BETA_GAP) * beta_ac
    params = ModelParams.kmn(m, n, r0)
    ladder = [0.35, 0.6, 0.85, 1.0, 1.6, 3.0]
    os.makedirs(cfg.out_dir, exist_ok=True)
    curves = []
    for i, frac in enumerate(ladder):
        beta = frac * beta_ac
        if frac == 1.0:
            tag = "AC" if closes else "Indeterminate"
        else:
            side, _ = forward_shot(m, n, r0, beta, rtol=cfg.rtol)
            tag = {"alc": "ALC", "incomplete": "Incomplete"}.get(side, "Indeterminate")
        seed = forward_seed(m, n, r0, beta)
        span = 12.0 * r0**3 * m * n
        traj = integrate(seed, seed.a, params, DEGENERATION_STOPS, Budget(span=span), rtol=cfg.rtol)
        fname = f"curve_{i:02d}_{tag.lower()}.csv"
        write_trajectory_csv(os.path.join(cfg.out_dir, fname), traj)
        curves.append({"file": fname, "beta": beta, "verdict": tag})

    script = [
        "set xlabel 'a'",
        "set ylabel 'b'",
        "set key off",
        "plot \\",
    ]
    color = {"ALC": "blue", "AC": "black", "Incomplete": "red", "Indeterminate": "gray"}
    for i, curve in enumerate(curves):
        sep = "," if i + 1 < len(curves) else ""
        script.append(
            f"  '{curve['file']}' using 4:5 with lines lc rgb '{color[curve['verdict']]}'{sep} \\"
        )
    with open(os.path.join(cfg.out_dir, "figure1.gp"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(script) + "\n")
    report = {
        "beta_ac": beta_ac,
        "beta_backward": beta_back,
        "bracket": list(fwd.bracket),
        "curves": curves,
        "config_hash": cfg.hash(),
    }
    with open(os.path.join(cfg.out_dir, "figure1.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def cmd_verify(cfg: RunConfig) -> int:
    from .verification import run_verification

    results = run_verification(quick=cfg.quick, seed=cfg.seed)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  status  runtime  measured vs expected")
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{r.name:<{width}}  {status:6}  {r.runtime:6.2f}s  {r.measured} | {r.expected}")
    print("verdict:", "ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="g2flow", description=__doc__)
    ap.add_argument("--config", help="JSON config file (or set G2FLOW_CONFIG)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name):
        sp = sub.add_parser(name)
        sp.add_argument("--family")
        sp.add_argument("--m", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--r0", type=float)
        for fl in ("alpha1", "alpha3"):
            sp.add_argument(f"--{fl}", type=_float_or_auto)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--p", type=float)
        sp.add_argument("--q", type=float)
        sp.add_argument("--t1", type=float)
        sp.add_argument("--t-switch", dest="t_switch", type=float)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--k", type=float)
        sp.add_argument("--rtol", type=float)
        sp.add_argument("--t-factor", dest="t_factor", type=float)
        sp.add_argument("--max-steps", dest="max_steps", type=int)
        sp.add_argument("--confirm-blowup", dest="confirm_blowup", action="store_const", const=True)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--quick", action="store_const", const=True)
        sp.add_argument("--param")
        sp.add_argument("--values")
        sp.add_argument("--out-dir", dest="out_dir")
        return sp

    for name in ("solve", "classify", "sweep", "find-ac", "figure1", "verify"):
        add(name)
    return ap


def _float_or_auto(text: str):
    if text == "auto":
        return None
    return float(text)


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    try:
        cfg = load_config(ns.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if ns.command == "solve":
            cmd_solve(cfg)
            return 0
        if ns.command == "classify":
            payload = cmd_classify(cfg)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if ns.command == "sweep":
            cmd_sweep(cfg)
            return 0
        if ns.command == "find-ac":
            report = cmd_find_ac(cfg)
            print(json.dumps({"beta_ac": report["beta_ac_forward"]["critical_value"],
                              "c_ac": report["c_ac_backward"]["critical_value"],
                              "cross_validation_residual": report["cross_validation_residual"]},
                             indent=2, sort_keys=True))
            return 0
        if ns.command == "figure1":
            cmd_figure1(cfg)
            return 0
        if ns.command == "verify":
            return cmd_verify(cfg)
    except (ConfigError, ConstraintError) as exc:
        # ConstraintError: an input a seed family rejects, when the spec is
        # constructed or built
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        for row in exc.scan_table:
            print(f"  scanned {row}", file=sys.stderr)
        return 4
    except G2FlowError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
