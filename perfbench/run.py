"""The g2flow benchmark.

    python3 perfbench/run.py --workload critical_values|verdict_ladders|chamber_flows
                             --seed N --seconds S --trace 0|1

Run from anywhere; g2flow is imported from the `src/` directory next to this
one.  Each measurement is a fresh Python process (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread, so caches start empty and no pool is
started.

--trace 0 runs set-up-only processes and one measured process, and reports
the end-to-end metrics.  --trace 1 runs the workload untraced and then traced
on the same inputs, and reports the per-layer metrics, the per-layer self-time
table and the tracing overhead; the spans go to perfbench/out/.

The report goes to standard output; its last line is one JSON object with the
keys correct, attempted, failed and metrics.  The full result, with machine
metadata, is written to perfbench/out/.  The exit status is 0 when the
benchmark ran, whether or not the outputs were correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0  # every child must finish within this many seconds of the start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("critical_values", "verdict_ladders", "chamber_flows")



class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, mode: str, trace: int, deadline: float, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--mode", mode, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a measured process")
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-ns", str(spawned)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(child: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        **child["versions"],
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def end_to_end(main: dict, setup_samples: list[float]) -> dict[str, float]:
    lat = main["latency"]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": main["wall_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "ops_per_s": main["attempted"] / main["wall_s"],
        "op_s.p50": lat["p50"],
        "op_s.tail": lat["tail"],
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_untraced(args, main: dict, metrics: dict, units: dict, setup_samples: list[float]):
    lat = main["latency"]
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "op_s.p50": f"median of {lat['n']} ops",
        "op_s.tail": f"p{lat['tail_percentile']:.2f}: {lat['beyond']} of {lat['n']} ops beyond it",
    }
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]:<4} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<14} {main['fail_ratio']:>14.6g} {'':<4} {main['failed']} of {main['attempted']} ops failed")
    if args.workload == "critical_values":
        for phase, seconds in main["phases"].items():
            print(f"  {phase + '_s':<14} {seconds:>14.6g} s    sum over the pairs")


def print_traced(main: dict, base: dict, units: dict):
    tr = main["trace"]
    wall = tr["wall_ns"]
    print(f"  self time by layer (traced wall {wall / 1e9:.4f} s):")
    for layer, ns in tr["self_ns"].items():
        print(f"    {layer:<12} {ns / 1e9:>10.4f} s {100 * ns / wall:>7.2f} %")
    outside = tr["outside_ns"]
    print(f"    {'(no span)':<12} {outside / 1e9:>10.4f} s {100 * outside / wall:>7.2f} %")
    total = sum(tr["self_ns"].values()) + outside
    print(f"    {'sum':<12} {total / 1e9:>10.4f} s   (traced wall minus sum: {(wall - total) / 1e9:.3g} s)")
    print(
        f"  tracing overhead: {main['wall_s'] - base['wall_s']:.4f} s "
        f"(traced {main['wall_s']:.4f} s, untraced {base['wall_s']:.4f} s)"
    )
    for phase, share in tr["solve_share_by_phase"].items():
        print(f"  share of {phase} op time inside series solves: {100 * share:.1f} %")
    for name, value in tr["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "g2flow" / "__init__.py").is_file():
        print(f"g2flow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"g2flow benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace == 0:
            setup_samples = [
                run_child(args, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
            ]
            main_run = run_child(args, "run", 0, deadline)
            setup_samples.append(main_run["setup_s"])
            metrics = end_to_end(main_run, setup_samples)
            print_untraced(args, main_run, metrics, units, setup_samples)
        else:
            base = run_child(args, "run", 0, deadline)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            main_run = run_child(
                args, "run", 1, deadline,
                ("--untraced-wall-ns", str(round(base["wall_s"] * 1e9)), "--spans", str(spans_path)),
            )
            metrics = main_run["trace"]["metrics"]
            print_traced(main_run, base, units)
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    except BenchError as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 1

    for label, msg in main_run["errors"].items():
        print(f"  FAILED {label}: {msg}")
    result = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "metadata": metadata(main_run), "run": main_run}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1))
    print(f"  metadata: {json.dumps(full['metadata'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
