"""One measured process of the g2flow benchmark; started by run.py, not by hand.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --mode setup|run --spawned-ns T [--untraced-wall-ns W --spans PATH]

Imports g2flow, draws the workload's inputs and, with --trace 1, installs
the layer probe; that is the set-up, timed from T (the parent's
time.monotonic_ns() just before it started this process).  In `setup` mode
the process stops there.  In `run` mode it runs the ops, checks their
outputs and prints one JSON object as its last line of output.  A traced run
also reports per-layer metrics, its tracing overhead against W (the wall
time of an untraced run of the same inputs) and writes its spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--untraced-wall-ns", type=int, help="wall time of the untraced run (--trace 1)")
    ap.add_argument("--spans", help="file to write the spans to (--trace 1)")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import g2flow
    from ops import latency_summary, run_ops
    from workloads import WORKLOADS

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(g2flow.__file__).resolve().parents:
        print(f"g2flow imported from {g2flow.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops, check = WORKLOADS[args.workload](args.seed, args.seconds)
    probe = None
    if args.trace:
        from layers import LayerProbe

        probe = LayerProbe()
        probe.install()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    out = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if probe is not None:
        probe.start()
    log = run_ops(ops)
    if probe is not None:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.record_checks(check(log))
    phase_of = [op.phase or "all" for op in log.ops]

    out.update(
        wall_s=log.wall_ns / 1e9,
        peak_rss_mb=peak_rss_mb,
        attempted=log.attempted,
        failed=log.failed,
        fail_ratio=log.fail_ratio,
        errors={log.ops[i].label: msg for i, msg in sorted(log.errors.items())[:20]},
        latency=latency_summary(log.seconds),
        phases={p: sum(s for q, s in zip(phase_of, log.seconds) if q == p) for p in dict.fromkeys(phase_of)},
    )
    if probe is not None:
        table, outside = probe.self_time_table(log.wall_ns)
        out["trace"] = {
            "wall_ns": log.wall_ns,
            "self_ns": table,
            "outside_ns": outside,
            "metrics": probe.metrics(log.wall_ns, args.untraced_wall_ns),
            "solve_share_by_phase": {
                phase: probe.covered_share(
                    "seeds.solve_singular_ivp",
                    [iv for q, iv in zip(phase_of, log.intervals) if q == phase],
                )
                for phase in out["phases"]
            },
        }
        if args.spans:
            probe.tracer.dump(args.spans, log.intervals[0][0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
