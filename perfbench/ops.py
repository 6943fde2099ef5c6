"""Running a workload's operations: timing, failure counting, latency statistics."""
from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


@dataclass
class Op:
    """One timed call into g2flow; its result is kept for the output check."""

    label: str
    run: Callable[[], object]
    phase: str = ""


@dataclass
class OpLog:
    """Latencies, kept results and failures of one pass over a list of ops."""

    ops: list[Op]
    seconds: list[float] = field(default_factory=list)
    intervals: list[tuple[int, int]] = field(default_factory=list)
    results: list[object] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    wall_ns: int = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan

    def record_checks(self, problems: dict[int, str]):
        """Merge output-check failures (op index -> message); raised ops stay as they are."""
        for i, msg in problems.items():
            self.errors.setdefault(i, msg)


def run_ops(ops: list[Op], clock=time.perf_counter_ns) -> OpLog:
    """Run `ops` back to back.  An op that raises counts as failed; the rest go on."""
    log = OpLog(ops=list(ops))
    t_begin = clock()
    for i, op in enumerate(log.ops):
        t0 = clock()
        try:
            out = op.run()
        except Exception:  # a failed op is a result of the benchmark, not its end
            t1 = clock()
            out = None
            log.errors[i] = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            t1 = clock()
        log.seconds.append((t1 - t0) / 1e9)
        log.intervals.append((t0, t1))
        log.results.append(out)
    log.wall_ns = clock() - t_begin
    return log


def tail_rank(n: int) -> int:
    """Number of samples above the reported tail: ten, but never below the median."""
    return min(TAIL_BEYOND, (n - 1) // 2)


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    With fewer than 21 samples that percentile would fall below the median;
    the tail is then the upper middle sample, and `beyond` says so.
    """
    n = len(seconds)
    ordered = sorted(seconds)
    beyond = tail_rank(n)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "beyond": beyond,
    }
