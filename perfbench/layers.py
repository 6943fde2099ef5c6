"""The traced layers of g2flow and the per-layer metrics of a traced run.

`params`, `config`, `errors`, `cli` and `verification` do no work of their
own on the workloads, so they are not traced.
"""
from __future__ import annotations

import importlib
from collections import Counter

from spans import Tracer, layer_self_times

# layer -> (wrapping mode, classes left unwrapped)
LAYERS = {
    # eval_F runs inside every right-hand side and stop margin: counted only
    "invariants": ("count", ()),
    # ExponentLattice.exponent is called millions of times per run
    "series": ("leaf", ("ExponentLattice",)),
    "seeds": ("span", ()),
    "flow": ("span", ()),
    "classify": ("span", ()),
    "shooter": ("span", ()),
}
SEED_BUILDERS = ("seed_delta_su2", "seed_su2_factor", "seed_kmn", "seed_cs_end", "seed_ac_end")

class LayerProbe:
    """A tracer on g2flow's layers plus the counts read off their results."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self._solvers: list = []
        self._by_name: dict[str, list[int]] = {}

    def install(self):
        tr = self.tracer
        for layer, (mode, skip) in LAYERS.items():
            tr.instrument(importlib.import_module(f"g2flow.{layer}"), layer, mode, skip)
        tr.hooks["flow.integrate"] = self._on_trajectory
        tr.hooks["classify.classify_trajectory"] = self._on_verdict
        tr.hooks["shooter.find_beta_ac"] = self._on_shoot
        tr.hooks["shooter.find_c_ac"] = self._on_shoot
        flow = importlib.import_module("g2flow.flow")
        tr.patch(flow, "DOP853", self._counting_solver(flow.DOP853))

    def _counting_solver(self, base):
        """A DOP853 that keeps its evaluation counts for the probe."""
        probe = self

        class CountingDOP853(base):
            def __init__(self, fun, t0, y0, t_bound, **kwargs):
                super().__init__(fun, t0, y0, t_bound, **kwargs)
                self.dense_calls = 0
                self.init_evals = 2 if kwargs.get("first_step") is None else 1
                if probe.tracer.active:
                    probe._solvers.append(self)

            def dense_output(self):
                self.dense_calls += 1
                return super().dense_output()

        return CountingDOP853

    def _harvest_solvers(self):
        """Right-hand-side evaluations and step attempts of the finished solvers.

        Each DOP853 step attempt evaluates the right-hand side n_stages times
        and each dense output len(C_EXTRA) more; setting up takes one or two.
        """
        for s in self._solvers:
            body = s.nfev - s.init_evals - s.dense_calls * len(s.C_EXTRA)
            attempts, rest = divmod(body, s.n_stages)
            if rest:
                raise RuntimeError(f"DOP853 evaluation count {s.nfev} does not split into step attempts")
            self.counts["rhs_evals"] += s.nfev
            self.counts["step_attempts"] += attempts
        self._solvers.clear()

    def _on_trajectory(self, traj):
        self._harvest_solvers()
        self.counts["steps_accepted"] += len(traj.segments)
        self.counts["events_located"] += sum(1 for ev in traj.events if ev[0] != "budget_exhausted")

    def _on_verdict(self, verdict):
        self.counts["verdicts"] += 1
        self.counts["legs"] += verdict.diagnostics.get("legs", 0)

    def _on_shoot(self, result):
        self.counts["shots"] += len(result.history)
        self.counts["bisect_iters"] += result.iterations

    def start(self):
        self.tracer.active = True

    def stop(self):
        self.tracer.active = False
        self._harvest_solvers()
        self._by_name = self.tracer.spans_by_name()

    # -- metrics --

    def _durations(self, name: str) -> list[tuple[int, int, int]]:
        tr = self.tracer
        return [(i, tr.start[i], tr.end[i]) for i in self._by_name.get(name, ())]

    def _inclusive_ns(self, name: str) -> int:
        return sum(e - s for _, s, e in self._durations(name))

    def _ac_cache_hits(self) -> tuple[int, int]:
        """(hits, calls) of seed_ac_end: a call with no series solve beneath it is a hit."""
        tr = self.tracer
        ac_spans = {i for i, _, _ in self._durations("seeds.seed_ac_end")}
        missed = set()
        for i, _, _ in self._durations("seeds.solve_singular_ivp"):
            p = tr.parent[i]
            while p >= 0 and p not in ac_spans:
                p = tr.parent[p]
            if p >= 0:
                missed.add(p)
        return len(ac_spans) - len(missed), len(ac_spans)

    def self_time_table(self, wall_ns: int) -> tuple[dict[str, int], int]:
        per_layer, outside = layer_self_times(self.tracer, wall_ns)
        return {layer: per_layer.get(layer, 0) for layer in LAYERS}, outside

    def covered_share(self, name: str, intervals) -> float:
        """Share of the op intervals spent inside spans called `name`."""
        total = sum(e - s for s, e in intervals)
        inside = 0
        for _, s, e in self._durations(name):
            inside += sum(max(0, min(e, b) - max(s, a)) for a, b in intervals)
        return inside / total if total else 0.0

    def metrics(self, wall_ns: int, untraced_wall_ns: int) -> dict[str, float]:
        tr, c = self.tracer, self.counts
        calls = tr.call_count
        per_layer, outside = self.self_time_table(wall_ns)

        def pct(ns: int) -> float:
            return 100.0 * ns / wall_ns

        seed_calls = sum(calls(f"seeds.{b}") for b in SEED_BUILDERS)
        seed_errors = sum(
            tr.error[i] for b in SEED_BUILDERS for i, _, _ in self._durations(f"seeds.{b}")
        )
        hits, ac_calls = self._ac_cache_hits()
        integrate_ns = self._inclusive_ns("flow.integrate")
        shoot_ns = self._inclusive_ns("shooter.find_beta_ac") + self._inclusive_ns("shooter.find_c_ac")
        values = {
            "seeds.solve_calls": calls("seeds.solve_singular_ivp"),
            "seeds.solve_pct": pct(self._inclusive_ns("seeds.solve_singular_ivp")),
            "seeds.seed_calls": seed_calls,
            "seeds.solves_per_seed": calls("seeds.solve_singular_ivp") / seed_calls if seed_calls else 0.0,
            "seeds.seed_errors": seed_errors,
            "seeds.ac_cache_hit_ratio": hits / ac_calls if ac_calls else 0.0,
            "series.mul_calls": calls("series.Series.__mul__") + calls("series.Series.__rmul__"),
            "series.inv_calls": calls("series.Series.reciprocal") + calls("series.Series.sqrt"),
            "flow.integrate_calls": calls("flow.integrate"),
            "flow.integrate_s": integrate_ns / 1e9,
            "flow.steps_accepted": c["steps_accepted"],
            "flow.step_attempts": c["step_attempts"],
            "flow.accept_ratio": c["steps_accepted"] / c["step_attempts"] if c["step_attempts"] else 0.0,
            "flow.rhs_evals": c["rhs_evals"],
            "flow.events_located": c["events_located"],
            "flow.us_per_step": integrate_ns / 1e3 / c["steps_accepted"] if c["steps_accepted"] else 0.0,
            "invariants.eval_F_calls": calls("invariants.eval_F"),
            "classify.verdicts": c["verdicts"],
            "classify.legs": c["legs"],
            "classify.membership_calls": calls("classify.chamber_membership"),
            "shooter.shots": c["shots"],
            "shooter.bisect_iters": c["bisect_iters"],
            "shooter.shots_per_s": c["shots"] / (shoot_ns / 1e9) if shoot_ns else 0.0,
            "shooter.backward_pct": pct(self._inclusive_ns("shooter.extend_ac_backward")),
            "shooter.closure_pct": pct(self._inclusive_ns("shooter.closure_extract_beta")),
            "trace.wall_s": wall_ns / 1e9,
            "trace.overhead_pct": 100.0 * (wall_ns - untraced_wall_ns) / untraced_wall_ns,
            "trace.outside_pct": pct(outside),
            "trace.spans": len(tr),
        }
        for layer, ns in per_layer.items():
            if layer != "invariants":  # counted only: no spans, no self time
                values[f"{layer}.self_pct"] = pct(ns)
        return values
