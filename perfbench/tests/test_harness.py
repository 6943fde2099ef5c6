"""Tests of the benchmark's own arithmetic: span self times, the tail rule, failure counting.

    python3 -m pytest perfbench/tests
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ops import Op, latency_summary, run_ops, tail_rank  # noqa: E402
from spans import Tracer, covered_ns, layer_self_times, self_times  # noqa: E402


# -- span self-time arithmetic ----------------------------------------------------


def test_self_times_nested_spans():
    # root 0..100 with children 10..40 and 50..90; the second has a child 60..70
    starts = [0, 10, 50, 60]
    ends = [100, 40, 90, 70]
    parents = [-1, 0, 0, 2]
    own, rooted = self_times(starts, ends, parents)
    assert own == [100 - 30 - 40, 30, 40 - 10, 10]
    assert rooted == 100
    assert sum(own) == rooted


def test_self_times_overlapping_children_count_once():
    own, _ = self_times([0, 10, 20], [100, 50, 60], [-1, 0, 0])
    assert own[0] == 100 - 50  # children cover 10..60


def test_covered_ns_union():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert covered_ns([(20, 30), (0, 40)]) == 40


def test_tracer_layer_self_times_sum_to_wall():
    fake = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = fake
    try:
        fake.__name__ = "fakepkg"

        def inner(x):
            return x + 1

        def outer(x):
            return fake.inner(x) * 2

        for fn in (inner, outer):
            fn.__module__ = "fakepkg"
            setattr(fake, fn.__name__, fn)
        tr = Tracer()
        tr.instrument(fake, "fake", "span")
        tr.active = True
        assert fake.outer(1) == 4
        tr.active = False
        assert [tr.names[n] for n in tr.name] == ["fake.outer", "fake.inner"]
        assert tr.parent[1] == 0 and tr.parent[0] == -1
        wall = tr.end[0] - tr.start[0] + 1000
        per_layer, outside = layer_self_times(tr, wall)
        assert outside == 1000
        assert per_layer["fake"] + outside == wall
        tr.uninstall()
        assert fake.outer is outer
    finally:
        del sys.modules["fakepkg"]


def test_leaf_mode_counts_nested_calls_without_spans():
    fake = types.ModuleType("leafpkg")
    sys.modules["leafpkg"] = fake
    try:

        class Num:
            def __init__(self, v):
                self.v = v

            def __add__(self, other):
                return Num(self.v + other.v)

            def twice(self):
                return self + self

        Num.__module__ = "leafpkg"
        fake.Num = Num
        tr = Tracer()
        tr.instrument(fake, "leaf", "leaf")
        tr.active = True
        assert Num(2).twice().v == 4
        tr.active = False
        assert [tr.names[n] for n in tr.name] == ["leaf.Num.twice"]
        assert tr.call_count("leaf.Num.__add__") == 1
        tr.uninstall()
    finally:
        del sys.modules["leafpkg"]


# -- the op_s.tail percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "n, beyond, percentile",
    [(2000, 10, 99.5), (1000, 10, 99.0), (21, 10, 100 * 11 / 21), (20, 9, 55.0), (9, 4, 100 * 5 / 9), (1, 0, 100.0)],
)
def test_tail_rule(n, beyond, percentile):
    samples = [float(i) for i in range(n)]
    summary = latency_summary(samples[::-1])
    assert tail_rank(n) == beyond
    assert summary["beyond"] == beyond
    assert summary["tail"] == n - 1 - beyond
    assert sum(1 for s in samples if s > summary["tail"]) == beyond
    assert summary["tail_percentile"] == pytest.approx(percentile)
    assert summary["tail"] >= summary["p50"]


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [1.0] * 990 + [float(i) for i in range(100, 110)]
    summary = latency_summary(samples)
    assert summary["tail"] == 1.0  # the ten largest lie beyond it
    assert summary["tail_percentile"] == pytest.approx(99.0)


# -- fail_ratio counting -----------------------------------------------------------


def _boom():
    raise ValueError("no")


def test_fail_ratio_counts_raised_and_failed_checks():
    ticks = iter(range(0, 10_000, 10))
    ops = [Op("a", lambda: 1), Op("b", _boom), Op("c", lambda: 3), Op("d", lambda: 4)]
    log = run_ops(ops, clock=lambda: next(ticks))
    assert log.attempted == 4
    assert log.failed == 1 and "ValueError" in log.errors[1]
    assert log.results == [1, None, 3, 4]
    assert len(log.seconds) == 4  # a raising op is timed too
    # output check: c is wrong, and b's check failure does not count twice
    log.record_checks({2: "wrong value", 1: "no result"})
    assert log.failed == 2
    assert log.errors[1].startswith("raised")
    assert log.fail_ratio == pytest.approx(0.5)


def test_fail_ratio_zero_when_all_pass():
    log = run_ops([Op("a", lambda: 1), Op("b", lambda: 2)])
    log.record_checks({})
    assert log.failed == 0 and log.fail_ratio == 0.0
