"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  The heavy criteria share a module-scoped context so the
ALC verdicts of the trichotomy and shooting checks feed the asymptotics check.
"""
import dataclasses

import numpy as np
import pytest

from g2flow import verification as V
from g2flow.classify import ELL_GAP_TOL, Verdict


@pytest.fixture(scope="module")
def ctx():
    return V.VerificationContext(seed=V.RNG_SEED, quick=False)


def _run(ctx, func):
    res = ctx.run(func)
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] {res.name} ({res.runtime:.2f}s): {res.measured} | expected {res.expected}")
    assert res.passed, f"{res.name}: {res.measured}"


def test_criterion_01_exponents(ctx):
    _run(ctx, V.check_exponents)


@pytest.mark.parametrize("end", ["cs", "ac"])
def test_criterion_01_reads_the_linearizations(monkeypatch, end):
    """A 1e-6 shift of either linearization's spectrum fails criterion 1."""
    if end == "cs":
        real = V.cs_linearization_eigen

        def shifted():
            L, vals, vecs = real()
            return L + 1e-6 * np.eye(4), vals, vecs

        monkeypatch.setattr(V, "cs_linearization_eigen", shifted)
    else:
        real = V.sd._ac_series_unit

        def shifted(p, q, order):
            sol = real(p, q, order)
            return dataclasses.replace(sol, linearization=sol.linearization + 1e-6 * np.eye(4))

        monkeypatch.setattr(V.sd, "_ac_series_unit", shifted)
    res = V.VerificationContext(quick=True).run(V.check_exponents)
    assert not res.passed, res.measured


def test_criterion_02_eigenstructure(ctx):
    _run(ctx, V.check_eigenstructure)


def test_criterion_03_hamiltonian_conservation(ctx):
    _run(ctx, V.check_hamiltonian_conservation)


def test_criterion_04_cone_exactness(ctx):
    _run(ctx, V.check_cone_exactness)


def test_criterion_05_bryant_salamon_curve(ctx):
    _run(ctx, V.check_bryant_salamon_curve)


def test_criterion_06_trichotomy(ctx):
    _run(ctx, V.check_trichotomy)


def test_criterion_07_chamber_persistence(ctx):
    _run(ctx, V.check_chamber_persistence)


def test_criterion_08_critical_cross_validation(ctx):
    _run(ctx, V.check_critical_cross_validation)


def test_criterion_09_figure1(ctx):
    _run(ctx, V.check_figure1)


def test_criterion_09_needs_backward_closure(monkeypatch):
    """The beta_ac curve is tagged AC only if the backward closure lands on it."""
    from g2flow import shooter

    real = shooter.closure_extract_beta

    def off_by_one_percent(traj, m, n):
        beta, resid = real(traj, m, n)
        return 1.01 * beta, resid

    monkeypatch.setattr(shooter, "closure_extract_beta", off_by_one_percent)
    res = V.VerificationContext(quick=True).run(V.check_figure1)
    assert not res.passed and "0 AC" in res.measured


def test_criterion_10_alc_asymptotics(ctx):
    _run(ctx, V.check_alc_asymptotics)


def test_criterion_10_requires_growth_exponent():
    """An ALC verdict without a fitted b-growth exponent fails criterion 10."""
    ctx = V.VerificationContext(quick=True)
    ctx.alc_verdicts.append(("no-fit", Verdict(kind="ALC", ell=1.0, ell_alt=1.0)))
    res = ctx.run(V.check_alc_asymptotics)
    assert not res.passed and "no-fit" in res.measured


@pytest.mark.parametrize(
    "ell_alt, exponent, label",
    [
        (1.0 + 1.01 * ELL_GAP_TOL, 2.0, "ell estimators disagree"),
        (1.0 - 1.01 * ELL_GAP_TOL, 2.0, "ell estimators disagree"),
        (1.0, 2.0 + 1.01 * V.EXPONENT_WINDOW, "exponent"),
        (1.0, 2.0 - 1.01 * V.EXPONENT_WINDOW, "exponent"),
    ],
)
def test_criterion_10_bounds_can_fail(ell_alt, exponent, label):
    """Each clause of criterion 10 fails just past its bound and passes just inside it."""

    def check(ell_alt, exponent):
        ctx = V.VerificationContext(quick=True)
        verdict = Verdict(kind="ALC", ell=1.0, ell_alt=ell_alt, diagnostics={"b_fit_exponent": exponent})
        ctx.alc_verdicts.append(("pushed", verdict))
        return ctx.run(V.check_alc_asymptotics)

    res = check(ell_alt, exponent)
    assert not res.passed and label in res.measured
    inside = check(1.0 + (ell_alt - 1.0) * 0.99 / 1.01, 2.0 + (exponent - 2.0) * 0.99 / 1.01)
    assert inside.passed, inside.measured


def test_criterion_11_series_residual_orders(ctx):
    _run(ctx, V.check_series_residual_orders)


def test_criterion_12_scaling_equivariance(ctx):
    _run(ctx, V.check_scaling_equivariance)


def test_criterion_12_needs_a_homogeneous_flow(monkeypatch):
    """A constant 1e-4 added to F breaks the flow's scaling symmetry and fails criterion 12."""
    from g2flow import flow

    real = flow.eval_F

    def shifted(a, b, params):
        f, fa, fb = real(a, b, params)
        return f + 1e-4, fa, fb

    monkeypatch.setattr(flow, "eval_F", shifted)
    res = V.VerificationContext(quick=True).run(V.check_scaling_equivariance)
    assert not res.passed, res.measured
