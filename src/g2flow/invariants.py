"""Closed-form quantities of the half-flat flow.

Everything here is an exact pointwise evaluation: the stability quartic and
its U(1) reduction F, the Hamiltonian, mean curvature, the SU(2)^3-symmetric
solution curve, and the margins whose signs define the chambers and the
gamma2 stopping curve.  No integration happens in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams

# Absolute cushion used when deciding whether a radicand is "negative" as
# opposed to a rounding artefact of zero.
BOUNDARY_CUSHION = 1e-14


@dataclass(frozen=True)
class U1State:
    """U(1)-symmetric view: a = a_1 = a_2, b = a_3, plus their derivatives."""

    a: float
    b: float
    da: float
    db: float

    def on_principal_locus(self, params: ModelParams) -> bool:
        return self.da > 0 and self.db > 0 and eval_F(self.a, self.b, params)[0] > 0


# -- stability quartic -------------------------------------------------------


def _lambda_grouped(y, p, q):
    a1, a2, a3 = y
    quartic = (a1 - a2 - a3) * (a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)
    return quartic + 4 * (p - q) * a1 * a2 * a3 + 2 * p * q * (a1 * a1 + a2 * a2 + a3 * a3) + (p * q) ** 2


def _lambda_factored(y, p):
    # valid only when q = -p, where the quartic splits as V * V1 * V2 * V3
    a1, a2, a3 = y
    v = a1 + a2 + a3 + p
    v1 = a1 - a2 - a3 + p
    v2 = a2 - a3 - a1 + p
    v3 = a3 - a1 - a2 + p
    return v * v1 * v2 * v3


def eval_lambda(y, params: ModelParams) -> float:
    """Stability quartic: the 3-form is stable iff this is negative."""
    p, q = params.p, params.q
    if q == -p:
        return float(_lambda_factored(np.asarray(y, dtype=float), p))
    return float(_lambda_grouped(np.asarray(y, dtype=float), p, q))


def lambda_magnitude(y, params: ModelParams) -> float:
    """Sum of absolute monomial magnitudes; the natural error scale for eval_lambda."""
    a1, a2, a3 = np.abs(np.asarray(y, dtype=float))
    p, q = abs(params.p), abs(params.q)
    return float(
        a1**4 + a2**4 + a3**4 + 2 * (a1 * a2) ** 2 + 2 * (a2 * a3) ** 2 + 2 * (a3 * a1) ** 2
        + 4 * (p + q) * a1 * a2 * a3 + 2 * p * q * (a1**2 + a2**2 + a3**2) + (p * q) ** 2
    )


def eval_F(a: float, b: float, params: ModelParams) -> tuple[float, float, float]:
    """F(a,b) = -Lambda(a,a,b) together with its exact partial derivatives."""
    p, q = params.p, params.q
    # products, not **: Python floats raise OverflowError in ** where a
    # product gives inf
    if q == -p:
        # the factored form, as in eval_lambda: F = u^2 v w.  The expanded form
        # loses digits to the cancellation of 4 a^2 u^2 against (b^2 - p^2)^2
        u = b - p
        v = 2 * a - b - p
        w = 2 * a + b + p
        uu = u * u
        return float(uu * v * w), float(2 * uu * (v + w)), float(2 * u * v * w + uu * (v - w))
    c = b * b + p * q
    f = 4 * a * a * (b - p) * (b + q) - c * c
    fa = 8 * a * (b - p) * (b + q)
    fb = 4 * a * a * (2 * b + q - p) - 4 * b * c
    return float(f), float(fa), float(fb)


# -- chambers and stopping curves --------------------------------------------
# Each region is the set where its margin is > 0; stop events locate the
# margin's zero.  For floats, x - y > c (|x| + |y|) exactly when
# x - y - c (|x| + |y|) > 0, so a margin and its inequalities agree.


def _excess(x, y, cushion):
    """How far x exceeds y beyond a relative cushion; positive iff x > y with margin."""
    return x - y - cushion * (abs(x) + abs(y))


def alc_margin(a, b, da, db, b_floor, cushion, strict):
    """Positive inside the ALC chamber: da > db, a > b, b > b_floor (and da b > a db if strict), cushioned."""
    m = min(_excess(da, db, cushion), _excess(a, b, cushion), _excess(b, b_floor, cushion))
    if strict:
        m = min(m, alc_strict_margin(a, b, da, db, cushion))
    return m


def alc_strict_margin(a, b, da, db, cushion):
    """The clause da b > a db, cushioned, that the strict ALC chamber adds to the ALC chamber."""
    return _excess(da * b, a * db, cushion)


def death_margin(a, b, da, db, b_floor, cushion):
    """Positive inside the death quadrant: a db > da b, b > a and b > b_floor, cushioned."""
    return min(_excess(a * db, da * b, cushion), _excess(b, a, cushion), _excess(b, b_floor, cushion))


def in_ac_backward(a, b, da, db, p, q):
    """The backward-AC region b > a > 0, da > db > 0, b > max(p, -q), on floats or
    elementwise on arrays; uncushioned, as its defining mode is tiny far out on an AC end."""
    return (b > a) & (a > 0) & (da > db) & (db > 0) & (b > max(p, -q))


def gamma2_margin(a, b, k, m2r03, n2r03):
    """k a - (b^2 - m^2 n^2 r0^6) / sqrt((b + m^2 r0^3)(b + n^2 r0^3)); zero on gamma2."""
    return k * a - (b * b - m2r03 * n2r03) / math.sqrt((b + m2r03) * (b + n2r03))


# -- Hamiltonian and curvature ----------------------------------------------


def hamiltonian(state: U1State, params: ModelParams) -> float:
    """H = sqrt(-Lambda(a, a, b)) - 2 sqrt(x1 x1 x2), x1 = da db and x2 = da^2;
    identically zero along the flow."""
    y = (state.a, state.a, state.b)
    lam = eval_lambda(y, params)
    cushion = BOUNDARY_CUSHION * (1 + lambda_magnitude(y, params))
    if lam > cushion:
        raise DomainError(f"Lambda(y) = {lam} > 0: state left the stable-form locus")
    x1 = state.da * state.db
    xprod = x1 * x1 * (state.da * state.da)
    if xprod < -cushion:
        raise DomainError(f"x1 x2 x3 = {xprod} < 0: negative radicand")
    return math.sqrt(max(-lam, 0.0)) - 2 * math.sqrt(max(xprod, 0.0))


def mean_curvature(state: U1State, params: ModelParams) -> float:
    """Mean curvature of the principal orbit through the state."""
    if not state.on_principal_locus(params):
        raise DomainError("U1 state off the principal-orbit locus")
    f, fa, fb = eval_F(state.a, state.b, params)
    return (state.da * fa + state.db * fb) / (2 * f)


# -- the SU(2)^3 curve ----------------------------------------------------------


def su2cubed_curve_residual(x: float, y: float, params: ModelParams) -> float:
    """Zero exactly on the SU(2)^3-symmetric solution curve 4x^3 = rhs(y)."""
    p, q = params.p, params.q
    rhs = 3 * y**4 - 4 * (p - q) * y**3 - 6 * p * q * y * y - (p * q) ** 2
    return 4 * x**3 - rhs
