"""Closed-form quantities of the half-flat flow.

Everything here is an exact pointwise evaluation: the stability quartic and
its U(1) reduction F, the Hamiltonian, mean curvature, the SU(2)^3-symmetric
solution curve, and the margins whose signs define the chambers and the
gamma2 stopping curve.  No integration happens in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .params import ModelParams

# Absolute cushion used when deciding whether a radicand is "negative" as
# opposed to a rounding artefact of zero.
BOUNDARY_CUSHION = 1e-14
# relative mismatch of (a1, a2) and of (x1, x2) that `u1_from_full` accepts
U1_RTOL = 1e-8


class Param(Enum):
    ARC_LENGTH_T = "arc_length_t"
    A_EQUALS_S = "a_equals_s"


@dataclass(frozen=True)
class FullState:
    """Flow variables of the unreduced system: y_i = a_i, x_i = da_j * da_k."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))

    @property
    def da(self) -> np.ndarray:
        """Recover (da_1, da_2, da_3) from x via da_i = sqrt(x_j x_k / x_i)."""
        x1, x2, x3 = self.x
        prod = x1 * x2 * x3
        if prod <= 0 or np.any(self.x <= 0):
            raise DomainError(f"x = {self.x} is not on the principal-orbit locus")
        root = math.sqrt(prod)
        return np.array([root / x1, root / x2, root / x3])

    def on_principal_locus(self, params: ModelParams) -> bool:
        return bool(np.all(self.x > 0)) and eval_lambda(self.y, params) < 0


@dataclass(frozen=True)
class U1State:
    """U(1)-symmetric view: a = a_1 = a_2, b = a_3, plus their derivatives."""

    a: float
    b: float
    da: float
    db: float
    param: Param = Param.ARC_LENGTH_T

    def to_full(self) -> FullState:
        return FullState(
            y=np.array([self.a, self.a, self.b]),
            x=np.array([self.da * self.db, self.da * self.db, self.da * self.da]),
        )

    def on_principal_locus(self, params: ModelParams) -> bool:
        return self.da > 0 and self.db > 0 and eval_F(self.a, self.b, params)[0] > 0


def u1_from_full(state: FullState) -> U1State:
    """Project a U(1)-symmetric full state down to (a, b, da, db)."""
    y, x = state.y, state.x
    scale_y = max(abs(y[0]), abs(y[1]), 1e-300)
    scale_x = max(abs(x[0]), abs(x[1]), 1e-300)
    if abs(y[0] - y[1]) > U1_RTOL * scale_y or abs(x[0] - x[1]) > U1_RTOL * scale_x:
        raise DomainError("state is not U(1)-symmetric (need x1 = x2, y1 = y2)")
    da = state.da
    return U1State(a=float(y[0]), b=float(y[2]), da=float(da[0]), db=float(da[2]))


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
    c = b * b + p * q
    # c * c, not c ** 2: Python floats raise OverflowError in ** where a
    # product gives inf
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


def hamiltonian(state: FullState | U1State, params: ModelParams) -> float:
    """H = sqrt(-Lambda(y)) - 2 sqrt(x1 x2 x3); identically zero along the flow."""
    if isinstance(state, U1State):
        state = state.to_full()
    lam = eval_lambda(state.y, params)
    cushion = BOUNDARY_CUSHION * (1 + lambda_magnitude(state.y, params))
    if lam > cushion:
        raise DomainError(f"Lambda(y) = {lam} > 0: state left the stable-form locus")
    xprod = float(np.prod(state.x))
    if xprod < -cushion:
        raise DomainError(f"x1 x2 x3 = {xprod} < 0: negative radicand")
    return math.sqrt(max(-lam, 0.0)) - 2 * math.sqrt(max(xprod, 0.0))


def _grad_terms(y, p, q):
    """G_i = y_i(-y_i^2 + y_j^2 + y_k^2 - pq) - (p - q) y_j y_k  (= -dLambda/dy_i / 4)."""
    out = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[i] = y[i] * (-y[i] ** 2 + y[j] ** 2 + y[k] ** 2 - p * q) - (p - q) * y[j] * y[k]
    return out


def mean_curvature(state: FullState | U1State, params: ModelParams) -> float:
    """Mean curvature of the principal orbit through the state."""
    if isinstance(state, U1State):
        if not state.on_principal_locus(params):
            raise DomainError("U1 state off the principal-orbit locus")
        f, fa, fb = eval_F(state.a, state.b, params)
        return (state.da * fa + state.db * fb) / (2 * f)
    if not state.on_principal_locus(params):
        raise DomainError("full state off the principal-orbit locus")
    da = state.da
    g = _grad_terms(state.y, params.p, params.q)
    return float(np.dot(da, g) / (2 * (da[0] * da[1] * da[2]) ** 2))


# -- the SU(2)^3 curve ----------------------------------------------------------


def su2cubed_curve_residual(x: float, y: float, params: ModelParams) -> float:
    """Zero exactly on the SU(2)^3-symmetric solution curve 4x^3 = rhs(y)."""
    p, q = params.p, params.q
    rhs = 3 * y**4 - 4 * (p - q) * y**3 - 6 * p * q * y * y - (p * q) ** 2
    return 4 * x**3 - rhs
