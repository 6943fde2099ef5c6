"""Admissible initial states just off the singular loci.

A reusable generalized-power-series engine (`solve_singular_ivp`) solves
singular initial value problems t*dy/dt = Phi(y, t) whose solutions are
convergent series on an exponent lattice.  Each seed family supplies Phi in
blown-up variables in which the right-hand side is analytic, and solves on
the lattice its blow-up lives on:

* delta_su2   -- singular S^3 with diagonal stabiliser (the B7 setup; t^2),
* su2_factor  -- singular S^3 with factor stabiliser (the D7 setup; t^2),
* kmn         -- singular S^2 x S^3 (the C7(m,n) setup; t^2),
* cs_end      -- conically singular end at t -> 0 (t^nu0),
* ac_end      -- asymptotically conical end at t -> infinity (series in
                 s = 1/t on (s^3, s^nu_inf), with a repaired resonance at the
                 sixth-order coefficient),

plus the exact cone.  A family's Phi names its monomials and shifts by their
t-exponent (`_mono`, `_down`), so one Phi runs on any lattice that holds them.

A solve evaluates Phi once for the linearization, with one probe generator
per unknown (`_linearize`), and once per lattice index.  The CS and AC ends
are solved once at unit free coefficient c = 1 and cached
(`_cs_series_unit` per order, `_ac_series_unit` per (p, q, order)); a seed
at any real c scales the coefficient at index h by c^(h_i), h_i the index
of the free mode's generator.

This is the only module that knows the families:
`FAMILIES` maps every accepted name to its canonical family, and
`SeedSpec.build` is the one dispatch on it.  The `seed_*` constructors
return each family's native state, a `FullState` for B7, D7 and K(m, n),
whose series are solved in those coordinates.  Every seed a `SeedSpec`
describes lies on the U(1) locus a1 = a2, and `SeedSpec.build` always
returns a `U1State`, so callers never project a seed themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .errors import ConstraintError, ResonanceError, SeedError
from .invariants import FullState, U1State, hamiltonian, u1_from_full
from .params import ModelParams
from .series import ExponentLattice, Series

SQRT3 = math.sqrt(3.0)
NU0 = (math.sqrt(145.0) - 7.0) / 2.0
NUINF = (math.sqrt(145.0) + 7.0) / 2.0
CONE_COEFF = SQRT3 / 54.0

_FIXED_POINT_TOL = 1e-9
_SHIFT_TOL = 1e-8
# an exponent this close to an eigenvalue of the linearization is resonant
_RESONANCE_TOL = 1e-8
# |H| of an emitted seed, relative to 1 + its orbital volume
_SEED_H_TOL = 1e-10
# the highest retained terms of a series at its switch parameter
_TAIL_TOL = 1e-10

_AC_MIN_ORDER = 15.0

# escalation ladders: the order is raised until the tail bound at the switch
# parameter and the Hamiltonian budget of the emitted state are met; six
# nu0-harmonics keep the cs_end tail below 1e-10 at the default switch point
_SMOOTH_LADDER = (10.0, 14.0, 18.0, 24.0, 30.0)  # delta_su2, su2_factor, kmn
_CS_LADDER = (6 * NU0 + 1e-9, 9 * NU0 + 1e-9, 12 * NU0 + 1e-9)

# every accepted seed-family name (in any case) and the canonical family it
# builds; k11 is K(1, 1), kmn at its default m = n = 1
FAMILIES = {
    "cone": "cone",
    "b7": "delta_su2", "delta_su2": "delta_su2",
    "d7": "su2_factor", "su2_factor": "su2_factor",
    "c7": "kmn", "k11": "kmn", "kmn": "kmn",
    "cs": "cs_end", "cs_end": "cs_end",
    "ac": "ac_end", "ac_end": "ac_end",
}


# -- series solutions ----------------------------------------------------------


@dataclass
class SeriesSolution:
    """Truncated generalized power series solution of a singular IVP."""

    base: np.ndarray
    lattice: ExponentLattice
    coefficients: dict
    truncation_order: float
    repaired: list = field(default_factory=list)
    linearization: np.ndarray | None = None

    @property
    def first_omitted_exponent(self) -> float:
        """Smallest exponent the truncation residual can carry.

        The residual is built from products of the retained terms, so it lives
        on the sub-lattice actually excited by the solution: generator slots
        that never appear stay silent.
        """
        probe = self.truncation_order + 3 * max(self.lattice.generators)
        support = self.coefficients or {}
        active = [any(h[j] > 0 for h in support) for j in range(self.lattice.dim)]
        candidates = sorted(
            (self.lattice.exponent(h), h) for h in self.lattice.indices_upto(probe)
        )
        for e, h in candidates:
            if e <= self.truncation_order + 1e-9:
                continue
            if support and any(h[j] > 0 and not active[j] for j in range(len(h))):
                continue
            return e
        return self.truncation_order + self.lattice.min_generator()

    def evaluate(self, t: float) -> np.ndarray:
        out = np.array(self.base, dtype=float)
        for h, c in self.coefficients.items():
            out = out + np.asarray(c) * t ** self.lattice.exponent(h)
        return out

    def evaluate_tderivative(self, t: float) -> np.ndarray:
        """t * dy/dt evaluated from the series."""
        out = np.zeros_like(np.asarray(self.base, dtype=float))
        for h, c in self.coefficients.items():
            e = self.lattice.exponent(h)
            out = out + np.asarray(c) * e * t**e
        return out


@dataclass
class RepairContext:
    """Everything a resonance-repair rule needs to produce the coefficient."""

    index: tuple
    exponent: float
    matrix: np.ndarray  # (h.g) Id - dPhi, singular
    rhs: np.ndarray  # Q_h
    kernel: np.ndarray
    solution: SeriesSolutionBuilder

    def build_with(self, candidate: np.ndarray) -> list[Series]:
        return self.solution.partial_series(extra={self.index: candidate})


class SeriesSolutionBuilder:
    """The coefficients found so far, one dense vector per unknown over
    `lattice.indices_upto(order + shift_pad)`: a partial series is a prefix."""

    def __init__(self, lattice: ExponentLattice, order: float, shift_pad: float, y0: np.ndarray):
        self.lattice = lattice
        self.order = order
        self.shift_pad = shift_pad
        # the full-order series come first, so lower orders reuse their index tables
        self.values = np.array([Series.constant(lattice, order + shift_pad, y).vector for y in y0])
        self.position = {h: i for i, h in enumerate(lattice.indices_upto(order + shift_pad))}
        self.coeffs: dict[tuple, np.ndarray] = {}

    def record(self, h: tuple, coeff: np.ndarray):
        self.values[:, self.position[h]] = coeff
        if np.max(np.abs(coeff)) > 0:
            self.coeffs[h] = coeff

    def partial_series(self, upto: float | None = None, extra: dict | None = None) -> list[Series]:
        order = (upto if upto is not None else self.order) + self.shift_pad
        values = self.values[:, : len(self.lattice.indices_upto(order))].copy()
        for h, vec in (extra or {}).items():
            values[:, self.position[h]] = vec
        return [Series(self.lattice, order, row) for row in values]


def _linearize(rhs, y0: np.ndarray, lattice: ExponentLattice, shift_pad: float) -> np.ndarray:
    """d_y Phi(., 0) in one evaluation of Phi: forward mode with k tangents.

    Unknown j carries its own probe generator, t^p_j with
    p_j = shift_pad + 1/2 + j/(k pi), and column j is the coefficient of
    t^p_j in Phi.  The order, p_(k-1) + shift_pad + 0.05, lies below
    2 p_0 = 2 shift_pad + 1, so no product of two probes is kept.
    """
    k = len(y0)
    probes = tuple(shift_pad + 0.5 + j / (k * math.pi) for j in range(k))
    probe_lat = ExponentLattice(lattice.generators + probes)
    order = probes[-1] + shift_pad + 0.05
    units = [(0,) * lattice.dim + tuple(int(i == j) for i in range(k)) for j in range(k)]
    ys = [Series.constant(probe_lat, order, y) + Series.monomial(probe_lat, order, u) for y, u in zip(y0, units)]
    return np.array([[f.coeff(u) for u in units] for f in rhs(ys)])


def solve_singular_ivp(
    ode,
    y0,
    generators: tuple[float, ...],
    order: float,
    free_modes: dict[int, tuple[float, np.ndarray]] | None = None,
    repairs: dict | None = None,
    shift_pad: float = 0.0,
) -> SeriesSolution:
    """Compute the generalized power series solution of t dy/dt = Phi(y, t).

    ``ode`` maps a list of Series (the unknowns, with the base point as
    constant terms) to the list of Series for Phi; all composition happens
    through truncated-series arithmetic so Taylor coefficients of the
    right-hand side are extracted automatically.  ``free_modes`` attaches a
    free coefficient u (along the given eigenvector) to a generator slot.
    ``repairs`` maps resonant multi-indices to rules producing their
    coefficient.
    """
    y0 = np.asarray(y0, dtype=float)
    lattice = ExponentLattice(tuple(generators))
    free_modes = free_modes or {}
    repairs = repairs or {}

    A = _linearize(ode, y0, lattice, shift_pad)
    eigs = np.linalg.eigvals(A)

    builder = SeriesSolutionBuilder(lattice, order, shift_pad, y0)

    # fixed-point check: Phi(y0, 0) = 0
    F0 = ode(builder.partial_series(upto=0.0))
    c0 = np.array([f.const for f in F0])
    scale0 = 1.0 + max(f.magnitude() for f in F0)
    if np.max(np.abs(c0)) > _FIXED_POINT_TOL * scale0:
        raise ConstraintError(f"base point is not a fixed point: Phi(y0, 0) = {c0}")

    indices = [h for h in lattice.indices_upto(order) if any(h)]
    exps = [lattice.exponent(h) for h in indices]
    for i in range(1, len(exps)):
        if abs(exps[i] - exps[i - 1]) < 1e-9:
            raise ValueError(f"lattice exponents collide: {indices[i - 1]} vs {indices[i]}")

    eye = np.eye(len(y0))
    repaired: list[tuple] = []
    for h, e in zip(indices, exps):
        ys = builder.partial_series(upto=e)
        F = ode(ys)
        Q = np.array([f.coeff(h) for f in F])
        M = e * eye - A
        slot = _free_slot(h, free_modes)
        if slot is not None:
            u, v = free_modes[slot]
            v = np.asarray(v, dtype=float)
            yp, *_ = np.linalg.lstsq(M, Q, rcond=None)
            resid = np.linalg.norm(M @ yp - Q)
            if resid > 1e-9 * (1.0 + np.linalg.norm(Q)):
                raise ResonanceError(
                    f"free-mode index {h}: forcing term not solvable", index=h, obstruction=resid
                )
            coeff = u * v + yp
        elif h in repairs:
            _, _, vt = np.linalg.svd(M)
            kernel = vt[-1]
            ctx = RepairContext(index=h, exponent=e, matrix=M, rhs=Q, kernel=kernel, solution=builder)
            coeff = repairs[h](ctx)
            repaired.append(h)
        else:
            gap = float(np.min(np.abs(e - eigs)))
            if gap <= _RESONANCE_TOL:
                yp, *_ = np.linalg.lstsq(M, Q, rcond=None)
                obstruction = float(np.linalg.norm(M @ yp - Q))
                raise ResonanceError(
                    f"resonant multi-index {h} at exponent {e:.6g} (gap {gap:.2e}) "
                    "with no registered repair rule",
                    index=h,
                    obstruction=obstruction,
                )
            coeff = np.linalg.solve(M, Q)
        builder.record(h, coeff)

    return SeriesSolution(
        base=y0,
        lattice=lattice,
        coefficients=dict(builder.coeffs),
        truncation_order=order,
        repaired=repaired,
        linearization=A,
    )


def _free_slot(h: tuple, free_modes: dict) -> int | None:
    if sum(h) != 1:
        return None
    slot = h.index(1)
    return slot if slot in free_modes else None


# -- family right-hand sides ---------------------------------------------------


def _index(lat: ExponentLattice, e: float) -> tuple[int, ...]:
    """The index of t^e on the first generator of `lat`."""
    k = round(e / lat.generators[0])
    if abs(k * lat.generators[0] - e) > 1e-9:
        raise ValueError(f"t^{e} is not on the lattice {lat.generators}")
    return (k,) + (0,) * (lat.dim - 1)


def _mono(lat: ExponentLattice, order: float, e: float) -> Series:
    """t^e; raises ValueError when e is not a multiple of the first generator."""
    return Series.monomial(lat, order, _index(lat, e), 1.0)


def _down(series: Series, e: float, tol: float) -> Series:
    """Division by t^e, which must be on the series' first generator."""
    return series.shift_down(_index(series.lattice, e), tol)


def _phi_delta_su2(r0: float):
    """Blow-up x_i = r0^2 t^2/4 + t^4 X_i, y_i = r0^3 + r0 t^2/4 + t^4 Y_i."""

    def rhs(ys: list[Series]) -> list[Series]:
        lat, order = ys[0].lattice, ys[0].order
        X, Y = ys[:3], ys[3:]
        t2 = _mono(lat, order, 2)
        t4 = _mono(lat, order, 4)
        tol = _SHIFT_TOL * max(1.0, r0**5)
        V = 4 * r0**3 + 0.75 * r0 * t2 + t4 * (Y[0] + Y[1] + Y[2])
        W = [r0 / 4.0 - t2 * (Y[i] - Y[(i + 1) % 3] - Y[(i + 2) % 3]) for i in range(3)]
        R = (V * W[0] * W[1] * W[2]).sqrt()
        out_x = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            num = t2 * (W[0] * W[1] * W[2]) + V * (W[i] * W[j] + W[i] * W[k] - W[j] * W[k])
            Ai = 0.5 * num / R
            Ai = Ai - Ai.const  # constant r0^2/2 cancels the t^2 pole exactly
            out_x.append(_down(Ai, 2, tol * max(1.0, Ai.magnitude())) - 4 * X[i])
        u = [1.0 + (4.0 / r0**2) * t2 * X[i] for i in range(3)]
        RU = (u[0] * u[1] * u[2]).sqrt()
        out_y = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            Ei = u[j] * u[k] / RU
            Ei = Ei - Ei.const
            out_y.append((r0 / 2.0) * _down(Ei, 2, tol * max(1.0, Ei.magnitude())) - 4 * Y[i])
        return out_x + out_y

    return rhs


def _phi_su2_factor(r0: float):
    """Blow-up x_i = t^2 X_i, y_i = t^2 Y_i with p = -r0^3, q = 0."""

    def rhs(ys: list[Series]) -> list[Series]:
        lat, order = ys[0].lattice, ys[0].order
        X, Y = ys[:3], ys[3:]
        t2 = _mono(lat, order, 2)
        quart = (Y[0] - Y[1] - Y[2]) * (Y[0] + Y[1] + Y[2]) * (Y[0] - Y[1] + Y[2]) * (Y[0] + Y[1] - Y[2])
        GL = 4 * r0**3 * (Y[0] * Y[1] * Y[2]) - t2 * quart
        RL = GL.sqrt()
        out_x = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            Gt = r0**3 * (Y[j] * Y[k]) + t2 * Y[i] * (Y[j] * Y[j] + Y[k] * Y[k] - Y[i] * Y[i])
            out_x.append(2 * Gt / RL - 2 * X[i])
        RX = (X[0] * X[1] * X[2]).sqrt()
        out_y = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            out_y.append(X[j] * X[k] / RX - 2 * Y[i])
        return out_x + out_y

    return rhs


def _phi_kmn(m: int, n: int, r0: float, beta: float):
    """U(1) blow-up x1 = t X1, x2 = r0^4 b^2 + t^2 X3, a = t Y1, b = mn r0^3 + t^2 Y3."""
    p = -(m * m) * r0**3
    q = (n * n) * r0**3
    mn3 = m * n * r0**3

    def rhs(ys: list[Series]) -> list[Series]:
        lat, order = ys[0].lattice, ys[0].order
        X1, X3, Y1, Y3 = ys
        t2 = _mono(lat, order, 2)
        b = mn3 + t2 * Y3
        bp = b - p
        bq = b + q
        core = 2 * mn3 * Y3 + t2 * (Y3 * Y3)
        GF = 4 * (Y1 * Y1) * bp * bq - t2 * (core * core)
        RF = GF.sqrt()
        S = r0**4 * beta**2 + t2 * X3
        RS = S.sqrt()
        return [
            2 * Y1 * bp * bq / RF - X1,
            (4 * (Y1 * Y1) * (2 * b + q - p) - 4 * b * core) / (2 * RF) - 2 * X3,
            RS - Y1,
            X1 / RS - 2 * Y3,
        ]

    return rhs


def _phi_cs():
    """CS blow-up a = C t^3 (1+Y1), b = C t^3 (1+Y2), da*db, da^2 scaled by t^4/108."""

    def rhs(ys: list[Series]) -> list[Series]:
        X1, X2, Y1, Y2 = ys
        oY1, oY2 = 1 + Y1, 1 + Y2
        D = 4 * (oY1 * oY1) * (oY2 * oY2) - oY2 * oY2 * oY2 * oY2
        RD = D.sqrt()
        oX1, oX2 = 1 + X1, 1 + X2
        RX = (oX1 * oX1 * oX2).sqrt()
        return [
            -4 * X1 - 4 + 4 * SQRT3 * oY1 * (oY2 * oY2) / RD,
            -4 * X2 - 4 + 4 * SQRT3 * oY2 * (2 * (oY1 * oY1) - oY2 * oY2) / RD,
            -3 * Y1 - 3 + 3 * oX1 * oX2 / RX,
            -3 * Y2 - 3 + 3 * (oX1 * oX1) / RX,
        ]

    return rhs


def _ac_G(ys: list[Series], phat: float, qhat: float) -> Series:
    """Scaled F: F = C^4 s^-12 G with G analytic in (Y, sigma = s^3)."""
    _, _, Y1, Y2 = ys
    lat, order = ys[0].lattice, ys[0].order
    sigma = _mono(lat, order, 3)
    oY1, oY2 = 1 + Y1, 1 + Y2
    return 4 * (oY1 * oY1) * (oY2 - phat * sigma) * (oY2 + qhat * sigma) - (
        oY2 * oY2 + phat * qhat * sigma * sigma
    ) ** 2


def _phi_ac(p: float, q: float):
    phat, qhat = 18 * SQRT3 * p, 18 * SQRT3 * q

    def rhs(ys: list[Series]) -> list[Series]:
        X1, X2, Y1, Y2 = ys
        lat, order = ys[0].lattice, ys[0].order
        sigma = _mono(lat, order, 3)
        oY1, oY2 = 1 + Y1, 1 + Y2
        G = _ac_G(ys, phat, qhat)
        RG = G.sqrt()
        oX1, oX2 = 1 + X1, 1 + X2
        RX = (oX1 * oX1 * oX2).sqrt()
        B = (oY1 * oY1) * (2 * oY2 + (qhat - phat) * sigma) - oY2 * (
            oY2 * oY2 + phat * qhat * sigma * sigma
        )
        return [
            4 * oX1 - 4 * SQRT3 * oY1 * (oY2 - phat * sigma) * (oY2 + qhat * sigma) / RG,
            4 * oX2 - 4 * SQRT3 * B / RG,
            3 * oY1 - 3 * oX1 * oX2 / RX,
            3 * oY2 - 3 * (oX1 * oX1) / RX,
        ]

    return rhs


def _ac_hhat(ys: list[Series], p: float, q: float) -> Series:
    """s^6 H as a series: vanishes identically on true AC solutions."""
    phat, qhat = 18 * SQRT3 * p, 18 * SQRT3 * q
    X1, X2 = ys[0], ys[1]
    G = _ac_G(ys, phat, qhat)
    oX1, oX2 = 1 + X1, 1 + X2
    return (1.0 / 972.0) * G.sqrt() - (SQRT3 / 972.0) * (oX1 * oX1 * oX2).sqrt()


# -- eigen data ---------------------------------------------------------------


def cs_linearization_eigen() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant CS linearization with its exact eigen-decomposition.

    Returns (L, eigenvalues, eigenvectors) with eigenvectors[:, i] belonging
    to eigenvalues[i] = (-1, -6, -nu_inf, nu_0).
    """
    L = _linearize(_phi_cs(), np.zeros(4), ExponentLattice((NU0,)), 0.0)
    eigenvalues = np.array([-1.0, -6.0, -NUINF, NU0])
    eigenvectors = np.column_stack(
        [
            [4.0, 4.0, 3.0, 3.0],
            [2.0, 2.0, -1.0, -1.0],
            [4.0 + NU0, -8.0 - 2 * NU0, 3.0, -6.0],
            [3.0 + NU0, -6.0 - 2 * NU0, -3.0, 6.0],
        ]
    )
    return L, eigenvalues, eigenvectors


# -- seed constructors ---------------------------------------------------------


def _check_seed_state(state, params: ModelParams):
    vol = 0.0
    if isinstance(state, U1State):
        vol = 2 * state.da**2 * state.db
    else:
        da = state.da
        vol = 2 * da[0] * da[1] * da[2]
    h = hamiltonian(state, params)
    if abs(h) > _SEED_H_TOL * (1.0 + vol):
        raise SeedError(f"seed violates the Hamiltonian constraint: |H| = {abs(h)}")
    return state


def _seed_by_ladder(ladder: tuple, t: float, params: ModelParams, solve, state_of):
    """Series and checked state from the first order that passes.

    The order climbs `ladder` until the series tail at the switch parameter
    t, the emitted state and its Hamiltonian pass their checks; the last
    SeedError is re-raised when no order does.  `solve(order=...)` returns
    the series solution and `state_of(sol)` the state it emits.
    """
    last_exc = None
    for trial in ladder:
        sol = solve(order=trial)
        try:
            state = state_of(sol)
            _check_series_tail(sol, t)
            return sol, _check_seed_state(state, params)
        except SeedError as exc:
            last_exc = exc
    raise last_exc


def seed_delta_su2(r0, alpha1, alpha2, alpha3, t_switch):
    """Series and state for the family closing on the diagonal singular S^3."""
    params = ModelParams.delta_su2(r0)
    if abs(64 * r0 * (alpha1 + alpha2 + alpha3) - 1.0) > 1e-12:
        raise ConstraintError("delta_su2 requires 64 r0 (alpha1 + alpha2 + alpha3) = 1")
    al = (alpha1, alpha2, alpha3)
    y0 = np.array([2 * r0 * (al[1] + al[2]), 2 * r0 * (al[2] + al[0]), 2 * r0 * (al[0] + al[1]), *al])
    t = t_switch
    solve = partial(solve_singular_ivp, _phi_delta_su2(r0), y0, (2.0,), shift_pad=2.0)

    def state_of(sol):
        XY = sol.evaluate(t)
        return FullState(x=r0**2 * t**2 / 4 + t**4 * XY[:3], y=r0**3 + r0 * t**2 / 4 + t**4 * XY[3:])

    return _seed_by_ladder(_SMOOTH_LADDER, t, params, solve, state_of)


def seed_su2_factor(r0, alpha1, alpha2, alpha3, t_switch):
    """Series and state for the family closing on the factor singular S^3."""
    params = ModelParams.su2_factor(r0)
    if min(alpha1, alpha2, alpha3) <= 0:
        raise ConstraintError("su2_factor requires alpha_i > 0")
    if abs(alpha1 * alpha2 * alpha3 - 1.0) > 1e-12:
        raise ConstraintError("su2_factor requires alpha1 alpha2 alpha3 = 1")
    al = (alpha1, alpha2, alpha3)
    y0 = np.array(
        [
            r0**2 * al[1] * al[2] / 4,
            r0**2 * al[2] * al[0] / 4,
            r0**2 * al[0] * al[1] / 4,
            r0 * al[0] / 4,
            r0 * al[1] / 4,
            r0 * al[2] / 4,
        ]
    )
    t = t_switch
    solve = partial(solve_singular_ivp, _phi_su2_factor(r0), y0, (2.0,))

    def state_of(sol):
        XY = sol.evaluate(t)
        return FullState(x=t**2 * XY[:3], y=t**2 * XY[3:])

    return _seed_by_ladder(_SMOOTH_LADDER, t, params, solve, state_of)


def seed_kmn(m, n, r0, beta, t_switch=0.1):
    """Series and state for the family closing on the S^2 x S^3 singular orbit."""
    m, n = int(m), int(n)
    params = ModelParams.kmn(m, n, r0)
    if beta is None or beta <= 0:
        raise ConstraintError("kmn requires beta > 0")
    mn3 = m * n * r0**3
    y0 = np.array(
        [
            math.sqrt(m * n) * (m + n) * r0**3,
            r0**2 * (beta * (m + n) / (2 * math.sqrt(m * n)) - m * m * n * n / (2 * beta**2)),
            r0**2 * beta,
            math.sqrt(m * n) * (m + n) * r0 / (2 * beta),
        ]
    )
    t = t_switch
    solve = partial(solve_singular_ivp, _phi_kmn(m, n, r0, beta), y0, (2.0,))

    def state_of(sol):
        X1, X3, Y1, Y3 = sol.evaluate(t)
        a = t * Y1
        b = mn3 + t**2 * Y3
        return FullState(x=np.array([t * X1, t * X1, r0**4 * beta**2 + t**2 * X3]), y=np.array([a, a, b]))

    return _seed_by_ladder(_SMOOTH_LADDER, t, params, solve, state_of)


def seed_cs_end(c, t_switch):
    """Conically singular end: series in powers of t^nu0 around the cone."""
    if t_switch <= 0:
        raise ConstraintError("cs_end requires t_switch > 0")

    def solve(order):
        return _scaled(_cs_series_unit(order), c, 0)

    state_of = partial(_cs_state, t=t_switch)
    return _seed_by_ladder(_CS_LADDER, t_switch, ModelParams.cone(), solve, state_of)


@lru_cache(maxsize=16)
def _cs_series_unit(order: float) -> SeriesSolution:
    """CS series at unit free coefficient; coefficients scale as c^h afterwards,
    as the system is autonomous in t^nu0.

    Shared by every CS seed of the same order: callers must not modify it.
    """
    v = np.array([-(3.0 + NU0) / 6.0, (3.0 + NU0) / 3.0, 0.5, -1.0])
    return solve_singular_ivp(_phi_cs(), np.zeros(4), (NU0,), order, free_modes={0: (1.0, v)})


def _scaled(unit: SeriesSolution, c: float, slot: int) -> SeriesSolution:
    """The unit series at free coefficient c: the coefficient of h scales as c^h[slot]."""
    coeffs = {h: vec * c ** h[slot] for h, vec in unit.coefficients.items()}
    return replace(
        unit,
        base=unit.base.copy(),
        coefficients={h: vec for h, vec in coeffs.items() if np.max(np.abs(vec)) > 0},
        repaired=list(unit.repaired),
    )


def _cs_state(sol: SeriesSolution, t: float) -> U1State:
    X1, X2, Y1, Y2 = sol.evaluate(t)
    if not 1 + X2 > 0:
        raise SeedError(f"series gives 1 + X2 = {1 + X2} <= 0 at t = {t}: no real da")
    a = CONE_COEFF * t**3 * (1 + Y1)
    b = CONE_COEFF * t**3 * (1 + Y2)
    da = t**2 * math.sqrt((1 + X2) / 108.0)
    db = t**2 * (1 + X1) / math.sqrt(108.0 * (1 + X2))
    return U1State(a=a, b=b, da=da, db=db)


@lru_cache(maxsize=16)
def _ac_series_unit(p: float, q: float, order: float) -> SeriesSolution:
    """AC series at unit free coefficient; coefficients scale as c^h1 afterwards.

    Shared by every shot at the same (p, q): callers must not modify it.
    """
    v = np.array([-(4.0 + NU0) / 9.0, (8.0 + 2 * NU0) / 9.0, -1.0 / 3.0, 2.0 / 3.0])

    def repair(ctx: RepairContext) -> np.ndarray:
        yp, *_ = np.linalg.lstsq(ctx.matrix, ctx.rhs, rcond=None)
        obstruction = float(np.linalg.norm(ctx.matrix @ yp - ctx.rhs))
        if obstruction > 1e-10 * (1.0 + np.linalg.norm(ctx.rhs)):
            raise ResonanceError(
                "AC sixth-order obstruction did not vanish", index=ctx.index, obstruction=obstruction
            )
        h0 = _hhat6(ctx.build_with(yp), p, q, ctx.index)
        h1 = _hhat6(ctx.build_with(yp + ctx.kernel), p, q, ctx.index)
        if abs(h1 - h0) < 1e-14:
            raise ResonanceError("Hamiltonian does not fix the kernel component", index=ctx.index)
        kappa = -h0 / (h1 - h0)
        return yp + kappa * ctx.kernel

    return solve_singular_ivp(
        _phi_ac(p, q),
        np.zeros(4),
        (3.0, NUINF),
        order,
        free_modes={1: (1.0, v)},
        repairs={(2, 0): repair},
    )


def seed_ac_end(params: ModelParams, c, T_switch):
    """Asymptotically conical end: series in 1/t with the repaired resonance.

    Normalization: unit asymptotic cone (coefficient sqrt(3)/54) and no
    translation mode; c is the coefficient of the decaying t^-nu_inf mode in
    (54/sqrt3) t^-3 (b - a).
    """
    if T_switch <= 0:
        raise ConstraintError("ac_end requires T_switch > 0")
    p, q = params.p, params.q
    s = 1.0 / T_switch
    # geometric convergence ratio of the forced 1/t^3 ladder
    rho = max(abs(18 * SQRT3 * p), abs(18 * SQRT3 * q)) * s**3
    if rho >= 0.7:
        raise SeedError(f"T_switch = {T_switch} too small: series ratio {rho:.2f} >= 0.7")
    h0max = 5 if rho == 0 else min(60, max(5, int(math.ceil(math.log(1e-12) / math.log(rho)))))
    order = max(_AC_MIN_ORDER, 3.0 * h0max + 0.5)
    sol = _scaled(_ac_series_unit(p, q, order), c, 1)
    _check_series_tail(sol, s)
    state = _ac_state(sol, T_switch)
    return sol, _check_seed_state(state, params)


def _hhat6(ys: list[Series], p: float, q: float, index: tuple) -> float:
    return _ac_hhat(ys, p, q).coeff(index)


def _ac_state(sol: SeriesSolution, T: float) -> U1State:
    s = 1.0 / T
    X1, X2, Y1, Y2 = sol.evaluate(s)
    a = CONE_COEFF * (1 + Y1) / s**3
    b = CONE_COEFF * (1 + Y2) / s**3
    da = math.sqrt((1 + X2) / 108.0) / s**2
    db = (1 + X1) / math.sqrt(108.0 * (1 + X2)) / s**2
    return U1State(a=a, b=b, da=da, db=db)


def _check_series_tail(sol: SeriesSolution, t: float):
    """Last-coefficient bound: the highest retained term must be negligible at t."""
    worst = 0.0
    for h, cvec in sol.coefficients.items():
        e = sol.lattice.exponent(h)
        if e > sol.truncation_order - sol.lattice.min_generator():
            worst = max(worst, float(np.max(np.abs(cvec))) * t**e)
    if worst > _TAIL_TOL:
        raise SeedError(
            f"switch parameter {t} too large for the truncation order: tail estimate {worst:.2e}"
        )


def cone_state(t: float) -> U1State:
    """Exact cone solution a = b = (sqrt3/54) t^3."""
    return U1State(a=CONE_COEFF * t**3, b=CONE_COEFF * t**3, da=SQRT3 / 18 * t**2, db=SQRT3 / 18 * t**2)


# -- seed specifications -------------------------------------------------------


@dataclass(frozen=True)
class SeedSpec:
    """Declarative description of a seed; `build` produces (params, state, series)
    and is the one place that projects a seed onto the U(1) system.

    `family` is any name in `FAMILIES` and reads back as its canonical family.
    Inputs left as None take the family's value in `build`: the B7 alphas
    from 64 r0 (a1 + a2 + a3) = 1 and the D7 alphas from a1 a2 a3 = 1, and
    the AC end's (p, q) from K(m, n).  alpha3 (B7, D7) and beta (K(m, n))
    have no default.  alpha2 is None or alpha1: every seed lies on the U(1)
    locus a1 = a2.  The switch parameter must be positive.
    """

    family: str
    switch_parameter: float | None = None
    r0: float = 1.0
    alphas: tuple[float | None, float | None, float | None] | None = None
    beta: float | None = None
    m: int = 1
    n: int = 1
    c: float = 0.0
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        family = FAMILIES.get(str(self.family).lower())
        if family is None:
            raise ConstraintError(f"unknown seed family {self.family!r}")
        if self.switch_parameter is not None and not self.switch_parameter > 0:
            raise ConstraintError(f"the switch parameter must be positive, got {self.switch_parameter}")
        if family in ("delta_su2", "su2_factor"):
            if self.alphas is None or self.alphas[2] is None:
                raise ConstraintError(f"{self.family} seed needs alpha3")
            a1, a2, _ = self.alphas
            if a2 is not None and a2 != a1:
                raise ConstraintError(
                    f"{self.family} seed with alpha2 = {a2} != alpha1 = {a1} is off the U(1) locus a1 = a2"
                )
        if family == "kmn" and self.beta is None:
            raise ConstraintError(f"{self.family} seed needs beta")
        object.__setattr__(self, "family", family)

    @property
    def t_switch(self) -> float:
        """The parameter the seed is taken at: `switch_parameter`, else the family default."""
        if self.switch_parameter is not None:
            return self.switch_parameter
        if self.family in ("delta_su2", "su2_factor", "kmn"):
            return 0.1 * (abs(self.r0) or 1.0)
        return {"ac_end": 50.0, "cone": 1.0, "cs_end": 0.1}[self.family]  # r0 plays no part

    def build(self):
        """(params, state, series) of the seed; the series is None for the exact cone.

        The state is always a `U1State`: the 6-D states of B7, D7 and K(m, n)
        are projected with `u1_from_full`.
        """
        params, state, sol = self._native()
        if isinstance(state, FullState):
            state = u1_from_full(state)
        return params, state, sol

    def _native(self):
        """(params, state, series) with the state as its seed constructor emits it."""
        t = self.t_switch
        if self.family == "delta_su2":
            params = ModelParams.delta_su2(self.r0)  # checks r0 before the solve divides by it
            a1, _, a3 = self.alphas
            if a1 is None:  # solve 64 r0 (2 a1 + a3) = 1
                a1 = (1.0 / (64.0 * self.r0) - a3) / 2.0
            sol, state = seed_delta_su2(self.r0, a1, a1, a3, t)
            return params, state, sol
        if self.family == "su2_factor":
            a1, _, a3 = self.alphas
            if a1 is None:  # solve a1^2 a3 = 1
                if not a3 > 0:
                    raise ConstraintError(f"su2_factor requires alpha3 > 0, got alpha3 = {a3}")
                a1 = 1.0 / math.sqrt(a3)
            sol, state = seed_su2_factor(self.r0, a1, a1, a3, t)
            return ModelParams.su2_factor(self.r0), state, sol
        if self.family == "kmn":
            sol, state = seed_kmn(self.m, self.n, self.r0, self.beta, t)
            return ModelParams.kmn(self.m, self.n, self.r0), state, sol
        if self.family == "cs_end":
            sol, state = seed_cs_end(self.c, t)
            return ModelParams.cone(), state, sol
        if self.family == "ac_end":
            p, q = self.p, self.q
            if p is None or q is None:  # the K(m, n) end
                kmn = ModelParams.kmn(self.m, self.n, self.r0)
                p, q = (kmn.p if p is None else p), (kmn.q if q is None else q)
            params = ModelParams.plain(p, q)
            sol, state = seed_ac_end(params, self.c, t)
            return params, state, sol
        return ModelParams.cone(), cone_state(t), None  # the exact cone
