"""Cohomology constants (p, q) of the fundamental 3-form.

The two constants determine the cohomology class of the fundamental 3-form.
Smooth closure on a singular orbit forces one of three patterns, built by the
classmethods below:

* ``delta_su2``   (singular S^3, diagonal stabiliser):  p = r0^3,  q = -r0^3
* ``su2_factor``  (singular S^3, factor stabiliser):    p = -r0^3, q = 0
* ``kmn``         (singular S^2 x S^3):                 p = -m^2 r0^3, q = n^2 r0^3

The seed families that use them, and the names they go by, are defined in
`seeds`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError


def _check_r0(family: str, r0: float):
    """Every singular-orbit family has an orbit of positive size r0."""
    if r0 <= 0:
        raise ConstraintError(f"{family} family requires r0 > 0, got r0 = {r0}")


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of e1^e2^e3 (p) and e1'^e2'^e3' (q), plus the orbit scale r0 when known."""

    p: float
    q: float
    r0: float | None = None

    @classmethod
    def plain(cls, p: float, q: float) -> ModelParams:
        return cls(p=float(p), q=float(q))

    @classmethod
    def cone(cls) -> ModelParams:
        return cls(p=0.0, q=0.0)

    @classmethod
    def delta_su2(cls, r0: float) -> ModelParams:
        _check_r0("delta_su2", r0)
        return cls(p=r0**3, q=-(r0**3), r0=float(r0))

    @classmethod
    def su2_factor(cls, r0: float) -> ModelParams:
        _check_r0("su2_factor", r0)
        return cls(p=-(r0**3), q=0.0, r0=float(r0))

    @classmethod
    def kmn(cls, m: int, n: int, r0: float) -> ModelParams:
        if not all(float(k).is_integer() and k > 0 for k in (m, n)) or math.gcd(int(m), int(n)) != 1:
            raise ConstraintError(f"(m, n) = ({m}, {n}) must be coprime positive integers")
        _check_r0("kmn", r0)
        return cls(p=-(m * m) * r0**3, q=(n * n) * r0**3, r0=float(r0))

    @property
    def b_floor(self) -> float:
        """max(p, -q, sqrt(-pq)): the lower b-threshold of the chamber inequalities."""
        pq = self.p * self.q
        root = math.sqrt(-pq) if pq <= 0 else 0.0
        return max(self.p, -self.q, root)

    @property
    def scale3(self) -> float:
        """Characteristic cubed length: |r0|^3 when r0 is known, else from (p, q)."""
        if self.r0 is not None and self.r0 != 0:
            return abs(self.r0) ** 3
        s = max(abs(self.p), abs(self.q))
        return s if s > 0 else 1.0
