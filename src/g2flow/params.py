"""Cohomology constants (p, q) and the singular-orbit families that fix them.

The two constants determine the cohomology class of the fundamental 3-form.
Smooth closure on a singular orbit forces one of three patterns:

* ``delta_su2``   (singular S^3, diagonal stabiliser):  p = r0^3,  q = -r0^3
* ``su2_factor``  (singular S^3, factor stabiliser):    p = -r0^3, q = 0
* ``kmn``         (singular S^2 x S^3):                 p = -m^2 r0^3, q = n^2 r0^3
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError

_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of e1^e2^e3 (p) and e1'^e2'^e3' (q), plus optional family tag."""

    p: float
    q: float
    family: str | None = None
    m: int | None = None
    n: int | None = None
    r0: float | None = None

    def __post_init__(self):
        if self.family is None:
            return
        if self.family == "kmn":
            m, n, r0 = self.m, self.n, self.r0
            if m is None or n is None or r0 is None:
                raise ConstraintError("kmn family needs (m, n, r0)")
            if m <= 0 or n <= 0 or math.gcd(m, n) != 1:
                raise ConstraintError(f"(m, n) = ({m}, {n}) must be coprime positive integers")
            if abs(self.p + m * m * r0**3) > _EXACT_TOL * abs(r0**3) or abs(
                self.q - n * n * r0**3
            ) > _EXACT_TOL * abs(r0**3):
                raise ConstraintError("kmn family requires p = -m^2 r0^3 and q = n^2 r0^3")
        elif self.family == "delta_su2":
            r0 = self.r0
            if r0 is None or r0 <= 0:
                raise ConstraintError("delta_su2 family requires r0 > 0")
            if abs(self.p - r0**3) > _EXACT_TOL * r0**3 or abs(self.q + r0**3) > _EXACT_TOL * r0**3:
                raise ConstraintError("delta_su2 family requires p = -q = r0^3")
        elif self.family == "su2_factor":
            r0 = self.r0
            if r0 is None or r0 <= 0:
                raise ConstraintError("su2_factor family requires r0 > 0")
            if abs(self.p + r0**3) > _EXACT_TOL * r0**3 or self.q != 0.0:
                raise ConstraintError("su2_factor family requires p = -r0^3, q = 0")
        else:
            raise ConstraintError(f"unknown family tag {self.family!r}")
        if self.p * self.q > 0:
            raise ConstraintError("family-tagged params must satisfy pq <= 0")

    @classmethod
    def plain(cls, p: float, q: float) -> ModelParams:
        return cls(p=float(p), q=float(q))

    @classmethod
    def cone(cls) -> ModelParams:
        return cls(p=0.0, q=0.0)

    @classmethod
    def delta_su2(cls, r0: float) -> ModelParams:
        return cls(p=r0**3, q=-(r0**3), family="delta_su2", r0=float(r0))

    @classmethod
    def su2_factor(cls, r0: float) -> ModelParams:
        return cls(p=-(r0**3), q=0.0, family="su2_factor", r0=float(r0))

    @classmethod
    def kmn(cls, m: int, n: int, r0: float) -> ModelParams:
        return cls(
            p=-(m * m) * r0**3,
            q=(n * n) * r0**3,
            family="kmn",
            m=int(m),
            n=int(n),
            r0=float(r0),
        )

    @property
    def b_floor(self) -> float:
        """max(p, -q, sqrt(-pq)): the lower b-threshold of the chamber inequalities."""
        pq = self.p * self.q
        root = math.sqrt(-pq) if pq <= 0 else 0.0
        return max(self.p, -self.q, root)

    @property
    def scale3(self) -> float:
        """Characteristic cubed length: |r0|^3 for tagged families, else from (p, q)."""
        if self.r0 is not None and self.r0 != 0:
            return abs(self.r0) ** 3
        s = max(abs(self.p), abs(self.q))
        return s if s > 0 else 1.0
