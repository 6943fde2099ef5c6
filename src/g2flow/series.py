"""Truncated generalized power series arithmetic.

A series lives on an exponent lattice generated by a tuple of positive real
generators (g_0, ..., g_{m-1}): terms are c_h * t^(h . g) for multi-indices
h in Z_{>=0}^m, with float coefficients, truncated beyond a fixed order.
Both operands of a binary operation share lattice and order.

A series is one dense vector over `lattice.indices_upto(order)`, sorted by
exponent, so the positions of a lower order are a prefix of those of a
higher one.  A cache per (generators, order) holds the position map, the
exponents and the table of position pairs whose exponents sum to at most the
order; lower orders are views of the highest order built.  A product is a
truncated convolution on a one-generator lattice, otherwise a weighted
bincount over the table.  Reciprocals and square roots use the O(N^2)
coefficient recurrences (Knuth, TAOCP vol. 2, 4.7), so any right-hand side
built from +, *, /, sqrt composes automatically.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonAnalyticError

_EXP_TOL = 1e-9


@dataclass(frozen=True)
class ExponentLattice:
    generators: tuple[float, ...]

    def __post_init__(self):
        if not self.generators or any(g <= 0 for g in self.generators):
            raise ValueError("lattice generators must be positive")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def exponent(self, h: tuple[int, ...]) -> float:
        return sum(hi * gi for hi, gi in zip(h, self.generators))

    def indices_upto(self, order: float) -> list[tuple[int, ...]]:
        """All multi-indices with exponent <= order, sorted by exponent."""
        return _enumerate_indices(self.generators, order)

    def min_generator(self) -> float:
        return min(self.generators)


@lru_cache(maxsize=None)
def _enumerate_indices(generators: tuple[float, ...], order: float) -> list[tuple[int, ...]]:
    def exponent(h):
        return sum(hi * gi for hi, gi in zip(h, generators))

    box = itertools.product(*(range(int((order + _EXP_TOL) // g) + 1) for g in generators))
    return sorted((h for h in box if exponent(h) <= order + _EXP_TOL), key=exponent)


@dataclass(eq=False)
class _Basis:
    """Positions of one (generators, order).  `position` may be shared with a
    higher order, whose positions from `size` on are not in this basis.
    `pairs` holds the positions (I, J, K) of each product term a_I b_J ->
    t^(e_I + e_J), sorted by K; `terms[k]` the (I, J) landing on k."""

    dim: int
    size: int
    position: dict
    exponents: np.ndarray
    pairs: np.ndarray
    terms: list
    prefixes: dict = field(default_factory=dict)
    shifts: dict = field(default_factory=dict)

    @classmethod
    def build(cls, generators: tuple[float, ...], order: float) -> _Basis:
        indices = _enumerate_indices(generators, order)
        n = len(indices)
        position = {h: i for i, h in enumerate(indices)}
        exponents = np.array([sum(hi * gi for hi, gi in zip(h, generators)) for h in indices])
        I, J = np.nonzero(exponents[:, None] + exponents[None, :] <= order + _EXP_TOL)
        sums = (tuple(map(operator.add, indices[i], indices[j])) for i, j in zip(I, J))
        K = np.fromiter((position[h] for h in sums), dtype=np.intp, count=len(I))
        perm = np.argsort(K, kind="stable")
        I, J, K = I[perm], J[perm], K[perm]
        seg = np.searchsorted(K, np.arange(n + 1))
        terms = [(I[seg[k] : seg[k + 1]], J[seg[k] : seg[k + 1]]) for k in range(n)]
        return cls(len(generators), n, position, exponents, np.stack((I, J, K)), terms)

    def prefix(self, order: float) -> _Basis:
        """The basis of a lower order, as views of this one's leading entries."""
        if order not in self.prefixes:
            n = int(np.searchsorted(self.exponents, order + _EXP_TOL, side="right"))
            pairs = self.pairs[:, : np.searchsorted(self.pairs[2], n)]
            exps, terms = self.exponents[:n], self.terms[:n]
            self.prefixes[order] = _Basis(self.dim, n, self.position, exps, pairs, terms)
        return self.prefixes[order]

    def index_position(self, h) -> int | None:
        pos = self.position.get(tuple(h))
        return pos if pos is not None and pos < self.size else None

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return np.convolve(a, b)[: self.size]
        I, J, K = self.pairs
        return np.bincount(K, weights=a[I] * b[J], minlength=self.size)

    def reciprocal(self, a: np.ndarray) -> np.ndarray:
        """Solve (a r)_k = 0, k > 0; r_k is still 0 while the terms of position k are summed."""
        r = np.zeros(self.size)
        neg_inv = -1.0 / a[0]
        r[0] = -neg_inv
        for k, (i, j) in enumerate(self.terms[1:], 1):
            r[k] = neg_inv * a[i].dot(r[j])
        return r

    def sqrt(self, a: np.ndarray) -> np.ndarray:
        """Solve (s s)_k = a_k; s_k is still 0 while the terms of position k are summed."""
        s = np.zeros(self.size)
        s[0] = np.sqrt(a[0])
        half = 0.5 / s[0]
        for k, (i, j) in enumerate(self.terms[1:], 1):
            s[k] = half * (a[k] - s[i].dot(s[j]))
        return s

    def shift(self, h: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, dropped) positions of the division by t^(h . g)."""
        if h not in self.shifts:
            source, target, dropped = [], [], []
            for h0, pos in self.position.items():
                if pos >= self.size:
                    continue
                hn = tuple(a - b for a, b in zip(h0, h))
                if min(hn) < 0:
                    dropped.append(pos)
                else:
                    source.append(pos)
                    target.append(self.position[hn])
            self.shifts[h] = tuple(np.array(x, dtype=np.int64) for x in (source, target, dropped))
        return self.shifts[h]


_TOP: dict[tuple[float, ...], tuple[float, _Basis]] = {}  # generators -> (top order, its basis)


def _basis(generators: tuple[float, ...], order: float) -> _Basis:
    top_order, top = _TOP.get(generators, (-1.0, None))
    if order > top_order:
        top_order, top = _TOP[generators] = (order, _Basis.build(generators, order))
    return top if order == top_order else top.prefix(order)


class Series:
    """A truncated series: `vector[i]` is the coefficient of `lattice.indices_upto(order)[i]`."""

    __slots__ = ("lattice", "order", "vector", "_basis")

    def __init__(self, lattice: ExponentLattice, order: float, vector: np.ndarray | None = None):
        self.lattice = lattice
        self.order = order
        self._basis = _basis(lattice.generators, order)
        if vector is None:
            vector = np.zeros(self._basis.size)
        else:
            vector = np.asarray(vector, dtype=float)
            if vector.shape != (self._basis.size,):
                raise ValueError(f"{vector.shape} coefficients for {self._basis.size} lattice indices")
        self.vector = vector

    # -- constructors --

    @classmethod
    def constant(cls, lattice: ExponentLattice, order: float, value: float) -> Series:
        s = cls(lattice, order)
        s.vector[0] = value
        return s

    @classmethod
    def monomial(cls, lattice: ExponentLattice, order: float, h: tuple[int, ...], value: float = 1.0) -> Series:
        s = cls(lattice, order)
        pos = s._basis.index_position(h)
        if pos is not None:
            s.vector[pos] = value
        return s

    # -- basic queries --

    def coeff(self, h: tuple[int, ...]) -> float:
        pos = self._basis.index_position(h)
        return float(self.vector[pos]) if pos is not None else 0.0

    @property
    def const(self) -> float:
        return float(self.vector[0])

    def magnitude(self) -> float:
        return float(np.abs(self.vector).sum())

    def _like(self, vector: np.ndarray) -> Series:
        out = object.__new__(Series)
        out.lattice, out.order, out._basis, out.vector = self.lattice, self.order, self._basis, vector
        return out

    def _check(self, other: Series):
        if other.lattice.generators != self.lattice.generators:
            raise ValueError("series live on different lattices")
        if other.order != self.order:
            raise ValueError(f"series truncated at different orders: {self.order} vs {other.order}")

    # -- ring operations --

    def __add__(self, other):
        if not isinstance(other, Series):
            v = self.vector.copy()
            v[0] += float(other)
            return self._like(v)
        self._check(other)
        return self._like(self.vector + other.vector)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.vector)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._like(self.vector * float(other))
        self._check(other)
        return self._like(self._basis.product(self.vector, other.vector))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return (self ** (-k)).reciprocal()
        result = Series.constant(self.lattice, self.order, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    # -- inverses --

    def reciprocal(self) -> Series:
        if self.vector[0] == 0:
            raise NonAnalyticError("series reciprocal at a zero constant term")
        return self._like(self._basis.reciprocal(self.vector))

    def sqrt(self) -> Series:
        a0 = self.const
        if a0 <= 0:
            raise NonAnalyticError(f"series sqrt needs a positive constant term, got {a0}")
        return self._like(self._basis.sqrt(self.vector))

    # -- lattice moves --

    def shift_down(self, h: tuple[int, ...], tol: float) -> Series:
        """Divide by t^(h . g); coefficients that would go negative must be
        below tol (they are exact-cancellation residues) or the series is not
        analytic after the shift."""
        if len(h) != self.lattice.dim:
            raise ValueError(f"shift index {h} has wrong dimension for lattice {self.lattice.generators}")
        source, target, dropped = self._basis.shift(tuple(h))
        bad = float(np.max(np.abs(self.vector[dropped]))) if dropped.size else 0.0
        if bad > tol:
            raise NonAnalyticError(
                f"shift_down by {h}: residual coefficient {bad} exceeds tolerance {tol}"
            )
        out = np.zeros_like(self.vector)
        out[target] = self.vector[source]
        return self._like(out)

    # -- calculus / evaluation --

    def evaluate(self, t: float) -> float:
        return float(np.dot(self.vector, t ** self._basis.exponents))
