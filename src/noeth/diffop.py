"""Differential operators dual to polynomials, and their span calculus.

An operator is a finite sum of scaled divided-power derivatives: the basis
element with exponent alpha stands for (1/alpha!) times the corresponding
partial derivative, acting on one component of a module vector and evaluated
at the operator's center.  In this basis the lowering morphism sigma_j just
decrements the j-th entry of alpha and the raising morphism rho_j increments
it, and the dual of a polynomial copies its coefficients verbatim.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .errors import NotClosedError, RingMismatchError
from .polynomial import Polynomial
from .ring import Exponent, RingDescriptor, as_center, as_coeff, exp_deg, reading_key, t_part, x_part

OpKey = tuple[int, Exponent]  # (position, alpha over the x-block)


class DiffOp:
    """Immutable differential operator with exact coefficients."""

    __slots__ = ("ring", "terms", "center", "_hash")

    def __init__(self, ring: RingDescriptor, terms: Mapping[OpKey, object], center=None):
        center = as_center(ring, center)
        clean: dict[OpKey, object] = {}
        for (pos, alpha), c in terms.items():
            c = as_coeff(c)
            if not c:
                continue
            if not (1 <= pos <= ring.rank) or len(alpha) != ring.x_count:
                raise RingMismatchError(f"bad operator term ({pos}, {alpha})")
            clean[(pos, alpha)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def identity(cls, ring: RingDescriptor, position: int = 1, center=None) -> "DiffOp":
        return cls(ring, {(position, (0,) * ring.x_count): Fraction(1)}, center)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Largest derivative order; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(exp_deg(alpha) for _, alpha in self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ring == other.ring and self.center == other.center and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, self.center, frozenset(self.terms.items()))))
        return self._hash

    def __repr__(self):
        bits = []
        for (pos, alpha), c in sorted(self.terms.items(), key=lambda kv: reading_key(kv[0])):
            mono = " ".join(
                f"d{n}^{e}" if e > 1 else f"d{n}"
                for n, e in zip(self.ring.x_names, alpha)
                if e
            ) or "1"
            tag = f"@{pos}" if self.ring.rank > 1 else ""
            bits.append(f"{c}*{mono}{tag}")
        return "DiffOp(" + (" + ".join(bits) or "0") + ")"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.ring != other.ring or self.center != other.center:
            raise RingMismatchError("operator contexts differ")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            s = acc.get(key)
            s = c if s is None else s + c
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
        return DiffOp(self.ring, acc, self.center)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.ring, {k: -c for k, c in self.terms.items()}, self.center)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        c = as_coeff(c)
        if not c:
            return DiffOp(self.ring, {}, self.center)
        return DiffOp(self.ring, {k: v * c for k, v in self.terms.items()}, self.center)

    # -- morphisms -------------------------------------------------------------

    def sigma(self, j: int) -> "DiffOp":
        """Lower the j-th derivative order, dropping terms that hit zero."""
        out: dict[OpKey, object] = {}
        for (pos, alpha), c in self.terms.items():
            if alpha[j] == 0:
                continue
            down = tuple(e - 1 if i == j else e for i, e in enumerate(alpha))
            out[(pos, down)] = c
        return DiffOp(self.ring, out, self.center)

    def rho(self, j: int) -> "DiffOp":
        """Raise the j-th derivative order on every term."""
        out = {
            (pos, tuple(e + 1 if i == j else e for i, e in enumerate(alpha))): c
            for (pos, alpha), c in self.terms.items()
        }
        return DiffOp(self.ring, out, self.center)


def apply_at(L: DiffOp, f: Polynomial):
    """The scalar L(f) evaluated at L.center (rational coefficients only)."""
    if not L.ring.same_variables(f.ring) or L.ring.rank != f.ring.rank:
        raise RingMismatchError("operator and polynomial rings differ")
    g = f.substitute_affine(L.center) if any(L.center) else f
    pad = (0,) * L.ring.t_count
    total = Fraction(0)
    for (pos, alpha), c in L.terms.items():
        total += c * g.coefficient((pos, alpha + pad))
    return total


def dual_of_polynomial(g: Polynomial, center=None) -> DiffOp:
    """Operator whose coefficient on each derivative monomial copies g's term."""
    terms: dict[OpKey, object] = {}
    for (pos, exp), c in g.terms.items():
        if any(t_part(g.ring, exp)):
            raise RingMismatchError("dual is defined for x-block monomials only")
        terms[(pos, x_part(g.ring, exp))] = c
    return DiffOp(g.ring, terms, center)


def alpha_factorial(alpha: Exponent) -> int:
    n = 1
    for e in alpha:
        n *= factorial(e)
    return n


# -- span calculus over the derivative coordinates -----------------------------


class Echelon:
    """Reduced row echelon form of a span of sparse vectors, kept as term dicts.

    Vectors are dicts from column to coefficient, such as DiffOp.terms;
    columns are ordered by key (reading_key unless given).  Each row is keyed
    by its pivot, has coefficient 1 there, 0 at every other pivot and no term
    before its pivot: the unique RREF of the span, whatever order the vectors
    arrive in.
    """

    __slots__ = ("key", "rows")

    def __init__(self, ops: Iterable[DiffOp] = (), key=reading_key):
        self.key = key
        self.rows: dict[OpKey, dict] = {}
        for L in ops:
            self.add(L.terms)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.rows == other.rows

    def pivots(self) -> list[OpKey]:
        return sorted(self.rows, key=self.key)

    def reduce(self, terms: Mapping) -> dict:
        """What is left of a term dict after eliminating every pivot; empty in the span."""
        out = dict(terms)
        # A row is 0 at every other pivot, so eliminating one pivot leaves
        # the coefficients at the others as they were.
        for p in [k for k in terms if k in self.rows]:
            _subtract(out, out[p], self.rows[p])
        return out

    def add(self, terms: Mapping) -> bool:
        """Extend the span by a term dict; False when it already lies in it."""
        row = self.reduce(terms)
        if not row:
            return False
        p = min(row, key=self.key)
        pv = row[p]
        if pv != 1:
            row = {k: c / pv for k, c in row.items()}
        for other in self.rows.values():
            c = other.get(p)
            if c:
                _subtract(other, c, row)
        self.rows[p] = row
        return True

    def operators(self, ring: RingDescriptor, center=None) -> tuple[DiffOp, ...]:
        """The rows as operators, in pivot order."""
        rows = [self.rows[p] for p in self.pivots()]
        return tuple(DiffOp(ring, {k: row[k] for k in sorted(row, key=self.key)}, center) for row in rows)


def _subtract(terms: dict, c, row: dict) -> None:
    """terms -= c * row, in place, dropping cancelled entries."""
    for k, r in row.items():
        s = terms.get(k)
        s = -c * r if s is None else s - c * r
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)


def span_equal_operators(a, b) -> bool:
    return Echelon(a) == Echelon(b)


def is_closed(ops, echelon: Echelon | None = None) -> bool:
    """Stable under every lowering morphism (as a span).

    echelon is the Echelon of ops, for a caller that has already built it.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return True
    span = Echelon(ops) if echelon is None else echelon
    return not any(span.reduce(L.sigma(j).terms) for L in ops for j in range(L.ring.x_count))


def closure(ops) -> tuple[DiffOp, ...]:
    """Smallest sigma-stable span containing ops, as a canonical basis."""
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    span = Echelon()
    queue = deque(ops)
    while queue:
        L = queue.popleft()
        if span.add(L.terms):
            queue.extend(L.sigma(j) for j in range(L.ring.x_count))
    return span.operators(ops[0].ring, ops[0].center)


def canonical_operator_basis(ops, ring=None, center=None, pivot_keys=None) -> tuple[DiffOp, ...]:
    """Gauss-Jordan canonical basis of the span.

    When pivot_keys is given (the residual monomials), those coordinates come
    first in the column order and must carry the pivots; the result then
    matches the row form produced by the normal-form construction.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    if ring is None:
        ring = ops[0].ring
    if center is None:
        center = ops[0].center
    if pivot_keys is None:
        return Echelon(ops).operators(ring, center)
    pivot_keys = list(pivot_keys)
    rank = {k: i for i, k in enumerate(pivot_keys)}
    span = Echelon(ops, key=lambda k: (0, rank[k]) if k in rank else (1, reading_key(k)))
    if span.pivots() != pivot_keys:
        raise NotClosedError("span does not project onto the residual monomials")
    return span.operators(ring, center)
