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
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from math import factorial, gcd

from .errors import NotClosedError, NotPrimaryError, RingMismatchError
from .polynomial import Polynomial, TermVector, checked_terms, integral, primitive
from .ring import Exponent, RingDescriptor, as_center, exp_deg, reading_key, t_part, x_part

OpKey = tuple[int, Exponent]  # (position, alpha over the x-block)


class DiffOp(TermVector):
    """Immutable differential operator with exact coefficients.

    Its keys carry an alpha over the x-block; the trusted _of also takes a
    center already checked by as_center.
    """

    __slots__ = ("center",)
    _fields = ("ring", "terms", "center")
    _prefix, _tag = "d", "@"

    def __init__(self, ring: RingDescriptor, terms: Mapping[OpKey, object], center=None):
        center = as_center(ring, center)
        self._assign(ring, checked_terms(ring, terms, ring.x_count), center)

    def _context(self) -> tuple:
        return self.ring, self.center

    def _like(self, terms: dict) -> "DiffOp":
        return DiffOp._of(self.ring, terms, self.center)

    @classmethod
    def identity(cls, ring: RingDescriptor, position: int = 1, center=None) -> "DiffOp":
        return cls(ring, {(position, (0,) * ring.x_count): Fraction(1)}, center)

    def degree(self) -> int:
        """Largest derivative order; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(exp_deg(alpha) for _, alpha in self.terms)

    # -- linear structure ----------------------------------------------------

    def _operand(self, other) -> "DiffOp | None":
        if not isinstance(other, DiffOp):
            return None
        if self.ring != other.ring or self.center != other.center:
            raise RingMismatchError("operator contexts differ")
        return other

    # -- morphisms -------------------------------------------------------------

    def sigma(self, j: int) -> "DiffOp":
        """Lower the j-th derivative order, dropping terms that hit zero."""
        return DiffOp._of(self.ring, _lowered(self.terms, j), self.center)

    def rho(self, j: int) -> "DiffOp":
        """Raise the j-th derivative order on every term."""
        out = {
            (pos, tuple(e + 1 if i == j else e for i, e in enumerate(alpha))): c
            for (pos, alpha), c in self.terms.items()
        }
        return DiffOp._of(self.ring, out, self.center)


def _lowered(terms: Mapping, j: int) -> dict:
    """The terms of sigma_j: the j-th order lowered, terms of order 0 in it dropped."""
    out = {}
    for (pos, alpha), c in terms.items():
        if alpha[j]:
            out[(pos, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :])] = c
    return out


def apply_at(L: DiffOp, f: Polynomial):
    """The scalar L(f) evaluated at L.center (rational coefficients only)."""
    return next(apply_all((L,), f))


def apply_all(ops: Iterable[DiffOp], f: Polynomial) -> Iterator:
    """apply_at(L, f) for L in ops, lazily, with f moved once to each center the operators name."""
    moved: dict[tuple, Polynomial] = {}
    for L in ops:
        if not L.ring.same_variables(f.ring) or L.ring.rank != f.ring.rank:
            raise RingMismatchError("operator and polynomial rings differ")
        if L.center not in moved:
            moved[L.center] = f.substitute_affine(L.center) if any(L.center) else f
        g, pad = moved[L.center], (0,) * L.ring.t_count
        yield sum((c * g.coefficient((pos, alpha + pad)) for (pos, alpha), c in L.terms.items()), Fraction(0))


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
    """Reduced row echelon form of a span of rational vectors, kept as integer term dicts.

    Vectors are dicts from column to int or Fraction, such as DiffOp.terms;
    columns are ordered by key (reading_key unless given).  Each row is keyed
    by its pivot, is 0 at every other pivot and has no term before its pivot:
    the unique RREF of the span, whatever order the vectors arrive in.

    The rows are fraction-free (Bareiss, Math. Comp. 1968): integer dicts,
    each standing for itself over its pivot entry d and kept unique by
    noeth.polynomial.primitive (primitive, with d > 0).  A vector is scaled
    to integers with a running scale lam, and its entry c at a pivot is
    cancelled, with h = gcd(c, d), by multiplying it (and lam) by d/h and
    subtracting c/h times the row.  Fractions appear only in reduce()'s
    result and in operators().  Any other coefficient, such as a
    RationalFunction, is refused with RingMismatchError before any row
    changes.
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

    def _eliminate(self, terms: Mapping) -> tuple[dict, int]:
        """(lam * terms with every pivot eliminated, lam), integers with lam > 0; the rows stay as they are."""
        (out, lam), rows = _integer_vector(terms), self.rows
        # A row is 0 at every other pivot, so eliminating one pivot leaves
        # the coefficients at the others as they were.
        for p in [k for k in out if k in rows]:
            row = rows[p]
            out, m = _cancel(out, out[p], row, row[p])
            lam *= m
        return out, lam

    def reduce(self, terms: Mapping) -> dict:
        """What is left of a term dict after eliminating every pivot; empty in the span."""
        out, lam = self._eliminate(terms)
        return {k: Fraction(v, lam) for k, v in out.items()}

    def add(self, terms: Mapping) -> bool:
        """Extend the span by a term dict; False when it already lies in it."""
        row, _ = self._eliminate(terms)
        if not row:
            return False
        rows = self.rows
        p = min(row, key=self.key)
        row = primitive(row, p)
        d = row[p]
        for q, other in rows.items():
            c = other.get(p)
            if c:
                other, _ = _cancel(other, c, row, d)
                rows[q] = primitive(other, q)
        rows[p] = row
        return True

    def operators(self, ring: RingDescriptor, center=None) -> tuple[DiffOp, ...]:
        """The rows over their pivot entries as operators, in pivot order; the rows hold operator keys."""
        center, rows = as_center(ring, center), self.rows
        return tuple(
            DiffOp._of(ring, {k: Fraction(rows[p][k], rows[p][p]) for k in sorted(rows[p], key=self.key)}, center)
            for p in self.pivots()
        )


def _integer_vector(terms: Mapping) -> tuple[dict, int]:
    """(lam * terms, lam) over the integers, a new dict: an int vector as it is, Fractions scaled by integral."""
    if all(type(c) is int for c in terms.values()):
        return dict(terms), 1
    if not all(isinstance(c, Fraction) for c in terms.values()):
        raise RingMismatchError("operator spans take rational coefficients only")
    return integral(terms)


def _cancel(vector: dict, c: int, row: dict, d: int) -> tuple[dict, int]:
    """(m * vector - (c / h) * row, m), cancelling vector's entry c at row's pivot entry d.

    h = gcd(c, d) and m = d / h, so the result stays over the integers.
    """
    h = gcd(c, d)
    m, c = d // h, c // h
    if m != 1:
        vector = {k: v * m for k, v in vector.items()}
    for k, r in row.items():
        s = vector.get(k)
        s = -c * r if s is None else s - c * r
        if s:
            vector[k] = s
        else:
            vector.pop(k, None)
    return vector, m


def span_equal_operators(a, b) -> bool:
    return Echelon(a) == Echelon(b)


def is_closed(ops) -> bool:
    """Stable under every lowering morphism (as a span): the closure of rational operators ops adds nothing."""
    ops = list(ops)
    return len(closure(ops)) == len(Echelon(ops))


def closure(ops, echelon: Echelon | None = None, bound: int | None = None) -> tuple[DiffOp, ...]:
    """Smallest sigma-stable span containing rational operators ops, as a canonical basis.

    The operators share one ring and center, else RingMismatchError; each is
    scaled to integers once, and the queue holds integer term dicts only.
    echelon is an empty Echelon to build the span in, for a caller that
    wants its rows or its column order; the basis comes in that order.
    bound is the multiplicity of the input the operators should be dual to:
    its dual space has that many dimensions, so NotPrimaryError is raised as
    soon as the span has more rows.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    ring, center = ops[0].ring, ops[0].center
    if any(L.ring != ring for L in ops):
        raise RingMismatchError("operator rings differ")
    if any(L.center != center for L in ops):
        raise RingMismatchError("operator contexts differ")
    span = Echelon() if echelon is None else echelon
    queue = deque([_integer_vector(L.terms)[0] for L in ops])
    while queue:
        terms = queue.popleft()
        if span.add(terms):
            if bound is not None and len(span) > bound:
                raise NotPrimaryError(
                    f"the input is not primary at the center: the lowering closure outgrows the multiplicity {bound}"
                )
            queue.extend(lowered for j in range(ring.x_count) if (lowered := _lowered(terms, j)))
    return span.operators(ring, center)


def pivots_first(pivot_keys) -> Callable:
    """Column key that puts pivot_keys first, in their order, and the rest in reading order."""
    rank = {k: i for i, k in enumerate(pivot_keys)}
    return lambda k: (0, rank[k]) if k in rank else (1, reading_key(k))


def canonical_operator_basis(ops, ring=None, center=None, pivot_keys=None) -> tuple[DiffOp, ...]:
    """Gauss-Jordan canonical basis of the span.

    When pivot_keys is given (the residual monomials), those coordinates come
    first in the column order and must carry the pivots; the result then
    matches the row form produced by the normal-form construction.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    ring = ops[0].ring if ring is None else ring
    if any(L.ring != ring for L in ops):
        raise RingMismatchError("operator rings differ")
    span = Echelon(ops, key=reading_key if pivot_keys is None else pivots_first(pivot_keys))
    if pivot_keys is not None and span.pivots() != list(pivot_keys):
        raise NotClosedError("span does not project onto the residual monomials")
    return span.operators(ring, ops[0].center if center is None else center)
