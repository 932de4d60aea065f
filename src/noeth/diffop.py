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
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import NotClosedError, RingMismatchError
from .polynomial import Polynomial, TermVector, integer_multiple
from .ring import Exponent, RingDescriptor, as_center, as_coeff, exp_deg, reading_key, t_part, x_part

OpKey = tuple[int, Exponent]  # (position, alpha over the x-block)


def _set_fields(op, ring, terms, center):
    object.__setattr__(op, "ring", ring)
    object.__setattr__(op, "terms", terms)
    object.__setattr__(op, "center", center)
    object.__setattr__(op, "_hash", None)


class DiffOp(TermVector):
    """Immutable differential operator with exact coefficients."""

    __slots__ = ("center",)
    _prefix, _tag = "d", "@"

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
        _set_fields(self, ring, clean, center)

    @classmethod
    def _of(cls, ring: RingDescriptor, terms: dict, center: tuple) -> "DiffOp":
        """Wrap terms and a checked center as they are: the trusted path for results.

        terms must be a dict of the caller's own, with well-formed keys and
        only nonzero coefficients; the operator takes it over.
        """
        op = object.__new__(cls)
        _set_fields(op, ring, terms, center)
        return op

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
    by its pivot, is 0 at every other pivot and has no term before its pivot:
    the unique RREF of the span, whatever order the vectors arrive in.

    While every coefficient seen is a Fraction the rows are fraction-free
    (Bareiss, Math. Comp. 1968): primitive integer dicts with a positive
    pivot entry d, each standing for itself over d, which keeps them unique.
    A vector is scaled to integers with a running scale lam, and its entry c
    at a pivot is cancelled, with h = gcd(c, d), by multiplying it (and lam)
    by d/h and subtracting c/h times the row.  Fractions appear only in
    reduce()'s result and in operators().  A vector with another coefficient
    type, such as RationalFunction, turns the rows into field rows with
    pivot entry 1 for good.
    """

    __slots__ = ("key", "rows", "integral")

    def __init__(self, ops: Iterable[DiffOp] = (), key=reading_key):
        self.key = key
        self.rows: dict[OpKey, dict] = {}
        self.integral = True
        for L in ops:
            self.add(L.terms)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Echelon):
            return NotImplemented
        return self._field_rows() == other._field_rows()

    def _field_rows(self) -> dict:
        """The rows scaled to pivot entry 1."""
        if not self.integral:
            return self.rows
        return {p: {k: Fraction(v, row[p]) for k, v in row.items()} for p, row in self.rows.items()}

    def pivots(self) -> list[OpKey]:
        return sorted(self.rows, key=self.key)

    def _eliminate(self, terms: Mapping) -> tuple[dict, int]:
        """(lam * terms with every pivot eliminated, lam); integers and lam > 0 while integral, else lam 1."""
        if self.integral and not all(type(c) is Fraction for c in terms.values()):
            self.rows = self._field_rows()
            self.integral = False
        if not self.integral:
            return self._cancel_pivots(dict(terms), 1)
        lam = lcm(*[c.denominator for c in terms.values()])
        return self._cancel_pivots(integer_multiple(terms, lam), lam)

    def _cancel_pivots(self, out: dict, lam) -> tuple[dict, int]:
        """(m * out with every pivot eliminated, m * lam), for a vector out already in the rows' form.

        out is integers while integral, else field elements; the call takes
        it over and leaves the rows as they are.
        """
        rows, integral = self.rows, self.integral
        # A row is 0 at every other pivot, so eliminating one pivot leaves
        # the coefficients at the others as they were.
        for p in [k for k in out if k in rows]:
            row = rows[p]
            out, m = _cancel(out, out[p], row, row[p], integral)
            lam *= m
        return out, lam

    def reduce(self, terms: Mapping) -> dict:
        """What is left of a term dict after eliminating every pivot; empty in the span."""
        out, lam = self._eliminate(terms)
        return {k: Fraction(v, lam) for k, v in out.items()} if self.integral else out

    def add(self, terms: Mapping) -> bool:
        """Extend the span by a term dict; False when it already lies in it."""
        row, _ = self._eliminate(terms)
        if not row:
            return False
        integral, rows = self.integral, self.rows
        p = min(row, key=self.key)
        row = _normalized(row, row[p], integral)
        d = row[p]
        for q, other in rows.items():
            c = other.get(p)
            if c:
                other, _ = _cancel(other, c, row, d, integral)
                rows[q] = _normalized(other, other[q], integral)
        rows[p] = row
        return True

    def operators(self, ring: RingDescriptor, center=None) -> tuple[DiffOp, ...]:
        """The rows as operators, in pivot order."""
        rows = self._field_rows()
        ordered = ({k: rows[p][k] for k in sorted(rows[p], key=self.key)} for p in self.pivots())
        return tuple(DiffOp(ring, terms, center) for terms in ordered)


def _cancel(vector: dict, c, row: dict, d, integral: bool) -> tuple[dict, int]:
    """(m * vector - (m * c / d) * row, m), cancelling vector's entry c at row's pivot entry d.

    m = d / gcd(c, d) over the integers; a field row has d = 1, and m = 1."""
    m = 1
    if integral:
        h = gcd(c, d)
        m, c = d // h, c // h
        if m != 1:
            vector = {k: v * m for k, v in vector.items()}
    _subtract(vector, c, row)
    return vector, m


def _normalized(row: dict, lead, integral: bool) -> dict:
    """row scaled to its unique form: primitive with a positive lead over the integers, else lead 1."""
    if not integral:
        return row if lead == 1 else {k: c / lead for k, c in row.items()}
    g = gcd(*row.values()) if lead > 0 else -gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


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


def is_closed(ops) -> bool:
    """Stable under every lowering morphism (as a span).

    The rows of the Echelon of ops span what ops span and lowering is linear,
    so the span is closed exactly when every lowered row lies in it.  The
    rows are lowered and eliminated in their own form, integers on rational
    input, and no operator is lowered or rescaled.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return True
    span = Echelon(ops)
    lowered = (_lowered(row, j) for row in span.rows.values() for j in range(ops[0].ring.x_count))
    return not any(span._cancel_pivots(terms, 1)[0] for terms in lowered)


def closure(ops, echelon: Echelon | None = None) -> tuple[DiffOp, ...]:
    """Smallest sigma-stable span containing ops, as a canonical basis.

    echelon is an empty Echelon to build the span in, for a caller that
    wants its rows or its column order; the basis comes in that order.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    span = Echelon() if echelon is None else echelon
    queue = deque(ops)
    while queue:
        L = queue.popleft()
        if span.add(L.terms):
            queue.extend(L.sigma(j) for j in range(L.ring.x_count))
    return span.operators(ops[0].ring, ops[0].center)


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
    span = Echelon(ops, key=reading_key if pivot_keys is None else pivots_first(pivot_keys))
    if pivot_keys is not None and span.pivots() != list(pivot_keys):
        raise NotClosedError("span does not project onto the residual monomials")
    return span.operators(ops[0].ring if ring is None else ring, ops[0].center if center is None else center)
