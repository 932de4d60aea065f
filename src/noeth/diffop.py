"""Differential operators dual to polynomials, and their span calculus.

An operator is a finite sum of scaled divided-power derivatives: the basis
element with exponent alpha stands for (1/alpha!) times the corresponding
partial derivative, acting on one component of a module vector and evaluated
at the operator's center.  In this basis the lowering morphism sigma_j just
decrements the j-th entry of alpha and the raising morphism rho_j increments
it, and the dual of a polynomial copies its coefficients verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .errors import NotClosedError, RingMismatchError
from .linalg import in_span, rref
from .polynomial import Polynomial
from .ring import Exponent, RingDescriptor, exp_deg, reading_key, t_part, x_part

OpKey = tuple[int, Exponent]  # (position, alpha over the x-block)


def _zero_center(ring: RingDescriptor) -> tuple[Fraction, ...]:
    return (Fraction(0),) * ring.nvars


class DiffOp:
    """Immutable differential operator with exact coefficients."""

    __slots__ = ("ring", "terms", "center", "_hash")

    def __init__(self, ring: RingDescriptor, terms: Mapping[OpKey, object], center=None):
        if center is None:
            center = _zero_center(ring)
        else:
            center = tuple(Fraction(c) if isinstance(c, int) else c for c in center)
            if len(center) != ring.nvars:
                raise RingMismatchError("center length does not match variable count")
        clean: dict[OpKey, object] = {}
        for (pos, alpha), c in terms.items():
            if isinstance(c, int):
                c = Fraction(c)
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
        if isinstance(c, int):
            c = Fraction(c)
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


def sigma_morphism(L: DiffOp, j: int) -> DiffOp:
    return L.sigma(j)


def rho_morphism(L: DiffOp, j: int) -> DiffOp:
    return L.rho(j)


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


def operator_columns(ops: Iterable[DiffOp]) -> list[OpKey]:
    keys = set()
    for L in ops:
        keys.update(L.terms)
    return sorted(keys, key=reading_key)


def _zero_of(ops):
    for L in ops:
        for c in L.terms.values():
            return c - c
    return Fraction(0)


def operator_matrix(ops, columns=None):
    ops = list(ops)
    if columns is None:
        columns = operator_columns(ops)
    zero = _zero_of(ops)
    rows = [[L.terms.get(col, zero) for col in columns] for L in ops]
    return columns, rows


def span_equal_operators(a, b) -> bool:
    a, b = list(a), list(b)
    columns = sorted({k for L in a + b for k in L.terms}, key=reading_key)
    if not columns:
        return True
    zero = _zero_of(a + b)
    rows_a = [[L.terms.get(col, zero) for col in columns] for L in a]
    rows_b = [[L.terms.get(col, zero) for col in columns] for L in b]
    from .linalg import span_equal

    return span_equal(rows_a, rows_b)


def is_closed(ops, echelon=None) -> bool:
    """Stable under every lowering morphism (as a span).

    echelon is an optional (columns, reduced rows, pivots) triple: the columns
    of operator_matrix(ops) and the rref of its rows, for a caller that has
    already computed them.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return True
    ring = ops[0].ring
    if echelon is None:
        columns, rows = operator_matrix(ops)
        reduced, pivots = rref(rows)
    else:
        columns, reduced, pivots = echelon
    colset = set(columns)
    zero = _zero_of(ops)
    for L in ops:
        for j in range(ring.x_count):
            image = L.sigma(j)
            if any(col not in colset for col in image.terms):
                return False
            vec = [image.terms.get(col, zero) for col in columns]
            if not in_span(vec, reduced, pivots):
                return False
    return True


def closure(ops) -> tuple[DiffOp, ...]:
    """Smallest sigma-stable span containing ops, as a canonical basis."""
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    ring = ops[0].ring
    center = ops[0].center
    family: list[DiffOp] = []
    queue = list(ops)
    while queue:
        L = queue.pop(0)
        if L.is_zero():
            continue
        if family and span_equal_operators(family + [L], family):
            continue
        family.append(L)
        for j in range(ring.x_count):
            queue.append(L.sigma(j))
    return canonical_operator_basis(family, ring, center)


def canonical_operator_basis(ops, ring=None, center=None, pivot_keys=None) -> tuple[DiffOp, ...]:
    """Gauss-Jordan canonical basis of the span.

    When pivot_keys is given (the residual monomials), those coordinates are
    eliminated first and must carry the pivots; the result then matches the
    row form produced by the normal-form construction.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        return ()
    if ring is None:
        ring = ops[0].ring
    if center is None:
        center = ops[0].center
    columns = operator_columns(ops)
    if pivot_keys is not None:
        front = [k for k in pivot_keys]
        rest = [k for k in columns if k not in set(front)]
        columns = front + rest
    zero = _zero_of(ops)
    rows = [[L.terms.get(col, zero) for col in columns] for L in ops]
    reduced, pivots = rref(rows)
    if pivot_keys is not None and pivots != list(range(len(front))):
        raise NotClosedError("span does not project onto the residual monomials")
    # rref row order already follows the pivot columns, which are in reading
    # order (residual monomials first when pivot_keys is given).
    out = []
    for row in reduced:
        terms = {col: v for col, v in zip(columns, row) if v}
        out.append(DiffOp(ring, terms, center))
    return tuple(out)
