"""Sparse polynomials and free-module vectors with exact coefficients.

A polynomial is a mapping from (position, exponent) keys to nonzero
coefficients.  Coefficients are fractions.Fraction for ordinary rings and may
be RationalFunction values when the ring has been extended over its parameter
block; arithmetic only assumes field operations on the coefficient type.
Rank-1 elements keep every position equal to 1, so submodule and ideal code
paths share one representation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import RingMismatchError
from .ring import (
    Exponent,
    Frozen,
    RingDescriptor,
    TermKey,
    as_coeff,
    check_same_variables,
    exp_add,
    exp_deg,
    reading_key,
)


def checked_terms(ring: RingDescriptor, terms: Mapping, width: int) -> dict:
    """terms without its zero coefficients, every key on the ring.

    A key's position must lie in 1..rank, and its exponent must have width
    entries, none negative; RingMismatchError names the first that does not.
    """
    clean = {}
    for (pos, exp), c in terms.items():
        c = as_coeff(c)
        if not c:
            continue
        if not (1 <= pos <= ring.rank):
            raise RingMismatchError(f"position {pos} outside rank {ring.rank}")
        if len(exp) != width or (exp and min(exp) < 0):
            raise RingMismatchError(f"bad exponent {exp} for {width} variables")
        clean[(pos, exp)] = c
    return clean


class TermVector(Frozen):
    """Immutable sparse vector of nonzero coefficients on (position, exponent) keys.

    The value semantics shared by Polynomial and its dual, DiffOp.  A
    subclass says what differs: _context() is what, besides the terms, two
    equal values share; _like(terms) wraps result terms in self's context;
    _operand(other) gives the right operand of + and - as a vector of the
    same context, or None when it does not apply.  __repr__ writes
    _prefix before each variable name and _tag before the position.  The
    trusted _of takes over a terms dict of the caller's own, with well-formed
    keys and only nonzero coefficients.
    """

    __slots__ = ("ring", "terms", "_hash")  # _hash stays unset until __hash__ first runs
    _fields = ("ring", "terms")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._set("_hash", hash((self._context(), frozenset(self.terms.items()))))
            return self._hash

    def __repr__(self) -> str:
        bits = []
        for (pos, exp), c in sorted(self.terms.items(), key=lambda kv: reading_key(kv[0])):
            mono = " ".join(
                f"{self._prefix}{n}^{e}" if e > 1 else f"{self._prefix}{n}"
                for n, e in zip(self.ring.names, exp)
                if e
            ) or "1"
            tag = f"{self._tag}{pos}" if self.ring.rank > 1 else ""
            bits.append(f"{c}*{mono}{tag}")
        return f"{type(self).__name__}(" + (" + ".join(bits) or "0") + ")"

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        add_into(acc, other.terms.items())
        return self._like(acc)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        add_into(acc, ((key, -c) for key, c in other.terms.items()))
        return self._like(acc)

    def scale(self, c):
        c = as_coeff(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})


class Polynomial(TermVector):
    """Immutable sparse polynomial over a RingDescriptor."""

    __slots__ = ()
    _prefix, _tag = "", "*e"

    def __init__(self, ring: RingDescriptor, terms: Mapping[TermKey, object]):
        self._assign(ring, checked_terms(ring, terms, ring.nvars))

    def _context(self) -> RingDescriptor:
        return self.ring

    def _like(self, terms: dict) -> "Polynomial":
        return Polynomial._of(self.ring, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: RingDescriptor, c, position: int = 1) -> "Polynomial":
        return cls(ring, {(position, ring.zero_exp()): as_coeff(c)})

    @classmethod
    def monomial(cls, ring: RingDescriptor, exp: Exponent, coeff=1, position: int = 1) -> "Polynomial":
        return cls(ring, {(position, tuple(exp)): as_coeff(coeff)})

    @classmethod
    def variable(cls, ring: RingDescriptor, which: str | int, position: int = 1) -> "Polynomial":
        index = which if isinstance(which, int) else ring.var_index(which)
        return cls.monomial(ring, ring.var_exp(index), 1, position)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, key: TermKey):
        return self.terms.get(key, Fraction(0))

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(exp_deg(exp) for _, exp in self.terms)

    def sorted_terms(self) -> list[tuple[TermKey, object]]:
        """Terms in the graded reading order (deterministic, order-free)."""
        return sorted(self.terms.items(), key=lambda kv: reading_key(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> "Polynomial | None":
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return None
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError("cannot add over different rings")
        return other

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def mul_monomial(self, exp: Exponent, coeff=1) -> "Polynomial":
        """Multiply by a scalar monomial (position unchanged)."""
        coeff = as_coeff(coeff)
        if len(exp) != self.ring.nvars or any(e < 0 for e in exp):
            raise RingMismatchError(f"bad exponent {exp} for {self.ring.nvars} variables")
        if not coeff:
            return Polynomial._of(self.ring, {})
        return Polynomial._of(
            self.ring,
            {(pos, exp_add(e, exp)): c * coeff for (pos, e), c in self.terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return poly_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        """Square-and-multiply from the base: p ** 0 is the constant 1, p ** 1 is p itself."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return Polynomial.constant(self.ring, 1)
        result, square = None, self
        while True:
            if n & 1:
                result = square if result is None else poly_mul(result, square)
            n >>= 1
            if not n:
                return result
            square = poly_mul(square, square)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point: Iterable):
        """Value at a rational point; a tuple of values when rank > 1."""
        point = [as_coeff(p) for p in point]
        if len(point) != self.ring.nvars:
            raise RingMismatchError("point length does not match variable count")
        vals = {pos: Fraction(0) for pos in range(1, self.ring.rank + 1)}
        for (pos, exp), c in self.terms.items():
            if not isinstance(c, Fraction):
                raise RingMismatchError("evaluation needs rational coefficients")
            v = c
            for p, e in zip(point, exp):
                if e:
                    v *= p ** e
            vals[pos] += v
        if self.ring.rank == 1:
            return vals[1]
        return tuple(vals[pos] for pos in range(1, self.ring.rank + 1))

    def substitute_affine(self, point: Iterable) -> "Polynomial":
        """Replace each variable v_i by v_i + p_i (recentering at -p); rational coefficients only.

        A Taylor shift over the integers, one variable at a time.  With
        p_i = a_i / D, lam the lcm of f's denominators and deg its total
        degree, a term c v^e starts as the integer lam * c * D^(deg - |e|).
        The pass for v_i takes each v_i^e to (v_i + a_i)^e by one binomial row
        per e, like terms merge between passes, and a_i = 0 skips its pass.
        A term v^m then stands for itself over lam * D^(deg - |m|).
        """
        point = [as_coeff(p) for p in point]
        if len(point) != self.ring.nvars:
            raise RingMismatchError("point length does not match variable count")
        if not all(type(c) is Fraction for c in self.terms.values()):
            raise RingMismatchError("substitution needs rational coefficients")
        den = lcm(*[p.denominator for p in point])
        ints, lam = integral(self.terms)
        deg = max(self.total_degree(), 0)
        acc = {key: v * den ** (deg - exp_deg(key[1])) for key, v in ints.items()}
        for i, p in enumerate(point):
            if not p:
                continue
            a = p.numerator * (den // p.denominator)
            rows, shifted = {}, {}  # e -> the coefficients of (v_i + a)^e by power of v_i; the new terms
            for (pos, exp), c in acc.items():
                row = rows.get(e := exp[i]) or rows.setdefault(e, [comb(e, k) * a ** (e - k) for k in range(e + 1)])
                head, tail = exp[:i], exp[i + 1 :]
                for k, b in enumerate(row):
                    key = (pos, head + (k,) + tail)
                    shifted[key] = shifted.get(key, 0) + b * c
            acc = shifted
        out = {(pos, m): Fraction(v, lam * den ** (deg - exp_deg(m))) for (pos, m), v in acc.items() if v}
        return Polynomial._of(self.ring, out)


def integral(terms: Mapping) -> tuple[dict, int]:
    """(lam * terms over the integers, lam), lam the lcm of the rational coefficients' denominators."""
    lam = lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (lam // c.denominator) for k, c in terms.items()}, lam


def primitive(terms: dict, lead) -> dict:
    """Nonzero integer terms in their unique form up to a rational factor: primitive, positive at the key lead."""
    g = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
    return terms if g == 1 else {k: c // g for k, c in terms.items()}


def add_into(acc: dict, items) -> None:
    """acc += items, in place: (key, nonzero coefficient) pairs summed, cancelled keys dropped."""
    for key, c in items:
        s = acc.get(key)
        s = c if s is None else s + c
        if s:
            acc[key] = s
        else:
            del acc[key]


def add_shifted(acc: dict, items, shift: Exponent, factor) -> None:
    """acc += factor * x^shift * items, in place, dropping cancelled entries.

    items are (key, nonzero coefficient) pairs and factor is nonzero.
    """
    for (pos, exp), c in items:
        key = (pos, exp_add(exp, shift))
        c = c * factor
        s = acc.get(key)
        s = c if s is None else s + c
        if s:
            acc[key] = s
        else:
            del acc[key]


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product; at most one factor may have rank > 1."""
    check_same_variables(f.ring, g.ring)
    if f.ring.rank > 1 and g.ring.rank > 1:
        raise RingMismatchError("cannot multiply two module vectors")
    if f.ring.rank > 1:
        f, g = g, f  # g's terms keep their positions
    acc: dict[TermKey, object] = {}
    for (_, ef), cf in f.terms.items():
        add_shifted(acc, g.terms.items(), ef, cf)
    return Polynomial._of(g.ring, acc)
