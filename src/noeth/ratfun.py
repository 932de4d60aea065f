"""Rational functions over the parameter block, with exact polynomial GCDs.

The GCD uses content/primitive-part recursion: univariate Euclid over Q at the
bottom, and a primitive pseudo-remainder sequence in the last occurring
variable above that.  Every RationalFunction is stored normalized: numerator
and denominator coprime, denominator monic under DegLex.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RingMismatchError, ZeroPolynomialError
from .orderings import DegLex, ModuleOrder, lead_by_key, monic_by_key
from .polynomial import Polynomial, add_shifted, poly_mul
from .ring import Frozen, RingDescriptor, exp_sub

_DEGLEX_KEY = ModuleOrder(DegLex()).key(None)  # DegLex ranks terms without the ring


def _occurring_vars(f: Polynomial) -> set[int]:
    used: set[int] = set()
    for (_, exp) in f.terms:
        for i, e in enumerate(exp):
            if e:
                used.add(i)
    return used


def _deg_in(f: Polynomial, k: int) -> int:
    if f.is_zero():
        return -1
    return max(exp[k] for _, exp in f.terms)


def _univar_coeffs(f: Polynomial, k: int) -> dict[int, Polynomial]:
    """View f as univariate in variable k with polynomial coefficients."""
    out: dict[int, dict] = {}
    for (pos, exp), c in f.terms.items():
        d = exp[k]
        e0 = tuple(0 if i == k else e for i, e in enumerate(exp))
        out.setdefault(d, {})[(pos, e0)] = c
    return {d: Polynomial(f.ring, terms) for d, terms in out.items()}


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises when the division leaves a remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    gkey, gc = lead_by_key(g, _DEGLEX_KEY)
    tail = [kc for kc in g.terms.items() if kc[0] != gkey]
    q = {}
    r = dict(f.terms)
    while r:
        rkey = max(r, key=_DEGLEX_KEY)
        rc = r.pop(rkey)
        diff = exp_sub(rkey[1], gkey[1])
        if any(e < 0 for e in diff):
            raise ZeroPolynomialError("division is not exact")
        coeff = rc / gc
        q[(rkey[0], diff)] = coeff
        add_shifted(r, tail, diff, -coeff)
    return Polynomial._of(f.ring, q)


def _gcd_univar(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """Euclid for polynomials whose only occurring variable is k."""
    a = {exp[k]: c for (_, exp), c in f.terms.items()}
    b = {exp[k]: c for (_, exp), c in g.terms.items()}
    while b:
        db = max(b)
        lb = b[db]
        while a and max(a) >= db:
            da = max(a)
            factor = a[da] / lb
            for i, c in b.items():
                j = i + da - db
                s = a.get(j, Fraction(0)) - factor * c
                if s:
                    a[j] = s
                elif j in a:
                    del a[j]
        a, b = b, a
    ring = f.ring
    lead = a[max(a)]
    return Polynomial(ring, {(1, ring.var_exp(k, d)): c / lead for d, c in a.items()})


def _content_and_primitive(f: Polynomial, k: int) -> tuple[Polynomial, Polynomial]:
    coeffs = list(_univar_coeffs(f, k).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)
        if content.total_degree() == 0:
            break
    content = monic_by_key(content, _DEGLEX_KEY)
    return content, divexact(f, content)


def _pseudo_rem(f: Polynomial, g: Polynomial, k: int) -> Polynomial:
    """Pseudo-remainder in variable k, reduced in one dict.

    While r has degree d >= n = deg_k g, r becomes lc(g) r - lc(r) x_k^(d-n) g,
    the leading coefficients taken in x_k.
    """
    n = _deg_in(g, k)
    lc_g = _univar_coeffs(g, k)[n].terms.items()
    g_items = g.terms.items()
    down = f.ring.var_exp(k, n)
    r = dict(f.terms)
    while r:
        d = max(exp[k] for _, exp in r)
        if d < n:
            break
        nxt: dict = {}
        for (_, exp), c in lc_g:
            add_shifted(nxt, r.items(), exp, c)
        for (_, exp), c in r.items():
            if exp[k] == d:  # a term c x^exp of lc(r) x_k^d: shift g by x^exp / x_k^n
                add_shifted(nxt, g_items, exp_sub(exp, down), -c)
        r = nxt
    return Polynomial._of(f.ring, r)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic (DegLex) greatest common divisor of two rank-1 polynomials."""
    if f.ring.rank != 1 or g.ring.rank != 1:
        raise RingMismatchError("gcd is defined for rank-1 polynomials")
    if f.ring != g.ring:
        raise RingMismatchError("gcd operands live over different rings")
    if f.is_zero():
        return monic_by_key(g, _DEGLEX_KEY)
    if g.is_zero():
        return monic_by_key(f, _DEGLEX_KEY)
    used = _occurring_vars(f) | _occurring_vars(g)
    if not used:
        return Polynomial.constant(f.ring, 1)
    k = max(used)
    if used == {k}:
        return _gcd_univar(f, g, k)
    if _deg_in(f, k) == 0:
        cg, _ = _content_and_primitive(g, k)
        return poly_gcd(f, cg)
    if _deg_in(g, k) == 0:
        cf, _ = _content_and_primitive(f, k)
        return poly_gcd(cf, g)
    cf, pf = _content_and_primitive(f, k)
    cg, pg = _content_and_primitive(g, k)
    c = poly_gcd(cf, cg)
    while not pg.is_zero():
        r = _pseudo_rem(pf, pg, k)
        if r.is_zero():
            pf = pg
            break
        _, rp = _content_and_primitive(r, k)
        pf, pg = pg, rp
    return monic_by_key(poly_mul(c, pf), _DEGLEX_KEY)


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.ring)
    return monic_by_key(divexact(poly_mul(f, g), poly_gcd(f, g)), _DEGLEX_KEY)


class RationalFunction(Frozen):
    """Quotient of parameter-block polynomials in canonical reduced form.

    The trusted _of(num, den) needs num and den already coprime with den
    monic under DegLex (den 1 when num is zero), as every value stores them.
    """

    __slots__ = ("num", "den", "_hash")  # _hash stays unset until __hash__ first runs
    _fields = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        ring = num.ring
        if den is None:
            den = Polynomial.constant(ring, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.ring != den.ring or ring.rank != 1:
            raise RingMismatchError("numerator and denominator must share a rank-1 ring")
        if num.is_zero():
            den = Polynomial.constant(ring, 1)
        else:
            g = poly_gcd(num, den)
            if g.total_degree() > 0:
                num = divexact(num, g)
                den = divexact(den, g)
            _, lc = lead_by_key(den, _DEGLEX_KEY)
            if lc != 1:
                inv = Fraction(1) / lc
                num = num.scale(inv)
                den = den.scale(inv)
        self._assign(num, den)

    @classmethod
    def from_fraction(cls, q, ring: RingDescriptor) -> "RationalFunction":
        if ring.rank != 1:
            raise RingMismatchError("numerator and denominator must share a rank-1 ring")
        return cls._of(Polynomial.constant(ring, Fraction(q)), Polynomial.constant(ring, 1))

    @property
    def ring(self) -> RingDescriptor:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.constant(self.ring, 1)

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ZeroPolynomialError("rational function has a nontrivial denominator")
        return self.num

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other, self.ring)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            poly_mul(self.num, other.den) + poly_mul(other.num, self.den),
            poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._of(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(poly_mul(self.num, other.den), poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other, self.ring)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._set("_hash", hash((self.num, self.den)))
            return self._hash

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"
