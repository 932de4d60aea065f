"""Term orderings on exponent vectors and on free-module terms.

Each order ranks terms through one method, key(ring), which returns a
one-argument sort key: a term ranks higher exactly when its key is larger, so
callers use max, min and sorted directly.  Product orders split the exponent
at the ring's x_count and rank the x-block first, the parameter block second;
module orders wrap a base order with a term-over-position or
position-over-term precedence, lower positions winning ties.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import accumulate

from .errors import ZeroPolynomialError
from .ring import Record, RingDescriptor, TermKey

SortKey = Callable[[tuple], tuple]


class Lex(Record):
    __slots__ = _key = ()
    name = "lex"

    def key(self, ring: RingDescriptor) -> SortKey:
        return tuple  # the exponent itself


class DegLex(Record):
    __slots__ = _key = ()
    name = "deglex"

    def key(self, ring: RingDescriptor) -> SortKey:
        return lambda a: (sum(a), a)


class DegRevLex(Record):
    __slots__ = _key = ()
    name = "degrevlex"

    def key(self, ring: RingDescriptor) -> SortKey:
        # Reversed prefix sums: the total degree first, then at equal degree a
        # smaller last exponent leaves a larger sum of the others.
        return lambda a: tuple(accumulate(a))[::-1]


class ProductOrder(Record):
    """Rank the x-blocks first, break ties with the parameter block."""

    __slots__ = _fields = ("x_order", "t_order")

    def __init__(self, x_order: TermOrder, t_order: TermOrder):
        if isinstance(x_order, ProductOrder) or isinstance(t_order, ProductOrder):
            raise ValueError("nested product orders are not supported")
        self._assign(x_order, t_order)

    @property
    def name(self) -> str:
        return f"product({self.x_order.name},{self.t_order.name})"

    def key(self, ring: RingDescriptor) -> SortKey:
        if ring.t_count == 0:
            raise ValueError("product order needs a ring with a parameter block")
        n = ring.x_count
        kx, kt = self.x_order.key(ring), self.t_order.key(ring)
        return lambda a: (kx(a[:n]), kt(a[n:]))


TermOrder = Lex | DegLex | DegRevLex | ProductOrder

TOP = "top"  # term over position
POT = "pot"  # position over term


class ModuleOrder(Record):
    __slots__ = _fields = ("base", "precedence")

    def __init__(self, base: TermOrder, precedence: str = TOP):
        if precedence not in (TOP, POT):
            raise ValueError(f"unknown precedence {precedence!r}")
        self._assign(base, precedence)

    @property
    def name(self) -> str:
        return f"{self.base.name}-{self.precedence}"

    def key(self, ring: RingDescriptor) -> SortKey:
        k = self.base.key(ring)
        if self.precedence == POT:
            return lambda t: (-t[0], k(t[1]))  # lower position wins
        return lambda t: (k(t[1]), -t[0])


AnyOrder = TermOrder | ModuleOrder
_TOP_ORDERS: dict = {}  # one shared term-over-position ModuleOrder per plain term order


def as_module_order(order: AnyOrder) -> ModuleOrder:
    if isinstance(order, ModuleOrder):
        return order
    return _TOP_ORDERS.get(order) or _TOP_ORDERS.setdefault(order, ModuleOrder(order, TOP))


def base_order(order: AnyOrder) -> TermOrder:
    return order.base if isinstance(order, ModuleOrder) else order


def leading_term(f, order: AnyOrder) -> tuple[TermKey, object]:
    """Largest (key, coeff) of f under the order."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    return lead_by_key(f, as_module_order(order).key(f.ring))


def lead_by_key(f, term_key: SortKey) -> tuple[TermKey, object]:
    """Largest (key, coeff) of a nonzero f under a sort key bound to its ring.

    Loops that rank many elements of one ring bind the key once and call this
    instead of leading_term.
    """
    best = max(f.terms, key=term_key)
    return best, f.terms[best]


def monic_by_key(f, term_key: SortKey):
    """f scaled to leading coefficient one under a sort key bound to its ring; zero stays zero."""
    if f.is_zero():
        return f
    _, lc = lead_by_key(f, term_key)
    one = lc / lc
    return f if lc == one else f.scale(one / lc)


def sorted_terms_desc(f, order: AnyOrder) -> list[tuple[TermKey, object]]:
    keys = sorted(f.terms, key=as_module_order(order).key(f.ring), reverse=True)
    return [(k, f.terms[k]) for k in keys]


def is_elimination_for(order: AnyOrder, ring: RingDescriptor) -> bool:
    """True when a leading term free of x-variables forces the whole element to be.

    Product orders qualify by construction; Lex qualifies because the x-block
    is an initial segment of the variable list.  Degree-compatible orders mix
    the blocks, so they qualify only when there is nothing to eliminate.
    """
    order = base_order(order)
    if ring.t_count == 0:
        return True
    return isinstance(order, (ProductOrder, Lex))


def sigma_x_order(order: AnyOrder, ring: RingDescriptor) -> TermOrder:
    """The order induced on the x-block after extending over the parameters."""
    b = base_order(order)
    if isinstance(b, ProductOrder):
        return b.x_order
    return b
