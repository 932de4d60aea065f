"""Term orderings on exponent vectors and on free-module terms.

compare() returns a negative/zero/positive int.  Product orders split the
exponent at the ring's x_count and compare the blocks with their inner
orders; module orders wrap a base order with a term-over-position or
position-over-term precedence, lower positions winning ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ZeroPolynomialError
from .ring import Exponent, RingDescriptor, TermKey, exp_deg


def _lex(a: Exponent, b: Exponent) -> int:
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


@dataclass(frozen=True)
class Lex:
    name = "lex"

    def compare(self, a: Exponent, b: Exponent, ring: RingDescriptor | None = None) -> int:
        return _lex(a, b)


@dataclass(frozen=True)
class DegLex:
    name = "deglex"

    def compare(self, a: Exponent, b: Exponent, ring: RingDescriptor | None = None) -> int:
        da, db = exp_deg(a), exp_deg(b)
        if da != db:
            return 1 if da > db else -1
        return _lex(a, b)


@dataclass(frozen=True)
class DegRevLex:
    name = "degrevlex"

    def compare(self, a: Exponent, b: Exponent, ring: RingDescriptor | None = None) -> int:
        da, db = exp_deg(a), exp_deg(b)
        if da != db:
            return 1 if da > db else -1
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return 1 if x < y else -1
        return 0


@dataclass(frozen=True)
class ProductOrder:
    """Compare x-blocks first, break ties with the parameter block."""

    x_order: "TermOrder"
    t_order: "TermOrder"
    name = "product"

    def __post_init__(self):
        if isinstance(self.x_order, ProductOrder) or isinstance(self.t_order, ProductOrder):
            raise ValueError("nested product orders are not supported")

    def compare(self, a: Exponent, b: Exponent, ring: RingDescriptor | None = None) -> int:
        if ring is None or ring.t_count == 0:
            raise ValueError("product order needs a ring with a parameter block")
        n = ring.x_count
        c = self.x_order.compare(a[:n], b[:n])
        if c:
            return c
        return self.t_order.compare(a[n:], b[n:])


TermOrder = Union[Lex, DegLex, DegRevLex, ProductOrder]

TOP = "top"  # term over position
POT = "pot"  # position over term


@dataclass(frozen=True)
class ModuleOrder:
    base: TermOrder
    precedence: str = TOP

    def __post_init__(self):
        if self.precedence not in (TOP, POT):
            raise ValueError(f"unknown precedence {self.precedence!r}")

    @property
    def name(self) -> str:
        return f"{self.base.name}-{self.precedence}"

    def compare(self, a: TermKey, b: TermKey, ring: RingDescriptor | None = None) -> int:
        (pa, ea), (pb, eb) = a, b
        if self.precedence == POT:
            if pa != pb:
                return 1 if pa < pb else -1  # lower position wins
            return self.base.compare(ea, eb, ring)
        c = self.base.compare(ea, eb, ring)
        if c:
            return c
        if pa != pb:
            return 1 if pa < pb else -1
        return 0


AnyOrder = Union[TermOrder, ModuleOrder]


def as_module_order(order: AnyOrder) -> ModuleOrder:
    if isinstance(order, ModuleOrder):
        return order
    return ModuleOrder(order, TOP)


def base_order(order: AnyOrder) -> TermOrder:
    return order.base if isinstance(order, ModuleOrder) else order


def term_compare(order: AnyOrder, a: TermKey, b: TermKey, ring: RingDescriptor) -> int:
    return as_module_order(order).compare(a, b, ring)


def leading_term(f, order: AnyOrder) -> tuple[TermKey, object]:
    """Largest (key, coeff) of f under the order."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    mo = as_module_order(order)
    best = None
    for key in f.terms:
        if best is None or mo.compare(key, best, f.ring) > 0:
            best = key
    return best, f.terms[best]


def smallest_term(f, order: AnyOrder) -> tuple[TermKey, object]:
    """Smallest (key, coeff) of f under the order, sign included."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no smallest term")
    mo = as_module_order(order)
    worst = None
    for key in f.terms:
        if worst is None or mo.compare(key, worst, f.ring) < 0:
            worst = key
    return worst, f.terms[worst]


def sorted_terms_desc(f, order: AnyOrder) -> list[tuple[TermKey, object]]:
    import functools

    mo = as_module_order(order)
    keys = sorted(
        f.terms,
        key=functools.cmp_to_key(lambda a, b: mo.compare(a, b, f.ring)),
        reverse=True,
    )
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


def is_product_compatible(order: AnyOrder, ring: RingDescriptor) -> bool:
    """True when leading terms survive extension over the parameter block.

    Product orders do by construction.  Lex is literally the product of Lex on
    the x-block with Lex on the t-block, so it qualifies as well.
    """
    if ring.t_count == 0:
        return True
    return isinstance(base_order(order), (ProductOrder, Lex))


def sigma_x_order(order: AnyOrder, ring: RingDescriptor) -> TermOrder:
    """The order induced on the x-block after extending over the parameters."""
    b = base_order(order)
    if isinstance(b, ProductOrder):
        return b.x_order
    return b
