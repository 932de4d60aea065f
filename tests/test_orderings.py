"""Term orders, module orders, and leading/smallest term selection."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from noeth import DegLex, DegRevLex, Lex, ModuleOrder, Polynomial, ProductOrder
from noeth.errors import ZeroPolynomialError
from noeth.orderings import (
    POT,
    TOP,
    as_module_order,
    base_order,
    is_elimination_for,
    is_product_compatible,
    leading_term,
    sigma_x_order,
    sorted_terms_desc,
)
from support import RM2, RXY, RXYT, RXYZ, random_exponent, random_polynomial

SCALAR_ORDERS = [Lex(), DegLex(), DegRevLex()]


def _lex(a, b) -> int:
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def reference_compare(order, a, b, ring) -> int:
    """Three-way comparison written out from the textbook definitions.

    Positive when a ranks higher than b.  The orders' sort keys must agree
    with it on every pair of terms.
    """
    if isinstance(order, ModuleOrder):
        (pa, ea), (pb, eb) = a, b
        by_position = (pa < pb) - (pa > pb)  # lower position wins
        by_term = reference_compare(order.base, ea, eb, ring)
        if order.precedence == POT:
            return by_position or by_term
        return by_term or by_position
    if isinstance(order, ProductOrder):
        n = ring.x_count
        return reference_compare(order.x_order, a[:n], b[:n], ring) or reference_compare(
            order.t_order, a[n:], b[n:], ring
        )
    if isinstance(order, Lex):
        return _lex(a, b)
    by_degree = (sum(a) > sum(b)) - (sum(a) < sum(b))
    if by_degree or isinstance(order, DegLex):
        return by_degree or _lex(a, b)
    # degrevlex at equal degree: the smaller last differing exponent wins
    return _lex(b[::-1], a[::-1])


def key_compare(order, a, b, ring=RXYZ) -> int:
    """Sign of key(a) - key(b) under the order's sort key."""
    key = order.key(ring)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def test_classic_distinguishing_goldens():
    # lex ranks by the first differing variable, degree orders rank by degree
    assert key_compare(Lex(), (1, 0), (0, 2), RXY) > 0
    assert key_compare(DegLex(), (1, 0), (0, 2), RXY) < 0
    # x1*x3 vs x2^2: deglex prefers the earlier variable, degrevlex penalizes
    # the later one
    assert key_compare(DegLex(), (1, 0, 1), (0, 2, 0)) > 0
    assert key_compare(DegRevLex(), (1, 0, 1), (0, 2, 0)) < 0


def test_total_order_axioms_randomized():
    rng = random.Random(41)
    for order in SCALAR_ORDERS:
        for _ in range(150):
            a = random_exponent(rng, 3, 5)
            b = random_exponent(rng, 3, 5)
            c = random_exponent(rng, 3, 5)
            assert key_compare(order, a, a) == 0
            assert key_compare(order, a, b) == -key_compare(order, b, a)
            if a != b:
                assert key_compare(order, a, b) != 0
            if key_compare(order, a, b) > 0 and key_compare(order, b, c) > 0:
                assert key_compare(order, a, c) > 0


def test_multiplicativity_and_global_minimum():
    rng = random.Random(43)
    for order in SCALAR_ORDERS:
        for _ in range(150):
            a = random_exponent(rng, 3, 5)
            b = random_exponent(rng, 3, 5)
            t = random_exponent(rng, 3, 3)
            shifted = key_compare(order, tuple(x + s for x, s in zip(a, t)),
                                  tuple(y + s for y, s in zip(b, t)))
            assert shifted == key_compare(order, a, b)
            if a != (0, 0, 0):
                assert key_compare(order, a, (0, 0, 0)) > 0


def test_product_order_blocks():
    order = ProductOrder(DegLex(), Lex())
    assert order.name == "product(deglex,lex)"
    # any x-power beats any pure parameter power
    assert key_compare(order, (1, 0, 0), (0, 0, 9), RXYT) > 0
    # equal x-parts fall through to the parameter block
    assert key_compare(order, (1, 0, 2), (1, 0, 1), RXYT) > 0
    with pytest.raises(ValueError):
        order.key(RXY)
    with pytest.raises(ValueError):
        ProductOrder(ProductOrder(Lex(), Lex()), Lex())


def test_product_order_projects_to_inner_x():
    rng = random.Random(47)
    order = ProductOrder(DegLex(), DegRevLex())
    for _ in range(200):
        a = random_exponent(rng, 3, 4)
        b = random_exponent(rng, 3, 4)
        if a[:2] != b[:2]:
            assert key_compare(order, a, b, RXYT) == key_compare(DegLex(), a[:2], b[:2], RXY)


def test_module_order_top_and_pot():
    top = ModuleOrder(Lex(), TOP)
    pot = ModuleOrder(Lex(), POT)
    a = (2, (1, 0))  # x at position 2
    b = (1, (0, 1))  # y at position 1
    assert key_compare(top, a, b, RM2) > 0  # term wins: x > y
    assert key_compare(pot, a, b, RM2) < 0  # position wins: 1 < 2
    # same power product: lower position wins under both
    assert key_compare(top, (1, (1, 0)), (2, (1, 0)), RM2) > 0
    assert key_compare(pot, (1, (1, 0)), (2, (1, 0)), RM2) > 0
    with pytest.raises(ValueError):
        ModuleOrder(Lex(), "left")


def test_as_module_order_and_base():
    mo = as_module_order(DegLex())
    assert mo.precedence == TOP and mo.base == DegLex()
    assert as_module_order(mo) is mo
    assert base_order(mo) == DegLex()
    assert base_order(Lex()) == Lex()
    assert mo.name == "deglex-top"
    assert key_compare(mo, (1, (1, 0)), (1, (0, 1)), RXY) > 0


def test_keys_sort_like_the_reference_comparison():
    rng = random.Random(59)
    # exponents of degree <= 3 in three variables: many terms share a degree
    cases = [
        (Lex(), RXYZ),
        (DegLex(), RXYZ),
        (DegRevLex(), RXYZ),
        (ProductOrder(DegLex(), Lex()), RXYT),
        (ProductOrder(DegRevLex(), DegLex()), RXYT),
    ]
    for order, ring in cases:
        for _ in range(20):
            exps = [random_exponent(rng, ring.nvars, 3) for _ in range(40)]
            by_reference = cmp_to_key(lambda a, b: reference_compare(order, a, b, ring))
            assert sorted(exps, key=order.key(ring)) == sorted(exps, key=by_reference)
    for order in (ModuleOrder(DegRevLex(), TOP), ModuleOrder(DegLex(), POT)):
        for _ in range(20):
            terms = [(rng.randint(1, 2), random_exponent(rng, 2, 3)) for _ in range(40)]
            by_reference = cmp_to_key(lambda a, b: reference_compare(order, a, b, RM2))
            assert sorted(terms, key=order.key(RM2)) == sorted(terms, key=by_reference)


def test_leading_and_smallest_by_exhaustive_scan():
    rng = random.Random(53)
    for order in SCALAR_ORDERS:
        mo = as_module_order(order)
        for _ in range(80):
            f = random_polynomial(rng, RXYZ, max_terms=6, max_deg=4)
            if f.is_zero():
                continue
            keys = list(f.terms)
            best = keys[0]
            worst = keys[0]
            for k in keys[1:]:
                if reference_compare(mo, k, best, RXYZ) > 0:
                    best = k
                if reference_compare(mo, k, worst, RXYZ) < 0:
                    worst = k
            assert leading_term(f, order) == (best, f.terms[best])
            ordered = [k for k, _ in sorted_terms_desc(f, order)]
            assert ordered[0] == best and ordered[-1] == worst


def test_zero_polynomial_has_no_extreme_terms():
    zero = Polynomial.zero(RXY)
    with pytest.raises(ZeroPolynomialError):
        leading_term(zero, Lex())


def test_elimination_and_product_compatibility():
    assert is_elimination_for(Lex(), RXYT)
    assert is_elimination_for(ProductOrder(DegLex(), Lex()), RXYT)
    assert not is_elimination_for(DegLex(), RXYT)
    assert is_elimination_for(DegLex(), RXY)  # nothing to eliminate
    assert is_product_compatible(Lex(), RXYT)
    assert not is_product_compatible(DegRevLex(), RXYT)
    assert sigma_x_order(ProductOrder(DegRevLex(), Lex()), RXYT) == DegRevLex()
    assert sigma_x_order(Lex(), RXYT) == Lex()
