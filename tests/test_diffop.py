"""Differential operators: lowering, raising, evaluation, spans, closure."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from noeth import (
    DiffOp,
    Lex,
    Polynomial,
    RationalFunction,
    RingDescriptor,
    apply_at,
    canonical_operator_basis,
    closure,
    dual_of_polynomial,
    is_closed,
    noetherian_positive,
    span_equal_operators,
)
from noeth.diffop import Echelon, alpha_factorial
from noeth.errors import NotClosedError, RingMismatchError
from noeth.linalg import rref
from noeth.ring import reading_key
from support import RXY, RXYZ, random_fraction, random_polynomial


def op(terms, ring=RXY, center=None):
    return DiffOp(ring, {(1, a): Fraction(c) for a, c in terms.items()}, center)


def random_operator(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(ring.x_count))
        c = random_fraction(rng)
        if c:
            terms[(1, alpha)] = c
    return DiffOp(ring, terms)


def test_constructor_filters_and_validates():
    L = op({(1, 0): 0, (0, 1): 2})
    assert L.terms == {(1, (0, 1)): Fraction(2)}
    assert DiffOp(RXY, {}).is_zero()
    with pytest.raises(RingMismatchError):
        DiffOp(RXY, {(2, (0, 0)): 1})
    with pytest.raises(RingMismatchError):
        DiffOp(RXY, {(1, (0, 0, 0)): 1})
    with pytest.raises(RingMismatchError):
        DiffOp(RXY, {(1, (0, 0)): 1}, center=(1,))
    with pytest.raises(AttributeError):
        L.terms = {}


def test_alpha_factorial():
    assert alpha_factorial((0,)) == 1
    assert alpha_factorial((2, 1, 3)) == 12


def test_sigma_goldens():
    L = op({(1, 1): 1, (3, 0): 1})
    assert L.sigma(0) == op({(0, 1): 1, (2, 0): 1})
    for k in range(3):
        assert op({(0, k): 1}).sigma(0).is_zero()
    assert op({(1, 1): 1}).sigma(0).sigma(1) == op({(0, 0): 1})


def test_rho_goldens():
    assert op({(0, 1): 1, (2, 0): 1}).rho(0) == op({(1, 1): 1, (3, 0): 1})
    assert op({(0, 0): 1}).rho(1) == op({(0, 1): 1})


def test_sigma_rho_inverse_relations():
    rng = random.Random(211)
    for _ in range(40):
        L = random_operator(rng, RXYZ)
        j = rng.randrange(3)
        assert L.rho(j).sigma(j) == L
        if all(alpha[j] > 0 for (_, alpha) in L.terms):
            assert L.sigma(j).rho(j) == L


def test_sigma_is_adjoint_to_multiplication():
    rng = random.Random(223)
    for _ in range(40):
        L = random_operator(rng, RXY)
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        j = rng.randrange(2)
        xj = Polynomial.variable(RXY, j)
        assert apply_at(L.sigma(j), f) == apply_at(L, xj * f)


def apply_oracle(L, f):
    """Differentiate term against term and evaluate at the center."""
    total = Fraction(0)
    for (pos, alpha), c in L.terms.items():
        for (p2, beta), b in f.terms.items():
            if p2 != pos or any(be < al for al, be in zip(alpha, beta)):
                continue
            factor = Fraction(1)
            value = Fraction(1)
            for al, be, point in zip(alpha, beta, L.center):
                factor *= Fraction(math.factorial(be), math.factorial(al) * math.factorial(be - al))
                value *= point ** (be - al)
            total += c * b * factor * value
    return total


def test_apply_at_goldens():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    f = x**2 - y
    assert apply_at(op({(1, 0): 1}), f) == 0
    assert apply_at(op({(0, 1): 1, (2, 0): 1}), f) == 0
    assert apply_at(op({(0, 0): 1}), f) == 0
    g = x**2 + 3 * y - 1
    assert apply_at(op({(0, 0): 1}, center=(2, 1)), g) == g.evaluate((2, 1))


def test_apply_at_matches_term_by_term_differentiation():
    rng = random.Random(227)
    for _ in range(40):
        center = (random_fraction(rng), random_fraction(rng))
        L = DiffOp(RXY, random_operator(rng, RXY).terms, center)
        f = random_polynomial(rng, RXY, max_terms=6, max_deg=4)
        assert apply_at(L, f) == apply_oracle(L, f)


def test_dual_of_polynomial():
    x = Polynomial.variable(RXYZ, "x")
    y = Polynomial.variable(RXYZ, "y")
    z = Polynomial.variable(RXYZ, "z")
    corner = dual_of_polynomial(x**3 * y + x * y**3 + x * y * z)
    assert corner == DiffOp(
        RXYZ, {(1, (3, 1, 0)): 1, (1, (1, 3, 0)): 1, (1, (1, 1, 1)): 1}
    )
    assert dual_of_polynomial(Polynomial.constant(RXYZ, 1)) == DiffOp.identity(RXYZ)
    x2 = Polynomial.variable(RXY, "x")
    assert dual_of_polynomial(x2**2) == op({(2, 0): 1})
    # duality: the dual of g detects exactly g's coefficients
    rng = random.Random(229)
    for _ in range(20):
        g = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        if g.is_zero():
            continue
        L = dual_of_polynomial(g)
        for (pos, exp), c in g.terms.items():
            mono = Polynomial.monomial(RXY, exp, position=pos)
            assert apply_at(L, mono) == c


def test_span_equal_operators():
    one = op({(0, 0): 1})
    dx = op({(1, 0): 1})
    dy = op({(0, 1): 1})
    assert span_equal_operators([one, dx], [one + dx, dx])
    assert not span_equal_operators([one, dx], [one, dy])
    assert span_equal_operators([], [DiffOp(RXY, {})])


def test_is_closed_goldens():
    one = op({(0, 0): 1})
    dx = op({(1, 0): 1})
    dxdy = op({(1, 1): 1})
    assert is_closed([one])
    assert is_closed([one, dx])
    assert not is_closed([dx])
    assert not is_closed([dx + dxdy])
    assert is_closed([])


def test_is_closed_with_precomputed_echelon():
    rng = random.Random(337)
    for _ in range(30):
        ops = closure([random_operator(rng, RXY)])
        trimmed = ops[1:] if rng.random() < 0.5 else ops
        # dropping the order-zero row of a closed span leaves its lowering images outside
        expect = len(trimmed) == len(ops) or not trimmed
        assert is_closed(trimmed, echelon=Echelon(trimmed)) is expect
        assert is_closed(trimmed) is expect


def dense_echelon(ops, key=reading_key):
    """Reference RREF: dense rows over the sorted columns, reduced by linalg.rref."""
    columns = sorted({k for L in ops for k in L.terms}, key=key)
    zero = next((c - c for L in ops for c in L.terms.values()), Fraction(0))
    reduced, pivots = rref([[L.terms.get(k, zero) for k in columns] for L in ops])
    rows = [[(k, v) for k, v in zip(columns, row) if v] for row in reduced]
    return rows, [columns[p] for p in pivots]


def check_against_dense(ops, ring, key=reading_key):
    span = Echelon(ops, key=key)
    rows, pivots = dense_echelon(ops, key)
    assert [list(L.terms.items()) for L in span.operators(ring)] == rows
    assert span.pivots() == pivots
    return span


def combinations(rng, ops, scalars, count):
    """Random combinations of ops with coefficients drawn from scalars()."""
    out = []
    for _ in range(count):
        L = ops[0].scale(scalars())
        for M in rng.sample(ops, rng.randint(1, len(ops))):
            L = L + M.scale(scalars())
        out.append(L)
    return out


def test_echelon_matches_dense_rref_over_fractions():
    rng = random.Random(349)
    for _ in range(40):
        ring = rng.choice([RXY, RXYZ])
        ops = [random_operator(rng, ring) for _ in range(rng.randint(1, 6))]
        ops += combinations(rng, ops, lambda: random_fraction(rng), rng.randint(0, 3))
        rng.shuffle(ops)
        span = check_against_dense(ops, ring)
        for L in combinations(rng, ops, lambda: random_fraction(rng), 3):
            assert span.reduce(L.terms) == {}
            assert not span.add(L.terms)
        outside = random_operator(rng, ring, max_deg=5)
        grows = len(dense_echelon(ops + [outside])[0]) > len(span)
        assert bool(span.reduce(outside.terms)) is grows
        assert span.add(outside.terms) is grows
        check_against_dense(ops + [outside], ring)
        assert span == Echelon(ops + [outside])


def test_echelon_matches_dense_rref_with_pivot_keys():
    rng = random.Random(353)
    for _ in range(30):
        ops = closure([random_operator(rng, RXY, max_terms=3, max_deg=2)])
        if not ops:
            continue
        mixed = combinations(rng, list(ops), lambda: random_fraction(rng), len(ops))
        keys = sorted({k for L in ops for k in L.terms}, key=reading_key)
        front = rng.sample(keys, rng.randint(1, len(keys)))
        rank = {k: i for i, k in enumerate(front)}

        def key(k):
            return (0, rank[k]) if k in rank else (1, reading_key(k))

        check_against_dense(mixed, RXY, key)
        rows, pivots = dense_echelon(mixed, key)
        if pivots == front:
            got = canonical_operator_basis(mixed, pivot_keys=front)
            assert [list(L.terms.items()) for L in got] == rows
        else:
            with pytest.raises(NotClosedError):
                canonical_operator_basis(mixed, pivot_keys=front)


def test_echelon_matches_dense_rref_over_rational_functions():
    ring = RingDescriptor(("x", "y", "t"), 2, 1)
    x, y, t = (Polynomial.variable(ring, i) for i in range(3))
    rng = random.Random(359)

    def scalar():
        # coefficients live in the parameter block's own ring
        cring = RingDescriptor(("t",), 1)
        u = Polynomial.variable(cring, 0)
        num = Polynomial.constant(cring, random_fraction(rng)) + u.scale(random_fraction(rng))
        den = Polynomial.constant(cring, rng.randint(1, 3)) + u.scale(rng.randint(0, 2))
        return RationalFunction(num, den)

    for gens in ([x**3, y - x * t], [x**2, y**3, x * y * t - y**2]):
        cleaned = list(noetherian_positive(gens, Lex()).operators)
        for _ in range(3):
            ops = combinations(rng, cleaned, scalar, len(cleaned) + 1)
            span = check_against_dense(ops, ring)
            assert all(span.reduce(L.terms) == {} for L in cleaned) is (len(span) == len(cleaned))
        keys = sorted({k for L in cleaned for k in L.terms}, key=reading_key, reverse=True)
        rank = {k: i for i, k in enumerate(keys)}
        check_against_dense(cleaned, ring, lambda k: rank[k])


def test_echelon_reduce_and_add():
    span = Echelon([op({(0, 0): 1, (0, 2): 2}), op({(1, 0): 1, (0, 2): 3})])
    assert span.reduce(op({(0, 0): 2, (1, 0): 1, (0, 2): 7}).terms) == {}
    assert span.reduce(op({(0, 2): 1}).terms) == {(1, (0, 2)): Fraction(1)}
    assert span.reduce(op({(0, 0): 2, (1, 0): 1, (0, 2): 8}).terms) == {(1, (0, 2)): Fraction(1)}
    assert not span.add(op({(0, 0): 2, (1, 0): 1, (0, 2): 7}).terms)
    assert span.add(op({(0, 2): 5}).terms)
    assert span.operators(RXY) == (op({(0, 0): 1}), op({(1, 0): 1}), op({(0, 2): 1}))


def test_closure_goldens():
    dx = op({(1, 0): 1})
    got = closure([dx])
    assert set(got) == {op({(0, 0): 1}), dx}
    grown = closure([dx + op({(1, 1): 1})])
    expect = {op({(0, 0): 1}), dx, op({(0, 1): 1}), op({(1, 1): 1})}
    assert set(grown) == expect


def test_closure_properties_randomized():
    rng = random.Random(233)
    for _ in range(15):
        ops = [random_operator(rng, RXY, max_terms=3, max_deg=2) for _ in range(2)]
        grown = closure(ops)
        assert is_closed(grown)
        assert span_equal_operators(list(grown) + list(ops), list(grown))
        assert closure(grown) == grown


def test_canonical_basis_is_presentation_independent():
    rng = random.Random(239)
    for _ in range(15):
        ops = closure([random_operator(rng, RXY, max_terms=3, max_deg=2)])
        if not ops:
            continue
        mixed = [sum((L.scale(random_fraction(rng)) for L in ops), DiffOp(RXY, {})) for _ in ops]
        mixed += [L for L in ops]
        rng.shuffle(mixed)
        assert canonical_operator_basis(mixed) == canonical_operator_basis(ops)


def test_canonical_basis_pivot_keys():
    one = op({(0, 0): 1})
    dx = op({(1, 0): 1})
    keys = [(1, (0, 0)), (1, (1, 0))]
    got = canonical_operator_basis([one + dx, dx], pivot_keys=keys)
    assert got == (one, dx)
    with pytest.raises(NotClosedError):
        canonical_operator_basis([dx], pivot_keys=[(1, (0, 1))])
