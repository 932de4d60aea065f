"""Differential operators: lowering, raising, evaluation, spans, closure."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    DiffOp,
    Lex,
    Polynomial,
    RingDescriptor,
    apply_at,
    buchberger,
    closure,
    dual_of_polynomial,
    ideal_from_conditions,
    is_closed,
    noetherian_positive,
)
from noeth.diffop import Echelon, alpha_factorial, canonical_operator_basis, span_equal_operators
from noeth.errors import NotClosedError, NotPrimaryError, RingMismatchError
from noeth.linalg import rref
from noeth.ring import reading_key
from support import RM2, RX, RXY, RXYZ, fraction_rank, random_fraction, random_polynomial, reference_closure


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
    with pytest.raises(RingMismatchError, match=r"bad exponent \(-1, 0\)"):
        DiffOp(RXY, {(1, (-1, 0)): 1})
    with pytest.raises(RingMismatchError):
        DiffOp(RXY, {(1, (0, 0)): 1}, center=(1,))
    with pytest.raises(RingMismatchError, match="0.5"):
        DiffOp(RXY, {(1, (0, 0)): 1}, center=(0.5, 0))
    with pytest.raises(RingMismatchError, match="1.5"):
        DiffOp(RXY, {(1, (0, 0)): 1.5})
    with pytest.raises(AttributeError):
        L.terms = {}


def test_operator_arithmetic_holds_no_zero_coefficient():
    rng = random.Random(43)
    center = (Fraction(1), Fraction(-1, 2))
    for _ in range(40):
        L = DiffOp(RXY, random_operator(rng, RXY).terms, center)
        M = DiffOp(RXY, random_operator(rng, RXY).terms, center) - L  # L + M cancels L
        results = [L + M, M + L, L - L, L - (L + M), -L, L.scale(0), L.scale(random_fraction(rng))]
        results += [L.sigma(j) for j in range(2)] + [L.rho(j) for j in range(2)]
        for R in results:
            assert all(R.terms.values())
            assert R == DiffOp(R.ring, R.terms, R.center)
            assert R.center == L.center


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


def test_is_closed_on_trimmed_closures():
    rng = random.Random(337)
    for _ in range(30):
        ops = closure([random_operator(rng, RXY)])
        trimmed = ops[1:] if rng.random() < 0.5 else ops
        # dropping the order-zero row of a closed span leaves its lowering images outside
        expect = len(trimmed) == len(ops) or not trimmed
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


def big_fraction(rng):
    """A small fraction, or one whose denominator exceeds 2^64."""
    if rng.random() < 0.5:
        return random_fraction(rng)
    return Fraction(rng.randint(-(2**70), 2**70), rng.randint(2**64, 2**72))


def test_integer_echelon_matches_dense_rref_on_big_fractions():
    rng = random.Random(367)
    for _ in range(30):
        ring = rng.choice([RXY, RXYZ])
        ops = []
        for _ in range(rng.randint(1, 6)):
            L = random_operator(rng, ring, max_terms=5)
            ops.append(DiffOp(ring, {k: c * big_fraction(rng) for k, c in L.terms.items()}))
        ops += combinations(rng, ops, lambda: big_fraction(rng), rng.randint(0, 3))
        rng.shuffle(ops)
        span = check_against_dense(ops, ring)
        for p, row in span.rows.items():
            assert all(type(v) is int for v in row.values())
            assert row[p] > 0 and math.gcd(*row.values()) == 1
        probes = combinations(rng, ops, lambda: big_fraction(rng), 3) + [random_operator(rng, ring, max_deg=5)]
        for L in probes:
            rest = span.reduce(L.terms)
            assert all(type(c) is Fraction for c in rest.values())
            assert not any(p in rest for p in span.pivots())
            # what reduce() took away lies in the span
            assert len(dense_echelon(ops + [L - DiffOp(ring, rest)])[0]) == len(span)
        grows = len(dense_echelon(ops + probes[-1:])[0]) > len(span)
        assert span.add(probes[-1].terms) is grows
        check_against_dense(ops + probes[-1:], ring)
        assert span == Echelon(ops + probes[-1:])


def test_span_functions_refuse_rational_function_coefficients():
    ring = RingDescriptor(("x", "y", "t"), 2, 1)
    x, y, t = (Polynomial.variable(ring, i) for i in range(3))
    rf_ops = noetherian_positive(buchberger([x**3, y - x * t], Lex())).operators
    rf = next(L for L in rf_ops if not all(type(c) is Fraction for c in L.terms.values()))
    rng = random.Random(373)
    fraction_ops = [op({(0, 1): big_fraction(rng), (2, 0): big_fraction(rng)}, ring), op({(1, 0): 3}, ring)]
    span = Echelon(fraction_ops)
    rows = {p: dict(row) for p, row in span.rows.items()}
    for refused in (span.add, span.reduce):
        with pytest.raises(RingMismatchError, match="rational coefficients only"):
            refused(rf.terms)
        # refused before any row changed
        assert span.rows == rows and span == Echelon(fraction_ops)
    calls = (
        closure,
        is_closed,
        canonical_operator_basis,
        lambda ops: span_equal_operators(fraction_ops, ops),
        lambda ops: span_equal_operators(ops, fraction_ops),
    )
    for call in calls:
        with pytest.raises(RingMismatchError, match="rational coefficients only"):
            call(fraction_ops + [rf])


def test_echelon_reduce_and_add():
    span = Echelon([op({(0, 0): 1, (0, 2): 2}), op({(1, 0): 1, (0, 2): 3})])
    assert span.reduce(op({(0, 0): 2, (1, 0): 1, (0, 2): 7}).terms) == {}
    assert span.reduce(op({(0, 2): 1}).terms) == {(1, (0, 2)): Fraction(1)}
    assert span.reduce(op({(0, 0): 2, (1, 0): 1, (0, 2): 8}).terms) == {(1, (0, 2)): Fraction(1)}
    assert not span.add(op({(0, 0): 2, (1, 0): 1, (0, 2): 7}).terms)
    assert span.add(op({(0, 2): 5}).terms)
    assert span.operators(RXY) == (op({(0, 0): 1}), op({(1, 0): 1}), op({(0, 2): 1}))


def dense_is_closed(ops):
    """Reference closure check: no lowered operator raises the rank of ops (support.fraction_rank)."""
    ops = [L for L in ops if L]
    lowered = [L.sigma(j) for L in ops for j in range(L.ring.x_count)]
    columns = sorted({k for L in ops + lowered for k in L.terms}, key=reading_key)
    zero = next((c - c for L in ops for c in L.terms.values()), Fraction(0))

    def rank(vectors):
        return fraction_rank([[L.terms.get(k, zero) for k in columns] for L in vectors])

    full = rank(ops)
    return all(rank(ops + [M]) == full for M in lowered)


def test_is_closed_agrees_with_a_dense_rank_check():
    rng = random.Random(379)
    cases = []
    for _ in range(30):
        ring = rng.choice([RXY, RXYZ])
        ops = list(closure([random_operator(rng, ring, max_terms=3, max_deg=2) for _ in range(rng.randint(1, 2))]))
        kind = rng.randrange(3)
        if kind == 1 and ops:
            del ops[rng.randrange(len(ops))]  # usually leaves a lowering image outside
        elif kind == 2:
            ops.append(random_operator(rng, ring, max_deg=3))
        if ops:
            ops = [L.scale(big_fraction(rng) or 1) for L in ops]
            ops += combinations(rng, ops, lambda: big_fraction(rng), rng.randint(0, 2))  # dependent
        rng.shuffle(ops)
        cases.append(ops)
    outcomes = Counter()
    for ops in cases:
        expect = dense_is_closed(ops)
        outcomes[expect] += 1
        assert is_closed(ops) is expect
    assert outcomes[True] >= 10 and outcomes[False] >= 10


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


def test_closure_matches_the_fraction_queue_on_big_fractions():
    # integer vectors in the queue give the operators the Fraction queue gave,
    # and a bound stops both after the same number of rows
    rng = random.Random(2907)
    for _ in range(30):
        ring = rng.choice([RX, RXY, RXYZ, RM2])
        ops = [random_operator(rng, ring, max_terms=3, max_deg=3) for _ in range(rng.randint(1, 3))]
        ops = [L.scale(big_fraction(rng) or 1) for L in ops]
        ops += combinations(rng, ops, lambda: big_fraction(rng), rng.randint(0, 2))
        expect = reference_closure(ops)
        assert closure(ops) == expect
        mu, key = len(expect), rng.choice([reading_key, lambda k: (sum(k[1]), reading_key(k))])
        assert closure(ops, Echelon(key=key), mu) == reference_closure(ops, Echelon(key=key), mu)
        with pytest.raises(NotPrimaryError, match=f"multiplicity {mu - 1}$"):
            closure(ops, Echelon(key=key), mu - 1)


def test_operators_at_different_centers_are_refused():
    # the span of 1 at the origin and dx at (1, 2) is no dual space: taken at
    # one center it gave (x^2 - 2x, y), which holds x*y, and dx at (1, 2)
    # does not annihilate x*y
    one, dx = DiffOp.identity(RXY, center=(0, 0)), op({(1, 0): 1}, center=(1, 2))
    with pytest.raises(RingMismatchError, match="^operator contexts differ$"):
        ideal_from_conditions([one, dx], DegLex())
    mixed = [op({(1, 0): 1}), op({(0, 1): 1}, center=(1, 2))]
    for call in (closure, is_closed):
        with pytest.raises(RingMismatchError, match="^operator contexts differ$"):
            call(mixed)
    assert closure([op({(1, 0): 1}, center=(1, 2)), dx])[0].center == (1, 2)


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


def test_a_caller_ring_or_mixed_rings_are_refused():
    dx, dx_module = op({(1, 0): 1}), DiffOp(RM2, {(2, (1, 0)): 1})
    for ring in (RX, RXYZ, RM2):
        with pytest.raises(RingMismatchError):
            canonical_operator_basis([dx], ring=ring)
    for ops in ([dx, dx_module], [dx, op({(1, 0, 0): 1}, ring=RXYZ)]):
        with pytest.raises(RingMismatchError):
            canonical_operator_basis(ops)
        with pytest.raises(RingMismatchError):
            closure(ops)
    assert canonical_operator_basis([dx], ring=RXY, center=(1, 2))[0].center == (1, 2)
