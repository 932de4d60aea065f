"""Sparse polynomial arithmetic over exact rationals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import noeth.polynomial
from noeth import Polynomial, RationalFunction, RingDescriptor, poly_mul
from noeth.errors import RingMismatchError
from support import (
    RM2,
    RX,
    RXT,
    RXY,
    RXYT,
    RXYZ,
    per_term_substitute_affine,
    random_combination,
    random_fraction,
    random_nonzero,
    random_origin_primary,
    random_polynomial,
    reference_substitute_affine,
)


def xy():
    return Polynomial.variable(RXY, "x"), Polynomial.variable(RXY, "y")


def test_constructors_and_queries():
    x, y = xy()
    assert Polynomial.zero(RXY).is_zero()
    assert Polynomial.constant(RXY, 7).coefficient((1, (0, 0))) == 7
    assert Polynomial.monomial(RXY, (2, 1), Fraction(3, 2)).total_degree() == 3
    assert Polynomial.variable(RXY, 1) == y
    assert x.terms == {(1, (1, 0)): Fraction(1)}
    assert Polynomial.zero(RXY).total_degree() == -1


def test_constructor_drops_zero_coefficients():
    f = Polynomial(RXY, {(1, (1, 0)): Fraction(0), (1, (0, 1)): 2})
    assert f.terms == {(1, (0, 1)): Fraction(2)}


def test_constructor_rejects_bad_keys():
    with pytest.raises(RingMismatchError):
        Polynomial(RXY, {(2, (0, 0)): 1})
    with pytest.raises(RingMismatchError):
        Polynomial(RXY, {(0, (0, 0)): 1})
    with pytest.raises(RingMismatchError):
        Polynomial(RXY, {(1, (0, 0, 0)): 1})
    with pytest.raises(RingMismatchError):
        Polynomial(RXY, {(1, (-1, 0)): 1})
    with pytest.raises(RingMismatchError, match="1.5"):
        Polynomial(RXY, {(1, (1, 0)): 1.5})
    x, _ = xy()
    with pytest.raises(RingMismatchError):
        x.mul_monomial((1, -1))
    with pytest.raises(RingMismatchError):
        x.mul_monomial((1,))
    with pytest.raises(RingMismatchError, match="0.5"):
        x.scale(0.5)


def test_arithmetic_results_hold_no_zero_coefficient():
    rng = random.Random(41)
    scalars = RM2.with_rank(1)
    for ring in (RXYZ, RM2):
        for _ in range(40):
            f = random_nonzero(rng, ring)
            h = random_polynomial(rng, ring)
            g = h - f  # f + g cancels every term of f that h lacks
            s = random_polynomial(rng, scalars if ring.rank > 1 else ring)
            exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            results = [
                f + g, g + f, f - (f + h), g - h, -f, f - f,
                f.scale(random_fraction(rng)), f.scale(0),
                f.mul_monomial(exp, random_fraction(rng)),
                poly_mul(s, f), poly_mul(s + 1, s - 1), 1 - f, f + 1,
            ]
            for r in results:
                assert all(r.terms.values())
                assert r == Polynomial(r.ring, r.terms)


def test_arithmetic_goldens():
    x, y = xy()
    assert (x + y) ** 2 == x**2 + x * y * 2 + y**2
    assert (x - y) * (x + y) == x**2 - y**2
    assert (x + 1) - (x + 1) == Polynomial.zero(RXY)
    assert x * 0 == Polynomial.zero(RXY)
    assert 3 - x == Polynomial.constant(RXY, 3) - x
    assert 2 + x == x + 2
    assert x.scale(Fraction(1, 2)) * 2 == x


def test_mul_monomial_matches_product():
    rng = random.Random(5)
    for _ in range(50):
        f = random_polynomial(rng, RXYZ)
        exp = tuple(rng.randint(0, 2) for _ in range(3))
        c = random_fraction(rng)
        assert f.mul_monomial(exp, c) == f * Polynomial.monomial(RXYZ, exp, c)


def test_ring_axioms_randomized():
    rng = random.Random(17)
    for _ in range(40):
        f = random_polynomial(rng, RXYZ, max_terms=4, max_deg=3)
        g = random_polynomial(rng, RXYZ, max_terms=4, max_deg=3)
        h = random_polynomial(rng, RXYZ, max_terms=4, max_deg=3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert poly_mul(f, g) == f * g


def test_power_matches_repeated_products(monkeypatch):
    rng = random.Random(409)
    products = []

    def counted(f, g):
        products.append((f, g))
        return poly_mul(f, g)

    monkeypatch.setattr(noeth.polynomial, "poly_mul", counted)
    for ring in (RX, RXY, RXYZ):
        for _ in range(4):
            p = random_nonzero(rng, ring, max_terms=3, max_deg=2)
            expect = Polynomial.constant(ring, 1)
            for n in range(9):
                del products[:]
                assert (p**n).terms == expect.terms
                # square-and-multiply from the base: never a product with 1
                assert len(products) == max(n.bit_length() + bin(n).count("1") - 2, 0)
                assert all(Polynomial.constant(ring, 1) not in pair for pair in products)
                expect = p if n == 0 else poly_mul(expect, p)
            assert p**1 is p
    assert Polynomial.zero(RXY) ** 0 == Polynomial.constant(RXY, 1)
    with pytest.raises(ValueError):
        p ** -1


def test_degree_of_product_adds():
    rng = random.Random(23)
    for _ in range(40):
        f = random_nonzero(rng, RXY)
        g = random_nonzero(rng, RXY)
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()
        assert (f + g).total_degree() <= max(f.total_degree(), g.total_degree())


def test_evaluate_golden_and_module_values():
    x, y = xy()
    f = x**2 - y
    assert f.evaluate((3, 2)) == 7
    assert f.evaluate((Fraction(1, 2), 0)) == Fraction(1, 4)
    v = Polynomial(RM2, {(1, (1, 0)): Fraction(1), (2, (0, 0)): Fraction(2)})
    assert v.evaluate((5, 1)) == (5, 2)


def test_substitute_affine_shifts_evaluation():
    rng = random.Random(31)
    for _ in range(30):
        f = random_polynomial(rng, RXY)
        p = [random_fraction(rng, 3) for _ in range(2)]
        q = [random_fraction(rng, 3) for _ in range(2)]
        shifted = f.substitute_affine(p)
        assert shifted.evaluate(q) == f.evaluate([a + b for a, b in zip(p, q)])


def test_substitute_affine_round_trip():
    rng = random.Random(37)
    for _ in range(30):
        f = random_polynomial(rng, RXYZ)
        p = [random_fraction(rng, 3) for _ in range(3)]
        assert f.substitute_affine(p).substitute_affine([-a for a in p]) == f


def test_substitute_affine_matches_the_fraction_expansion():
    rng = random.Random(41)

    def coordinate():
        # zero, small, and denominators past 2^64, mixed within one point
        huge = Fraction(rng.randint(-9, 9), 2**65 + rng.randint(1, 99))
        return rng.choice([Fraction(0), random_fraction(rng, 3), huge])

    for _ in range(60):
        ring = rng.choice([RX, RXY, RXYZ, RM2])
        f = random_polynomial(rng, ring, max_terms=6)
        if rng.random() < 0.3:
            f = f.scale(Fraction(rng.randint(1, 7), 3**41))
        p = [coordinate() for _ in range(ring.nvars)]
        got = f.substitute_affine(p)
        assert got == reference_substitute_affine(f, p)
        assert all(type(c) is Fraction and c for c in got.terms.values())
    for ring in (RX, RXY, RM2):
        zero = Polynomial.zero(ring)
        assert zero.substitute_affine([Fraction(1, 3)] * ring.nvars) == zero
    f = random_nonzero(rng, RM2)
    assert f.substitute_affine([0, 0]) == f


def _shift_point(rng, ring, params_fixed=False):
    """Fractions, integers and zeros mixed; a parameter ring's t-block stays 0 when asked."""
    point = [
        rng.choice([Fraction(0), Fraction(rng.randint(-3, 3)), random_fraction(rng, 5)]) for _ in range(ring.nvars)
    ]
    if params_fixed:
        point[ring.x_count :] = [Fraction(0)] * ring.t_count
    return point


def _taylor_cases(rng):
    """(polynomial, point) pairs: seeded primary ideals, rank-2 modules and parameter rings."""
    cases = []
    for ring in (RX, RXY, RXYZ):
        gens = random_origin_primary(rng, ring, 12)
        gens.append(random_combination(rng, gens))
        cases += [(g, _shift_point(rng, ring)) for g in gens]
    for _ in range(8):
        cases.append((random_nonzero(rng, RM2, max_terms=6, max_deg=5), _shift_point(rng, RM2)))
    for ring in (RXT, RXYT):
        for _ in range(6):
            cases.append((random_nonzero(rng, ring, max_terms=6, max_deg=5), _shift_point(rng, ring, True)))
    cases.append((random_nonzero(rng, RXYZ), [Fraction(0), Fraction(5, 7), Fraction(0)]))
    return cases


def test_taylor_shift_matches_the_per_term_expansion():
    rng = random.Random(2401)
    for f, point in _taylor_cases(rng):
        got = f.substitute_affine(point)
        assert got == per_term_substitute_affine(f, point) == reference_substitute_affine(f, point)
        assert all(type(c) is Fraction and c for c in got.terms.values())
        assert got.substitute_affine([-p for p in point]) == f


def test_the_taylor_shift_merges_like_terms_between_variables():
    # (x + y)^3 moved to (x - 1, y + 1) is (x + y)^3 again: every cross term cancels
    x, y = xy()
    f = (x + y) ** 3
    assert f.substitute_affine([-1, 1]) == f
    assert (x * y).substitute_affine([Fraction(1, 2), Fraction(-1, 3)]) == (x + Fraction(1, 2)) * (y - Fraction(1, 3))


def test_substitute_affine_refuses_rational_function_coefficients():
    cring = RingDescriptor(("t",), 1)
    t = RationalFunction(Polynomial.variable(cring, 0))
    f = Polynomial(RXYT, {(1, (1, 0, 0)): t, (1, (0, 0, 0)): Fraction(1)})
    with pytest.raises(RingMismatchError, match="rational coefficients"):
        f.substitute_affine([1, 0, 0])


def test_vector_times_vector_is_rejected():
    u = Polynomial.constant(RM2, 1, 1)
    v = Polynomial.constant(RM2, 1, 2)
    with pytest.raises(RingMismatchError):
        poly_mul(u, v)


def test_scalar_times_vector_keeps_positions():
    scalar_ring = RM2.with_rank(1)
    s = Polynomial.variable(scalar_ring, "x")
    v = Polynomial(RM2, {(1, (0, 1)): Fraction(1), (2, (0, 0)): Fraction(-1)})
    prod = s * v
    assert prod.terms == {(1, (1, 1)): Fraction(1), (2, (1, 0)): Fraction(-1)}


def test_ring_mismatch_is_rejected():
    x, _ = xy()
    z = Polynomial.variable(RXYZ, "z")
    with pytest.raises(RingMismatchError):
        x + z
    with pytest.raises(RingMismatchError):
        x.evaluate((1,))


def test_polynomials_are_immutable_and_hashable():
    x, y = xy()
    with pytest.raises(AttributeError):
        x.terms = {}
    assert hash(x + y) == hash(y + x)
    assert len({x + y, y + x, x}) == 2
