"""Multivariate GCD and rational-function field arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noeth import (
    Polynomial,
    RationalFunction,
    RingDescriptor,
    buchberger,
    noetherian_positive,
    parse_problem,
    poly_gcd,
    poly_lcm,
)
from noeth.errors import RingMismatchError, ZeroPolynomialError
from noeth.ratfun import divexact
from support import random_fraction, random_nonzero, random_polynomial

RT = RingDescriptor(("t",), 1)
RST = RingDescriptor(("s", "t"), 2)


def t_poly(*coeffs):
    """Univariate helper: t_poly(a0, a1, ...) = a0 + a1 t + ..."""
    return Polynomial(RT, {(1, (i,)): Fraction(c) for i, c in enumerate(coeffs) if c})


def test_divexact_golden_and_failure():
    s = Polynomial.variable(RST, "s")
    t = Polynomial.variable(RST, "t")
    f = (s + t) * (s - t)
    assert divexact(f, s + t) == s - t
    with pytest.raises(ZeroPolynomialError):
        divexact(s**2 + t, s + t)
    with pytest.raises(ZeroDivisionError):
        divexact(s, Polynomial.zero(RST))


def test_divexact_randomized_round_trip():
    rng = random.Random(61)
    for _ in range(40):
        f = random_nonzero(rng, RST, max_terms=4, max_deg=3)
        g = random_nonzero(rng, RST, max_terms=4, max_deg=3)
        assert divexact(f * g, g) == f


def test_gcd_goldens():
    t = Polynomial.variable(RT, "t")
    one = Polynomial.constant(RT, 1)
    assert poly_gcd(t**2 - 1, t**2 - t * 2 + 1) == t - 1
    assert poly_gcd(t**2 + 1, t + 2) == one
    assert poly_gcd(Polynomial.zero(RT), t * 3) == t
    s = Polynomial.variable(RST, "s")
    t2 = Polynomial.variable(RST, "t")
    f = (s + t2) ** 2 * (s - t2)
    g = (s + t2) * (s + 1)
    assert poly_gcd(f, g) == s + t2


def test_gcd_properties_randomized():
    rng = random.Random(67)
    for _ in range(25):
        f = random_nonzero(rng, RST, max_terms=3, max_deg=2)
        g = random_nonzero(rng, RST, max_terms=3, max_deg=2)
        h = random_nonzero(rng, RST, max_terms=2, max_deg=2)
        d = poly_gcd(f * h, g * h)
        # common factor h divides the gcd, and the gcd divides both products
        assert divexact(d, poly_gcd(h, d)) is not None
        assert poly_gcd(h, d).total_degree() == h.total_degree()
        assert divexact(f * h, d) * d == f * h
        assert divexact(g * h, d) * d == g * h


def test_lcm_times_gcd_is_product_up_to_scalar():
    rng = random.Random(71)
    for _ in range(25):
        f = random_nonzero(rng, RT, max_terms=3, max_deg=4)
        g = random_nonzero(rng, RT, max_terms=3, max_deg=4)
        lg = poly_lcm(f, g) * poly_gcd(f, g)
        fg = f * g
        # both monic normalizations of the same product
        ratio = divexact(fg, lg)
        assert ratio.total_degree() == 0


def test_rational_function_normalization():
    t = Polynomial.variable(RT, "t")
    a = RationalFunction(t**2 - 1, t - 1)
    assert a.is_polynomial() and a.as_polynomial() == t + 1
    b = RationalFunction(t, t * 2 + 2)
    assert b.den == t + 1 and b.num == t.scale(Fraction(1, 2))
    zero = RationalFunction(Polynomial.zero(RT), t**3)
    assert zero.is_zero() and zero.den == Polynomial.constant(RT, 1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(t, Polynomial.zero(RT))
    with pytest.raises(ZeroPolynomialError):
        RationalFunction(t, t + 1).as_polynomial()
    assert RationalFunction(t * 2, t * 2) == 1


def test_field_axioms_randomized():
    rng = random.Random(73)

    def rand_rf():
        num = random_polynomial(rng, RT, max_terms=3, max_deg=3)
        den = random_nonzero(rng, RT, max_terms=2, max_deg=2)
        return RationalFunction(num, den)

    one = RationalFunction.from_fraction(1, RT)
    for _ in range(30):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFunction.from_fraction(0, RT)
        if not a.is_zero():
            assert a / a == one
            assert (b / a) * a == b


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(79)
    for _ in range(30):
        a_num = random_polynomial(rng, RT, 3, 3)
        a_den = random_nonzero(rng, RT, 2, 2)
        b_num = random_polynomial(rng, RT, 3, 3)
        b_den = random_nonzero(rng, RT, 2, 2)
        a = RationalFunction(a_num, a_den)
        b = RationalFunction(b_num, b_den)
        point = None
        for _ in range(40):
            cand = (random_fraction(rng, 9),)
            if a.den.evaluate(cand) and b.den.evaluate(cand):
                s = a + b
                p = a * b
                if s.den.evaluate(cand) and p.den.evaluate(cand):
                    point = cand
                    break
        if point is None:
            continue

        def ev(r):
            return r.num.evaluate(point) / r.den.evaluate(point)

        assert ev(a + b) == ev(a) + ev(b)
        assert ev(a * b) == ev(a) * ev(b)


def test_mixed_coercions():
    t = Polynomial.variable(RT, "t")
    a = RationalFunction(t)
    assert a + 1 == RationalFunction(t + 1)
    assert 1 + a == RationalFunction(t + 1)
    assert a * Fraction(1, 2) == RationalFunction(t.scale(Fraction(1, 2)))
    assert 1 - a == RationalFunction(Polynomial.constant(RT, 1) - t)
    assert (a / 2) * 2 == a
    assert 1 / RationalFunction(t + 1) == RationalFunction(Polynomial.constant(RT, 1), t + 1)
    with pytest.raises(ZeroDivisionError):
        a / RationalFunction.from_fraction(0, RT)


def test_gcd_rejects_module_vectors():
    rm = RingDescriptor(("t",), 1, 0, 2)
    v = Polynomial.constant(rm, 1, 1)
    with pytest.raises(RingMismatchError):
        poly_gcd(v, v)


def _checked_and_trusted_agree(trusted, checked):
    assert (trusted.num, trusted.den, hash(trusted)) == (checked.num, checked.den, hash(checked))


def test_trusted_negation_and_constants_match_the_checked_constructor(monkeypatch):
    # every rational function the posdim construction builds, negated both ways
    rng = random.Random(89)
    texts = [
        "ring x, y | t;\norder lex;\nideal x^2, y^2, -x*t + y;\n",
        "ring x, y | s, t;\norder product(deglex, lex);\nideal x^2, y^2, -x*t + y - s*x;\n",
    ]
    for k in (2, 3):
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        texts.append(
            f"ring x, y, z | t;\norder product(deglex, lex);\n"
            f"ideal (x + {a}*t*y)^{k}, y^{k}, z^{k};\n"
        )
    built = []
    checked_init = RationalFunction.__init__

    def recording(self, num, den=None):
        checked_init(self, num, den)
        built.append(self)

    monkeypatch.setattr(RationalFunction, "__init__", recording)
    for text in texts:
        spec = parse_problem(text)
        noetherian_positive(buchberger(spec.generators, spec.effective_order, spec.ring))
    monkeypatch.undo()
    assert sum(not r.is_polynomial() for r in built) > 0
    for r in built:
        _checked_and_trusted_agree(-r, RationalFunction(-r.num, r.den))
    ring = built[0].ring
    for q in [0, 1, -1, Fraction(7, 3)] + [random_fraction(rng) for _ in range(50)]:
        _checked_and_trusted_agree(
            RationalFunction.from_fraction(q, ring),
            RationalFunction(Polynomial.constant(ring, q)),
        )
    with pytest.raises(RingMismatchError):
        RationalFunction.from_fraction(1, RingDescriptor(("t",), 1, 0, 2))
