"""Buchberger, normal forms, staircases, corners, and elimination."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from noeth import (
    DegLex,
    DegRevLex,
    GroebnerBasis,
    Lex,
    ModuleOrder,
    Polynomial,
    ProductOrder,
    RingDescriptor,
    buchberger,
    corner_monomials,
    eliminate,
    is_member,
    normal_form,
    staircase,
)
from noeth import groebner
from noeth.errors import InfiniteStaircaseError, NotEliminationOrderError, ResourceLimitError, RingMismatchError
from noeth.groebner import _Reducers, s_polynomial
from noeth.orderings import as_module_order, leading_term
from noeth.posdim import extend_to_rational_coeffs
from noeth.ratfun import RationalFunction
from noeth.ring import exp_divides
from support import (
    RM2,
    RXT,
    RXY,
    RXYT,
    RXYZ,
    mu_by_box_count,
    mu_by_linear_algebra,
    random_combination,
    random_fraction,
    random_nonzero,
    random_origin_primary,
    random_polynomial,
    reference_buchberger,
    reference_normal_form,
    variables,
)


def parabola_basis():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    return buchberger([y**2, x**2 - y], DegLex(), RXY)


def module_m1_basis():
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    y2 = Polynomial.variable(RM2, "y", 2)
    e2 = Polynomial.constant(RM2, 1, 2)
    gens = [x1 + e2, y1 + x2, y2]
    return buchberger(gens, ModuleOrder(Lex(), "top"), RM2)


def test_normal_form_goldens():
    G = parabola_basis()
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    assert normal_form(x**2 + x, G) == x + y
    assert normal_form(x**4, G).is_zero()
    assert normal_form(x**3, G) == x * y
    assert normal_form(y, G) == y


def test_normal_form_needs_an_order_for_plain_sequences():
    x = Polynomial.variable(RXY, "x")
    with pytest.raises(ValueError):
        normal_form(x, [x])
    assert normal_form(x**2, [x], DegLex()).is_zero()


def test_s_polynomial_golden():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    s = s_polynomial(x**2 - y, y**2, DegLex())
    assert s == -(y**3)
    # different positions never pair
    u = Polynomial.variable(RM2, "x", 1)
    v = Polynomial.variable(RM2, "x", 2)
    assert s_polynomial(u, v, ModuleOrder(Lex(), "top")).is_zero()


def test_parabola_groebner_golden():
    G = parabola_basis()
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    assert set(G.elements) == {x**2 - y, y**2}
    st = staircase(G)
    assert st.multiplicity == 4
    assert set(st.monomials) == {(1, (0, 0)), (1, (1, 0)), (1, (0, 1)), (1, (1, 1))}
    assert set(corner_monomials(st, G)) == {(1, (1, 1))}


def test_elimination_example_two_orders():
    x = Polynomial.variable(RXT, "x")
    t = Polynomial.variable(RXT, "t")
    gens = [x**2 - t, x * t - 1]
    Gdeg = buchberger(gens, DegLex(), RXT)
    assert set(Gdeg.elements) == {x**2 - t, x * t - 1, t**2 - x}
    Glex = buchberger(gens, Lex(), RXT)
    assert set(Glex.elements) == {x - t**2, t**3 - 1}


def test_positive_dimension_worked_example_basis():
    RXYT2 = RingDescriptor(("x", "y", "t"), 2, 1)
    x = Polynomial.variable(RXYT2, "x")
    y = Polynomial.variable(RXYT2, "y")
    t = Polynomial.variable(RXYT2, "t")
    G = buchberger([x**2, y**2, -(x * t) + y], Lex(), RXYT2)
    assert set(G.elements) == {x**2, x * y, y**2, x * t - y}


def test_module_groebner_golden():
    G = module_m1_basis()
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    y2 = Polynomial.variable(RM2, "y", 2)
    e2 = Polynomial.constant(RM2, 1, 2)
    y_sq_1 = Polynomial.monomial(RM2, (0, 2), position=1)
    assert set(G.elements) == {x1 + e2, y1 + x2, y2, y_sq_1}
    st = staircase(G)
    assert st.multiplicity == 3
    assert set(st.monomials) == {(1, (0, 0)), (2, (0, 0)), (1, (0, 1))}


def test_reduced_basis_is_monic_and_interreduced():
    rng = random.Random(101)
    for _ in range(10):
        gens = random_origin_primary(rng, RXY)
        G = buchberger(gens, DegLex(), RXY)
        lts = G.leading_terms()
        for i, g in enumerate(G.elements):
            _, lc = leading_term(g, G.order)
            assert lc == 1
            for j, (ltk, _) in enumerate(lts):
                if i == j:
                    continue
                for key in g.terms:
                    assert not (ltk[0] == key[0] and all(a <= b for a, b in zip(ltk[1], key[1])))


def test_buchberger_canonical_under_generator_presentation():
    rng = random.Random(103)
    for _ in range(8):
        gens = random_origin_primary(rng, RXY)
        G = buchberger(gens, DegLex(), RXY)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(random_fraction(rng, 5) or Fraction(2)) for g in shuffled]
        redundant = scaled + [random_combination(rng, gens)]
        G2 = buchberger(redundant, DegLex(), RXY)
        assert G.elements == G2.elements


def test_normal_form_properties_randomized():
    rng = random.Random(107)
    for trial in range(6):
        gens = random_origin_primary(rng, RXY)
        G = buchberger(gens, DegLex(), RXY)
        for _ in range(15):
            f = random_polynomial(rng, RXY, max_terms=5, max_deg=5)
            g = random_polynomial(rng, RXY, max_terms=5, max_deg=5)
            a, b = random_fraction(rng), random_fraction(rng)
            nf = normal_form(f, G)
            assert normal_form(nf, G) == nf
            assert normal_form(f.scale(a) + g.scale(b), G) == (
                normal_form(f, G).scale(a) + normal_form(g, G).scale(b)
            )
            # f - NF(f) is a member
            assert normal_form(f - nf, G).is_zero()
        # unique normal form: element order inside a reduced basis is irrelevant
        f = random_polynomial(rng, RXY, max_terms=6, max_deg=5)
        reordered = list(G.elements)[::-1]
        assert normal_form(f, reordered, DegLex()) == normal_form(f, G)


@pytest.mark.parametrize(
    "ring,order",
    [
        (RXYZ, DegLex()),
        (RXYZ, DegRevLex()),
        (RXYZ, Lex()),
        (RM2, ModuleOrder(DegLex(), "top")),
        (RM2, ModuleOrder(DegRevLex(), "pot")),
        (RM2, ModuleOrder(Lex(), "pot")),
    ],
)
def test_normal_form_matches_reference_division(ring, order):
    rng = random.Random(811)
    for _ in range(6):
        if ring.rank == 1:
            G = buchberger(random_origin_primary(rng, ring, cap=10), order, ring)
        else:
            G = buchberger([random_nonzero(rng, ring, 3, 2) for _ in range(3)], order, ring)
        # a plain divisor list that is no Groebner basis divides as well
        divisors = [random_nonzero(rng, ring, 3, 2) for _ in range(3)]
        for _ in range(8):
            f = random_polynomial(rng, ring, max_terms=6, max_deg=5)
            for elements in (G.elements, divisors):
                nf = normal_form(f, elements, order)
                reference = reference_normal_form(f, elements, order)
                assert nf == reference
                assert list(nf.terms) == list(reference.terms)
                assert all(nf.terms.values())


ORACLE_CASES = [
    (RXYZ, DegLex()),
    (RXYZ, DegRevLex()),
    (RXY, Lex()),
    (RXYT, ProductOrder(DegLex(), Lex())),
    (RM2, ModuleOrder(DegLex(), "top")),
    (RM2, ModuleOrder(DegRevLex(), "pot")),
]


def oracle_input(rng, ring):
    """Triangular powers (x_i + sum_(j>i) (c_j x_j + d_j x_j^2))^p_i and two
    random elements without terms below degree 2; random vectors for a module."""
    if ring.rank > 1:
        return [random_nonzero(rng, ring, 3, 2) for _ in range(3)]
    xs = variables(ring)
    gens = []
    for i, x in enumerate(xs):
        for y in xs[i + 1 :]:
            x = x + y.scale(rng.randint(-2, 2)) + (y * y).scale(rng.randint(-2, 2))
        gens.append(x ** rng.randint(2, 3))
    for _ in range(2):
        f = random_polynomial(rng, ring, max_terms=3, max_deg=4)
        gens.append(Polynomial(ring, {key: c for key, c in f.terms.items() if sum(key[1]) >= 2}))
    return gens


@pytest.mark.parametrize("ring,order", ORACLE_CASES)
def test_buchberger_matches_textbook_buchberger(ring, order):
    rng = random.Random(821)
    for _ in range(4):
        gens = oracle_input(rng, ring)
        G = buchberger(gens, order, ring)
        assert set(G.elements) == reference_buchberger(gens, order)
        assert len(set(G.elements)) == len(G.elements)


def test_an_already_reduced_input_makes_no_interreduction_normal_form(monkeypatch):
    # The generators and S-pairs reduce against one reducer list; the final
    # interreduction calls normal_form against another, and only for an
    # element one of whose terms another kept lead divides.
    bases = []
    original = groebner.normal_form

    def normal_form(f, basis, order=None):
        bases.append(basis)
        return original(f, basis, order)

    monkeypatch.setattr(groebner, "normal_form", normal_form)

    def interreduction_calls(gens, order, ring):
        bases.clear()
        G = groebner.buchberger(gens, order, ring)
        return G, sum(basis is not bases[0] for basis in bases)

    x, y = variables(RXY)
    G, calls = interreduction_calls([x**2 + y, y], DegLex(), RXY)
    assert G.elements == (x**2, y) and calls == 1
    rng = random.Random(2203)
    for ring, order in ORACLE_CASES:
        for _ in range(3):
            G = buchberger(oracle_input(rng, ring), order, ring)
            again, calls = interreduction_calls(list(reversed(G.elements)), order, ring)
            assert again.elements == G.elements and calls == 0
            assert set(again.elements) == reference_buchberger(G.elements, order)


@pytest.mark.parametrize("ring,order", ORACLE_CASES)
def test_cached_normal_form_matches_the_per_call_paths(ring, order):
    rng = random.Random(823)
    other = ModuleOrder(Lex(), "pot") if ring.rank > 1 else Lex()
    for _ in range(3):
        G = buchberger(oracle_input(rng, ring), order, ring)
        for _ in range(6):
            f = random_polynomial(rng, ring, max_terms=6, max_deg=5)
            nf = normal_form(f, G)
            assert nf == reference_normal_form(f, G.elements, order)
            assert list(nf.terms) == list(normal_form(f, G.elements, order).terms)
            assert normal_form(f, G, order) == nf
            # an order override divides by the same elements under that order
            assert normal_form(f, G, other) == reference_normal_form(f, G.elements, other)


def test_cached_normal_form_keeps_the_ring_check():
    G = parabola_basis()
    x = Polynomial.variable(RXY, "x")
    assert normal_form(x**3, G) == x * Polynomial.variable(RXY, "y")  # fills the cache
    for f in (Polynomial.variable(RXYZ, "x"), Polynomial.variable(RXT, "x")):
        with pytest.raises(RingMismatchError):
            normal_form(f, G)
        with pytest.raises(RingMismatchError):
            is_member(f, G)


def test_a_zero_generator_carries_its_ring():
    for ring in (RXY, RXT, RM2):
        G = buchberger([Polynomial.zero(ring)], Lex())
        assert (G.ring, G.elements, G.reduced) == (ring, (), True)
    x = Polynomial.variable(RXY, "x")
    assert buchberger([Polynomial.zero(RXY), x], Lex()).elements == (x,)
    zero = Polynomial.zero(RXYZ)
    for gens, ring in (([zero], RXY), ([x, zero], None), ([zero, x], None)):
        with pytest.raises(RingMismatchError):
            buchberger(gens, Lex(), ring)


class CountingDegLex(DegLex):
    """DegLex whose sort key counts its calls."""

    calls = 0

    def key(self, ring):
        inner = super().key(ring)

        def counted(a):
            CountingDegLex.calls += 1
            return inner(a)

        return counted


def entered_terms(f, elements, order) -> int:
    """Terms that enter the dividend of a textbook division of f: its own
    terms, then every term a reduction step adds that was not there."""
    p, count = f, len(f.terms)
    while not p.is_zero():
        key, c = leading_term(p, order)
        for g in elements:
            gkey, gc = leading_term(g, order)
            if gkey[0] == key[0] and exp_divides(gkey[1], key[1]):
                shift = tuple(a - b for a, b in zip(key[1], gkey[1]))
                after = p - g.mul_monomial(shift, c / gc)
                count += len(after.terms.keys() - p.terms.keys())
                p = after
                break
        else:
            p = p - Polynomial(f.ring, {key: c})
    return count


def test_normal_form_ranks_each_dividend_term_once():
    rng = random.Random(827)
    order = CountingDegLex()
    for _ in range(4):
        G = buchberger(random_origin_primary(rng, RXYZ, cap=12), order, RXYZ)
        f = random_polynomial(rng, RXYZ, max_terms=6, max_deg=6)
        normal_form(f, G)
        entered = entered_terms(f, G.elements, order)
        CountingDegLex.calls = 0
        normal_form(f, G)
        assert CountingDegLex.calls <= entered


def test_buchberger_criterion_on_every_pair():
    rng = random.Random(109)
    bases = [parabola_basis(), module_m1_basis()]
    for _ in range(4):
        bases.append(buchberger(random_origin_primary(rng, RXY), DegLex(), RXY))
    for G in bases:
        for i, f in enumerate(G.elements):
            for g in list(G.elements)[i + 1 :]:
                assert normal_form(s_polynomial(f, g, G.order), G).is_zero()


def test_staircase_is_division_closed():
    rng = random.Random(113)
    for _ in range(8):
        G = buchberger(random_origin_primary(rng, RXYZ, cap=10), DegRevLex(), RXYZ)
        st = staircase(G)
        members = set(st.monomials)
        for pos, exp in members:
            for i, e in enumerate(exp):
                if e:
                    lower = tuple(v - 1 if i == j else v for j, v in enumerate(exp))
                    assert (pos, lower) in members


def test_multiplicity_against_independent_oracles():
    rng = random.Random(127)
    for _ in range(6):
        gens = random_origin_primary(rng, RXY)
        G = buchberger(gens, DegLex(), RXY)
        mu = staircase(G).multiplicity
        assert mu == mu_by_box_count(G)
        degree = sum(g.total_degree() for g in gens) + 2
        assert mu == mu_by_linear_algebra(gens, degree)


def test_corner_monomials_are_the_staircase_maxima():
    rng = random.Random(131)
    for _ in range(6):
        G = buchberger(random_origin_primary(rng, RXY), DegLex(), RXY)
        st = staircase(G)
        members = set(st.monomials)
        lts = [k for k, _ in G.leading_terms()]
        corners = set(corner_monomials(st, G))
        for pos, exp in members:
            bumps_leave = all(
                (pos, tuple(v + 1 if i == j else v for j, v in enumerate(exp))) not in members
                for i in range(len(exp))
                for j in [i]
            )
            assert ((pos, exp) in corners) == bumps_leave


def test_staircase_walk_matches_the_box_count():
    rng = random.Random(829)
    cases = [(RXY, DegLex()), (RXYZ, DegRevLex()), (RM2, ModuleOrder(DegLex(), "top"))]
    for ring, order in cases:
        for _ in range(5):
            if ring.rank == 1:
                gens = random_origin_primary(rng, ring, cap=12)
            else:
                powers = [((2, 0), 1), ((0, 3), 1), ((1, 0), 2), ((0, 2), 2)]
                gens = [Polynomial.monomial(ring, exp, 1, pos) for exp, pos in powers]
                gens += [random_nonzero(rng, ring, 2, 2) for _ in range(2)]
            G = buchberger(gens, order, ring)
            try:
                stair = staircase(G)
            except InfiniteStaircaseError:
                continue
            assert stair.multiplicity == mu_by_box_count(G)
            assert len(set(stair.monomials)) == stair.multiplicity


def test_staircase_of_a_tall_thin_box_is_fast():
    R4 = RingDescriptor(("x", "y", "z", "w"), 4)
    v = [Polynomial.variable(R4, i) for i in range(4)]
    gens = [g**40 for g in v] + [v[i] * v[j] for i in range(4) for j in range(i + 1, 4)]
    G = buchberger(gens, DegLex(), R4)
    t0 = time.perf_counter()
    stair = staircase(G)
    assert time.perf_counter() - t0 < 2.0
    assert stair.multiplicity == 1 + 4 * 39
    assert stair.monomials[:5] == ((1, (0, 0, 0, 0)),) + tuple((1, R4.var_exp(i)) for i in range(4))


def test_staircase_cap_counts_every_position(monkeypatch):
    # two positions with 3 and 4 monomials: 7 list, 6 do not
    leads = [((3, 0), 1), ((0, 1), 1), ((2, 0), 2), ((0, 2), 2)]
    G = buchberger([Polynomial.monomial(RM2, exp, 1, pos) for exp, pos in leads], DegLex(), RM2)
    monkeypatch.setattr(groebner, "STAIRCASE_CAP", 7)
    assert staircase(G).multiplicity == 7
    monkeypatch.setattr(groebner, "STAIRCASE_CAP", 6)
    with pytest.raises(ResourceLimitError, match="more than 6 monomials"):
        staircase(G)


def test_infinite_staircase_is_detected():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    with pytest.raises(InfiniteStaircaseError):
        staircase(buchberger([x * y], DegLex(), RXY))
    with pytest.raises(InfiniteStaircaseError):
        staircase(buchberger([x], DegLex(), RXY))


def test_eliminate_golden_and_order_guard():
    x = Polynomial.variable(RXT, "x")
    t = Polynomial.variable(RXT, "t")
    gens = [x**2 - t, x * t - 1]
    only_t = eliminate(gens, Lex(), RXT)
    assert list(only_t) == [t**3 - 1]
    assert eliminate([x - t], Lex(), RXT) == ()
    with pytest.raises(NotEliminationOrderError):
        eliminate(gens, DegLex(), RXT)


def test_is_member_matches_normal_form():
    rng = random.Random(137)
    G = parabola_basis()
    gens = list(G.elements)
    for _ in range(40):
        member = random_combination(rng, gens)
        assert is_member(member, G)
        f = random_polynomial(rng, RXY, max_terms=4, max_deg=4)
        assert is_member(f, G) == normal_form(f, G).is_zero()


def wide_fraction(rng: random.Random) -> Fraction:
    """A nonzero rational with a large numerator and a large, mixed denominator."""
    den = 1
    for p in rng.sample([2, 3, 5, 7, 11, 13, 9973, 65537], rng.randint(0, 3)):
        den *= p ** rng.randint(1, 3)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**9), den)


def wide_polynomial(rng: random.Random, ring, max_terms: int, max_deg: int, min_deg: int = 0) -> Polynomial:
    terms = {}
    while len(terms) < rng.randint(1, max_terms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        if min_deg <= sum(exp) <= max_deg:
            terms[(rng.randint(1, ring.rank), exp)] = wide_fraction(rng)
    return Polynomial(ring, terms)


def wide_primary(rng: random.Random, ring) -> list[Polynomial]:
    """Generators primary at the origin with wide coefficients.

    An ideal gets powers of x_i + sum_(j>i) (c_j x_j + d_j x_j^2), as in
    oracle_input, and one element of degree 2 to 3; a module gets a wide
    multiple of x_i^2 in every position and two vectors of degree 1 to 2.
    """
    if ring.rank > 1:
        gens = [
            Polynomial.monomial(ring, tuple(2 * e for e in ring.var_exp(i)), wide_fraction(rng), pos)
            for pos in range(1, ring.rank + 1)
            for i in range(ring.nvars)
        ]
        return gens + [wide_polynomial(rng, ring, 3, 2, min_deg=1) for _ in range(2)]
    xs = variables(ring)
    gens = []
    for i, x in enumerate(xs):
        for y in xs[i + 1 :]:
            x = x + y.scale(wide_fraction(rng)) + (y * y).scale(wide_fraction(rng))
        gens.append(x ** rng.randint(2, 3))
    return gens + [wide_polynomial(rng, ring, 3, 3, min_deg=2)]


FRACTION_FREE_CASES = [
    (RXY, DegLex()),
    (RXYZ, DegRevLex()),
    (RXY, Lex()),
    (RM2, ModuleOrder(DegLex(), "top")),
    (RM2, ModuleOrder(Lex(), "pot")),
]


@pytest.mark.parametrize("ring,order", FRACTION_FREE_CASES)
def test_fraction_free_division_matches_the_reference(ring, order):
    # Non-monic divisors, some with negative leads, and wide denominators make
    # many steps rescale the integer dividend, so its scale lam keeps growing.
    rng = random.Random(839)
    term_key = as_module_order(order).key(ring)
    for _ in range(4):
        divisors = [wide_polynomial(rng, ring, 3, 2) for _ in range(3)]
        divisors[0] = -divisors[0].scale(1 / leading_term(divisors[0], order)[1])  # lead -1
        for g in divisors:
            # the entry is g scaled to integers: primitive, with a positive lead,
            # so the factor has the sign of g's lead (-1 for divisors[0])
            ((pos, exp, lc, tail),) = _Reducers(ring, term_key, [g])
            assert (pos, exp) == leading_term(g, order)[0]
            terms = dict([((pos, exp), lc), *tail])
            assert all(type(c) is int for c in terms.values())
            assert lc > 0 and gcd(*terms.values()) == 1
            scale = Fraction(lc) / g.terms[pos, exp]
            assert terms == {k: c * scale for k, c in g.terms.items()}
        for _ in range(4):
            f = wide_polynomial(rng, ring, 6, 4)
            nf = normal_form(f, divisors, order)
            reference = reference_normal_form(f, divisors, order)
            assert nf == reference
            assert list(nf.terms) == list(reference.terms)
            assert all(type(c) is Fraction and c for c in nf.terms.values())


@pytest.mark.parametrize("ring,order", [case for case in FRACTION_FREE_CASES if case[0] is not RXYZ])
def test_fraction_free_buchberger_matches_the_textbook_one(ring, order):
    # three variables are left out: the textbook algorithm runs for minutes
    rng = random.Random(853)
    for _ in range(5):
        gens = wide_primary(rng, ring)
        G = buchberger(gens, order, ring)
        assert set(G.elements) == reference_buchberger(gens, order)
        for _ in range(4):
            f = wide_polynomial(rng, ring, 5, 3)
            nf = normal_form(f, G)
            assert nf == normal_form(f, list(G.elements), order)
            assert nf == reference_normal_form(f, G.elements, order)
        for i, f in enumerate(G.elements):
            for j in range(i + 1, len(G)):
                s = s_polynomial(f, G.elements[j], order)
                from_reducers = s_polynomial(G._reducers[i], G._reducers[j], G._reducers)
                # a positive multiple of the same S-polynomial
                assert s.is_zero() == from_reducers.is_zero()
                if not s.is_zero():
                    key, c = leading_term(s, order)
                    ratio = from_reducers.terms[key] / c
                    assert ratio > 0 and from_reducers == s.scale(ratio)


def test_rational_function_coefficients_keep_the_field_path():
    x, y, t = variables(RXYT)
    G = buchberger([x**2, y**2, x * t - y], Lex(), RXYT)
    assert G._reducers.integral
    Gx = extend_to_rational_coeffs(G)
    assert not Gx._reducers.integral
    xx, yy = variables(Gx.ring)
    # Fraction dividends against rational-function reducers divide in the field
    for f in (xx + yy.scale(Fraction(3, 7)), xx * yy + xx.scale(Fraction(3, 7))):
        nf = normal_form(f, Gx)
        assert nf == reference_normal_form(f, Gx.elements, Gx.order)
        assert all(isinstance(c, RationalFunction) for c in nf.terms.values())
    # a rational-function dividend against integral reducers divides in the field too
    B = buchberger([xx**3 - yy.scale(Fraction(2, 5)), (xx * yy).scale(Fraction(3, 7)) + yy**2], Gx.order, Gx.ring)
    assert B._reducers.integral
    c = next(v for g in Gx.elements for v in g.terms.values() if v != v / v)
    for f in ((xx * yy).scale(c) + xx**4, (xx**3 * yy).scale(c) + (yy**3).scale(c * c) + xx):
        nf = normal_form(f, B)
        assert nf == reference_normal_form(f, B.elements, B.order)
        assert not nf.is_zero()


@pytest.mark.parametrize("ring,order", FRACTION_FREE_CASES)
def test_buchberger_hands_its_reducers_to_the_basis(ring, order, monkeypatch):
    # The returned basis keeps the integer entries buchberger worked with,
    # and they must be what preparing its monic elements afresh gives: as a
    # new GroebnerBasis, and as normal_form's plain-sequence path.
    rng = random.Random(857)
    term_key = as_module_order(order).key(ring)
    seen = []
    divide = groebner._divide

    def recorded(p, lam, reducers, integral):
        seen.append(reducers)
        return divide(p, lam, reducers, integral)

    for _ in range(4):
        G = buchberger(wide_primary(rng, ring) + [wide_polynomial(rng, ring, 4, 3)], order, ring)
        assert "_reducers" in G.__dict__  # handed over, not prepared on first use
        handed = G._reducers
        assert handed.integral and handed.ring == ring
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_divide", recorded)
            normal_form(wide_polynomial(rng, ring, 4, 3), list(G.elements), order)
        (plain,) = seen
        for fresh in (GroebnerBasis(ring, order, G.elements)._reducers, plain):
            assert fresh is not handed and fresh.integral
            assert len(handed) == len(fresh) == len(G.elements)
            for (pos, exp, lc, tail), (fpos, fexp, flc, ftail) in zip(handed, fresh):
                assert (pos, exp, lc) == (fpos, fexp, flc)
                assert type(lc) is int and lc > 0
                assert dict(tail) == dict(ftail)
                assert all(type(c) is int for _, c in tail)
            assert [handed.term_key(entry[:2]) for entry in handed] == [term_key(entry[:2]) for entry in fresh]


def test_buchberger_builds_fractions_only_for_the_returned_basis(monkeypatch):
    # Generators, S-polynomials, remainders and reducers stay integers; the
    # only Fractions made are the coefficients of the returned elements.
    rng = random.Random(859)
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    for ring, order in FRACTION_FREE_CASES:
        for _ in range(3):
            gens = wide_primary(rng, ring)
            made.clear()
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
            try:
                G = buchberger(gens, order, ring)
            finally:
                monkeypatch.undo()
            assert all(type(c) is Fraction for g in G.elements for c in g.terms.values())
            assert 0 < len(made) <= sum(len(g.terms) for g in G.elements)
            assert G == buchberger(gens, order, ring)


def test_buchberger_over_rational_functions_keeps_monic_reducers():
    # Rational-function coefficients take the field path: each entry is made
    # monic, and the basis keeps those entries as its reducers.
    x, y, t = variables(RXYT)
    Gx = extend_to_rational_coeffs(buchberger([x**2, y**2, x * t - y, x * y * t + y**2], Lex(), RXYT))
    c = next(v for g in Gx.elements for v in g.terms.values() if v != v / v)
    gens = [g.scale(c) for g in Gx.elements]
    G = buchberger(gens, Gx.order, Gx.ring)
    assert "_reducers" in G.__dict__ and not G._reducers.integral
    assert set(G.elements) == reference_buchberger(gens, Gx.order)
    fresh = GroebnerBasis(G.ring, G.order, G.elements)._reducers
    assert not fresh.integral and len(fresh) == len(G._reducers)
    for (pos, exp, lc, tail), (fpos, fexp, flc, ftail) in zip(G._reducers, fresh):
        assert lc == lc / lc and isinstance(lc, RationalFunction)
        assert (pos, exp, lc, dict(tail)) == (fpos, fexp, flc, dict(ftail))
    xx, yy = variables(G.ring)
    for f in (xx * yy, yy * yy + xx, (xx + yy).scale(c)):
        assert normal_form(f, G) == reference_normal_form(f, G.elements, G.order)
