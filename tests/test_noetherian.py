"""The three dual-basis constructions and the inverse problem."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from noeth import (
    DegLex,
    DiffOp,
    Lex,
    ModuleOrder,
    NoetherianBasis,
    Polynomial,
    backward_step,
    buchberger,
    ideal_from_conditions,
    is_member,
    membership_by_operators,
    noetherian_backward,
    noetherian_forward,
    noetherian_linear,
    normal_form,
    parse_problem,
    staircase,
    translate_to_origin,
)
from noeth.errors import (
    NoethError,
    NotClosedError,
    NotPrimaryError,
    ZeroPolynomialError,
)
from noeth.noetherian import monomial_keys_below
from noeth.ring import reading_key
from support import (
    RM2,
    RX,
    RXY,
    RXYZ,
    random_combination,
    random_origin_primary,
    random_polynomial,
)


def xy_vars():
    return Polynomial.variable(RXY, "x"), Polynomial.variable(RXY, "y")


def hermite_ideal():
    x, y = xy_vars()
    return [x**2 - y, y**2, x * y]


ALL_METHODS = (
    lambda gens, order, ring, center: noetherian_forward(buchberger(gens, order, ring), center),
    lambda gens, order, ring, center: noetherian_backward(buchberger(gens, order, ring), center),
    lambda gens, order, ring, center: noetherian_linear(gens, order, center=center),
)


def test_forward_golden_three_operators():
    basis = noetherian_forward(buchberger(hermite_ideal(), DegLex(), RXY))
    assert basis.multiplicity == 3
    assert basis.center == (Fraction(0), Fraction(0))
    assert basis.operators == (
        DiffOp(RXY, {(1, (0, 0)): 1}),
        DiffOp(RXY, {(1, (1, 0)): 1}),
        DiffOp(RXY, {(1, (0, 1)): 1, (1, (2, 0)): 1}),
    )


def test_forward_golden_parabola():
    x, y = xy_vars()
    basis = noetherian_forward(buchberger([x**2 - y, y**2], DegLex(), RXY))
    assert basis.multiplicity == 4
    assert basis.operators == (
        DiffOp(RXY, {(1, (0, 0)): 1}),
        DiffOp(RXY, {(1, (1, 0)): 1}),
        DiffOp(RXY, {(1, (0, 1)): 1, (1, (2, 0)): 1}),
        DiffOp(RXY, {(1, (1, 1)): 1, (1, (3, 0)): 1}),
    )


def test_methods_agree_on_goldens():
    x, y = xy_vars()
    z3 = [Polynomial.variable(RXYZ, n) for n in ("x", "y", "z")]
    cases = [
        (hermite_ideal(), RXY),
        ([x**2 - y, y**2], RXY),
        ([z3[0] ** 2 - z3[2], z3[1] ** 2 - z3[2], z3[2] ** 2], RXYZ),
        # raising every term of a found operator misses closed operators here
        ([(x - 2 * y) ** 5, y**6, (x - 2 * y) * y**3, (x - 2 * y) ** 2], RXY),
    ]
    for gens, ring in cases:
        zero = (Fraction(0),) * ring.nvars
        results = [build(gens, DegLex(), ring, zero) for build in ALL_METHODS]
        assert results[0].operators == results[1].operators == results[2].operators
        assert {b.method for b in results} == {"forward", "backward", "linear"}
        for b in results:
            b.validate()


def test_methods_agree_on_random_primary_ideals():
    rng = random.Random(420)
    for gens, order, center in random_primary_cases(rng):
        results = [build(gens, order, gens[0].ring, center) for build in ALL_METHODS]
        assert results[0].operators == results[1].operators == results[2].operators


def test_methods_agree_with_scaled_rewriting_coefficients():
    # ideals whose reduced basis has only +/-1 coefficients cannot tell a
    # normal-form coefficient from its inverse; this one can: NF(x) = 3/2 y
    x, y = xy_vars()
    gens = [y**2, x.scale(Fraction(5, 3)) - y.scale(Fraction(5, 2))]
    expected = (
        DiffOp(RXY, {(1, (0, 0)): 1}),
        DiffOp(RXY, {(1, (1, 0)): Fraction(3, 2), (1, (0, 1)): 1}),
    )
    zero = (Fraction(0), Fraction(0))
    for build in ALL_METHODS:
        assert build(gens, DegLex(), RXY, zero).operators == expected


def test_shifted_center_rank_one():
    x, y = xy_vars()
    gens = [(x - 2) ** 2, y - 3]
    for build in ALL_METHODS:
        basis = build(gens, DegLex(), RXY, (2, 3))
        assert basis.center == (Fraction(2), Fraction(3))
        assert basis.operators == (
            DiffOp(RXY, {(1, (0, 0)): 1}, (2, 3)),
            DiffOp(RXY, {(1, (1, 0)): 1}, (2, 3)),
        )


def test_module_input_with_center():
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    e1 = Polynomial.constant(RM2, 1, 1)
    e2 = Polynomial.constant(RM2, 1, 2)
    gens = [x1 - e1 + e2, y1, y1 + x2 - e2]
    G = buchberger(gens, ModuleOrder(DegLex(), "top"), RM2)
    basis = noetherian_forward(G, center=(1, 0))
    assert basis.multiplicity == 2
    assert basis.operators == (
        DiffOp(RM2, {(1, (0, 0)): 1}, (1, 0)),
        DiffOp(RM2, {(1, (1, 0)): -1, (2, (0, 0)): 1}, (1, 0)),
    )
    backward = noetherian_backward(G, center=(1, 0))
    assert backward.operators == basis.operators


def test_center_must_be_a_zero():
    x, y = xy_vars()
    G = buchberger([x - 1, y], DegLex(), RXY)
    with pytest.raises(NoethError):
        noetherian_forward(G)
    with pytest.raises(NoethError):
        noetherian_forward(buchberger([x, y], DegLex(), RXY), center=(5, 0))


def test_linear_method_rejects_non_primary_input():
    x, y = xy_vars()
    with pytest.raises(NotPrimaryError, match="not primary at the center"):
        noetherian_linear([x**2 - x, y], DegLex())
    with pytest.raises(ZeroPolynomialError):
        noetherian_linear([Polynomial.zero(RXY)], DegLex())


def test_backward_step_goldens():
    x, y = xy_vars()
    state = x * y
    assert backward_step(state, x**2 - y, DegLex()) == x**3
    # xy pulls up through both non-leading terms of x^2 + xy - 2y: the term
    # xy sends xy to -x^2, the term -2y sends xy to 2 x^3
    assert backward_step(state, x**2 + x * y - 2 * y, DegLex()) == (
        (x**3).scale(2) - x**2
    )
    # a scaled divisor contributes the normal-form coefficient, not its inverse
    assert backward_step(y, x - y.scale(Fraction(3, 2)), DegLex()) == x.scale(Fraction(3, 2))
    assert backward_step(state, x**2 - y**2, DegLex()) is None
    with pytest.raises(ZeroPolynomialError):
        backward_step(x + y, x**2 - y, DegLex())


def test_translate_to_origin():
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    e1 = Polynomial.constant(RM2, 1, 1)
    e2 = Polynomial.constant(RM2, 1, 2)
    gens = [x1 - e1 + e2, y1, y1 + x2 - e2]
    moved = translate_to_origin(gens, (1, 0))
    assert moved == [x1 + e2, y1, y1 + x2]
    rng = random.Random(311)
    for _ in range(20):
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        point = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = translate_to_origin([f], point)[0]
        assert shifted.evaluate((0, 0)) == f.evaluate(point)


def test_monomial_keys_below():
    assert monomial_keys_below(RXY, 2) == [(1, (0, 0)), (1, (1, 0)), (1, (0, 1))]
    assert monomial_keys_below(RM2, 2) == [
        (1, (0, 0)),
        (2, (0, 0)),
        (1, (1, 0)),
        (1, (0, 1)),
        (2, (1, 0)),
        (2, (0, 1)),
    ]


def test_monomial_keys_below_by_degree():
    for ring, bound in ((RXYZ, 5), (RM2, 4), (RX, 3)):
        box = [
            (pos, exp)
            for exp in product(range(bound), repeat=ring.x_count)
            for pos in range(1, ring.rank + 1)
            if sum(exp) < bound
        ]
        assert monomial_keys_below(ring, bound) == sorted(box, key=reading_key)
    start = time.perf_counter()
    keys = monomial_keys_below(RXYZ, 60)
    assert time.perf_counter() - start < 1.0
    assert len(keys) == comb(62, 3)


def reference_forward_rows(G, center=None):
    """Operator term dicts read off one normal form per monomial below mu."""
    ring = G.ring
    G0 = buchberger(translate_to_origin(list(G.elements), center), G.order, ring) if center else G
    stair = staircase(G0)
    mu = stair.multiplicity
    rows = {beta: {} for beta in stair.monomials}
    exps = [e for e in product(range(mu), repeat=ring.nvars) if sum(e) < mu]
    keys = sorted(((pos, e) for e in exps for pos in range(1, ring.rank + 1)), key=reading_key)
    for pos, alpha in keys:
        for beta, c in normal_form(Polynomial.monomial(ring, alpha, 1, pos), G0).terms.items():
            rows[beta][(pos, alpha)] = c
    return [list(rows[beta].items()) for beta in stair.monomials]


def sheared(gens, rng):
    """Images of gens under a random unipotent linear change of coordinates."""
    ring = gens[0].ring
    xs = [Polynomial.variable(ring, i) for i in range(ring.nvars)]
    images = [
        sum((xs[j].scale(rng.randint(-2, 2)) for j in range(i + 1, ring.nvars)), xs[i])
        for i in range(ring.nvars)
    ]
    out = []
    for g in gens:
        h = Polynomial.zero(ring)
        for (_, exp), c in g.terms.items():
            m = Polynomial.constant(ring, c)
            for image, e in zip(images, exp):
                m = m * image**e
            h = h + m
        out.append(h)
    return out


MODULE_COMPONENTS = (
    "ring x, y;\norder lex;\nmoduleorder top;\n"
    "component [x, 1], [y, x], [0, y] at 0, 0;\n"
    "component [x - 1, 1], [y, 0], [0, x - 1], [0, y] at 1, 0;\n"
)


def test_forward_matches_one_normal_form_per_monomial():
    rng = random.Random(331)
    cases = []
    for ring, cap in ((RXY, 12), (RXYZ, 12)):
        for _ in range(4):
            gens = random_origin_primary(rng, ring, cap)
            cases.append((buchberger(gens, DegLex(), ring), None))
            cases.append((buchberger(sheared(gens, rng), DegLex(), ring), None))
    center = (Fraction(3), Fraction(-1, 2))
    for _ in range(3):
        gens = sheared(random_origin_primary(rng, RXY, 10), rng)
        gens = translate_to_origin(gens, [-c for c in center])
        cases.append((buchberger(gens, DegLex(), RXY), center))
    spec = parse_problem(MODULE_COMPONENTS)
    for comp in spec.components:
        G = buchberger(comp.generators, spec.effective_order, spec.ring)
        cases.append((G, comp.center))
    for G, center in cases:
        basis = noetherian_forward(G, center)
        assert [list(L.terms.items()) for L in basis.operators] == reference_forward_rows(G, center)
        assert basis.center == (center or (Fraction(0),) * G.ring.nvars)


def test_forward_rejects_non_primary_input():
    x = Polynomial.variable(RX, "x")
    with pytest.raises(NotPrimaryError):
        noetherian_forward(buchberger([x**2 - x], Lex(), RX))
    a, b = xy_vars()
    with pytest.raises(NotPrimaryError):
        noetherian_forward(buchberger([a * (a - 1) * (a + 2), b], DegLex(), RXY))
    # a zero of a non-rational component elsewhere: x^3 + x = x (x^2 + 1)
    with pytest.raises(NotPrimaryError):
        noetherian_forward(buchberger([x**3 + x], Lex(), RX))
    assert issubclass(NotPrimaryError, NoethError)


def test_backward_rejects_non_primary_input():
    # both used to come back as the operators 1, dx with exit code 0
    x = Polynomial.variable(RX, "x")
    with pytest.raises(NotPrimaryError, match="not primary"):
        noetherian_backward(buchberger([x**2 - x], Lex(), RX))
    a, b = xy_vars()
    with pytest.raises(NotPrimaryError, match="not primary"):
        noetherian_backward(buchberger([a**2 - a, b], DegLex(), RXY))
    with pytest.raises(NotPrimaryError):
        noetherian_backward(buchberger([a * (a - 1) * (a + 2), b], DegLex(), RXY))
    # the linear solve runs short of mu closed operators instead
    with pytest.raises(NotPrimaryError, match="not primary"):
        noetherian_linear([a**2 - a, b], DegLex())


def random_primary_cases(rng):
    """(generators, order, center) primary at the center, known by construction."""
    cases = []
    for ring in (RXY, RXYZ):
        for _ in range(3):
            gens = random_origin_primary(rng, ring, 10)
            cases.append((gens, DegLex(), None))
            cases.append((sheared(gens, rng), DegLex(), None))
    for _ in range(3):
        center = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2), 2))
        gens = sheared(random_origin_primary(rng, RXY, 10), rng)
        cases.append((translate_to_origin(gens, [-c for c in center]), DegLex(), center))
    spec = parse_problem(MODULE_COMPONENTS)
    for comp in spec.components:
        cases.append((comp.generators, spec.effective_order, comp.center))
    return cases


def test_three_constructions_reject_random_non_primary_input():
    # a primary ideal at the origin times the maximal ideal of another point
    rng = random.Random(421)
    for ring in (RXY, RXYZ, RXY, RXYZ):
        xs = [Polynomial.variable(ring, i) for i in range(ring.nvars)]
        other = [xs[0] - 1] + xs[1:]
        gens = [g * h for g in random_origin_primary(rng, ring, 8) for h in other]
        for build in ALL_METHODS:
            with pytest.raises(NotPrimaryError, match="not primary at the center"):
                build(gens, DegLex(), ring, None)


def test_validate_rejects_malformed_bases():
    basis = noetherian_forward(buchberger(hermite_ideal(), DegLex(), RXY))
    zero = basis.center
    ops = basis.operators
    with pytest.raises(NoethError):
        NoetherianBasis(ops, 4, zero, "forward", None).validate()
    with pytest.raises(NoethError):
        NoetherianBasis(ops + (ops[1],), 4, zero, "forward", None).validate()
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    dxdy = DiffOp(RXY, {(1, (1, 1)): 1})
    one = DiffOp.identity(RXY)
    with pytest.raises(NoethError):
        NoetherianBasis((one, dx + dxdy), 2, zero, "forward", None).validate()
    with pytest.raises(NoethError):
        NoetherianBasis((dx, one), 2, zero, "forward", None).validate()
    with pytest.raises(AttributeError):
        basis.multiplicity = 7


def test_membership_by_operators_matches_normal_form():
    rng = random.Random(313)
    G = buchberger(hermite_ideal(), DegLex(), RXY)
    basis = noetherian_forward(G)
    for _ in range(30):
        member = random_combination(rng, hermite_ideal())
        assert membership_by_operators(member, basis)
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        assert membership_by_operators(f, basis) == is_member(f, G)


def test_membership_at_shifted_center():
    x, y = xy_vars()
    gens = [(x - 2) ** 2, y - 3]
    basis = noetherian_linear(gens, DegLex(), center=(2, 3))
    G = buchberger(gens, DegLex(), RXY)
    rng = random.Random(317)
    for _ in range(20):
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=3)
        assert membership_by_operators(f, basis) == normal_form(f, G).is_zero()


def test_ideal_from_conditions_goldens():
    x, y = xy_vars()
    one = DiffOp.identity(RXY)
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    G = ideal_from_conditions([one], 1, DegLex())
    assert set(G.elements) == {x, y}
    G2 = ideal_from_conditions([one, dx], 2, DegLex())
    assert set(G2.elements) == {y, x**2}


def test_ideal_from_conditions_round_trip():
    x, y = xy_vars()
    G = buchberger([x**2 - y, y**2], DegLex(), RXY)
    forward = noetherian_forward(G)
    back = ideal_from_conditions(list(forward), 4, DegLex())
    assert set(back.elements) == {x**2 - y, y**2}
    backward = noetherian_backward(G)
    again = ideal_from_conditions(list(backward), 6, DegLex())
    assert set(again.elements) == {x**2 - y, y**2}


def test_ideal_from_conditions_errors():
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    with pytest.raises(NotClosedError):
        ideal_from_conditions([dx], 3, DegLex())
    with pytest.raises(ZeroPolynomialError):
        ideal_from_conditions([], 3, DegLex())
    with pytest.raises(ZeroPolynomialError):
        ideal_from_conditions([DiffOp(RXY, {})], 3, DegLex())


def test_requires_a_groebner_basis_input():
    with pytest.raises(NoethError):
        noetherian_forward(hermite_ideal())
