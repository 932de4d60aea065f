"""End-to-end acceptance checks, one per shipped guarantee.

Each test is independent and asserts exact equality; the terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    DiffOp,
    Lex,
    ModuleOrder,
    NormalPositionError,
    Polynomial,
    RingDescriptor,
    buchberger,
    build_solution,
    corner_monomials,
    dual_of_polynomial,
    ideal_from_conditions,
    is_closed,
    membership_by_operators,
    noetherian_backward,
    noetherian_forward,
    noetherian_linear,
    noetherian_positive,
    normal_form,
    parse_problem,
    render_operator,
    render_polynomial,
    staircase,
)
from noeth.diffop import span_equal_operators
from noeth.groebner import s_polynomial
from noeth.posdim import extend_to_rational_coeffs
from support import (
    RXY,
    RXYZ,
    oracle_buchberger,
    oracle_from,
    oracle_multiplicity,
    oracle_nf,
    oracle_zero,
    random_combination,
    random_origin_primary,
    random_polynomial,
)

RXYT2 = RingDescriptor(("x", "y", "t"), 2, 1)
RXYZ2 = RingDescriptor(("x", "y", "z"), 2, 1)
RXT = RingDescriptor(("x", "t"), 1, 1)
RM2 = RingDescriptor(("x", "y"), 2, 0, 2)


def vars_of(ring, *names):
    return tuple(Polynomial.variable(ring, n) for n in names)


def parabola_gens():
    x, y = vars_of(RXY, "x", "y")
    return [y**2, x**2 - y]


def threevar_gens():
    x, y, z = vars_of(RXYZ, "x", "y", "z")
    return [x**2 - z, y**2 - z, z**2]


def membership_gens():
    x, y = vars_of(RXY, "x", "y")
    return [x**2 - y, y**2, x * y]


def module_gens():
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    y2 = Polynomial.variable(RM2, "y", 2)
    e2 = Polynomial.constant(RM2, 1, 2)
    return [x1 + e2, x2 + y1, y2]


def curve_gens(ring):
    x = Polynomial.variable(ring, 0)
    y = Polynomial.variable(ring, 1)
    t = Polynomial.variable(ring, 2)
    return [x**2, y**2, -(x * t) + y]


def test_criterion_01_parabola_golden():
    basis = noetherian_forward(buchberger(parabola_gens(), DegLex(), RXY))
    assert basis.multiplicity == 4
    stair = staircase(basis.source)
    assert set(stair.monomials) == {
        (1, (0, 0)),
        (1, (1, 0)),
        (1, (0, 1)),
        (1, (1, 1)),
    }
    assert basis.operators == (
        DiffOp(RXY, {(1, (0, 0)): 1}),
        DiffOp(RXY, {(1, (1, 0)): 1}),
        DiffOp(RXY, {(1, (0, 1)): 1, (1, (2, 0)): 1}),
        DiffOp(RXY, {(1, (1, 1)): 1, (1, (3, 0)): 1}),
    )
    assert [render_operator(L, DegLex()) for L in basis.operators] == [
        "1",
        "dx",
        "1/2 dx^2 + dy",
        "1/6 dx^3 + dx dy",
    ]


def test_criterion_02_backward_golden():
    G = buchberger(threevar_gens(), DegLex(), RXYZ)
    stair = staircase(G)
    assert set(corner_monomials(stair, G)) == {(1, (1, 1, 1))}
    backward = noetherian_backward(G)
    forward = noetherian_forward(G)
    x, y, z = vars_of(RXYZ, "x", "y", "z")
    corner_op = dual_of_polynomial(x**3 * y + x * y**3 + x * y * z)
    assert backward.operators[-1] == corner_op
    assert render_operator(corner_op, DegLex()) == "1/6 dx^3 dy + 1/6 dx dy^3 + dx dy dz"
    assert len(backward.operators) == 8 and len(forward.operators) == 8
    backward.validate()
    assert span_equal_operators(list(backward.operators), list(forward.operators))


def test_criterion_03_module_golden():
    order = ModuleOrder(Lex(), "top")
    G = buchberger(module_gens(), order, RM2)
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    y2 = Polynomial.variable(RM2, "y", 2)
    e2 = Polynomial.constant(RM2, 1, 2)
    y_sq_1 = Polynomial.monomial(RM2, (0, 2), position=1)
    assert set(G.elements) == {x1 + e2, x2 + y1, y2, y_sq_1}
    stair = staircase(G)
    assert stair.multiplicity == 3
    assert set(stair.monomials) == {(1, (0, 0)), (2, (0, 0)), (1, (0, 1))}
    basis = noetherian_forward(G)
    assert basis.operators == (
        DiffOp(RM2, {(1, (0, 0)): 1}),
        DiffOp(RM2, {(1, (1, 0)): -1, (2, (0, 0)): 1}),
        DiffOp(RM2, {(1, (2, 0)): 1, (1, (0, 1)): 1, (2, (1, 0)): -1}),
    )
    assert [render_operator(L, order) for L in basis.operators] == [
        "(1, 0)",
        "(-dx, 1)",
        "(1/2 dx^2 + dy, -dx)",
    ]


def test_criterion_04_pde_golden():
    text = (
        "ring x, y;\norder lex;\nmoduleorder top;\n"
        "component [x, 1], [y, x], [0, y] at 0, 0;\n"
        "component [x - 1, 1], [y, 0], [y, x - 1] at 1, 0;\n"
    )
    spec = parse_problem(text)
    parts = []
    for comp in spec.components:
        G = buchberger(comp.generators, spec.effective_order, spec.ring)
        parts.append((comp.center, noetherian_forward(G, comp.center)))
    first, second = (basis for _, basis in parts)
    assert first.operators == (
        DiffOp(spec.ring, {(1, (0, 0)): 1}),
        DiffOp(spec.ring, {(1, (1, 0)): -1, (2, (0, 0)): 1}),
        DiffOp(spec.ring, {(1, (2, 0)): 1, (1, (0, 1)): 1, (2, (1, 0)): -1}),
    )
    # the second component is printed elsewhere with the opposite sign on the
    # order-one operator; the two presentations differ by the exact scalar -1
    # and therefore span the same dual space
    printed = (
        DiffOp(spec.ring, {(1, (0, 0)): 1}, (1, 0)),
        DiffOp(spec.ring, {(1, (1, 0)): 1, (2, (0, 0)): -1}, (1, 0)),
    )
    assert second.operators[0] == printed[0]
    assert second.operators[1] == printed[1].scale(-1)
    assert span_equal_operators(list(second.operators), list(printed))

    family = build_solution(spec.ring, parts)
    origin = (Fraction(0), Fraction(0))
    shifted = (Fraction(1), Fraction(0))
    assert family.structure() == {
        (1, (0, 0), origin),
        (1, (1, 0), origin),
        (1, (0, 1), origin),
        (1, (2, 0), origin),
        (2, (0, 0), origin),
        (2, (1, 0), origin),
        (1, (0, 0), shifted),
        (1, (1, 0), shifted),
        (2, (0, 0), shifted),
    }
    # renaming-free fingerprint: polynomial degrees per component match the
    # closed-form family {1, z, z^2, t} and {e^z, z e^z}
    comp1 = {alpha for p, alpha, c in family.structure() if c == origin}
    comp2 = {alpha for p, alpha, c in family.structure() if c == shifted}
    assert comp1 == {(0, 0), (1, 0), (2, 0), (0, 1)}
    assert comp2 == {(0, 0), (1, 0)}


def test_criterion_05_positive_dimensional_golden():
    gens = curve_gens(RXYT2)
    G = buchberger(gens, Lex(), RXYT2)
    x, y, t = vars_of(RXYT2, "x", "y", "t")
    assert set(G.elements) == {x**2, x * y, y**2, x * t - y}
    cleaned = noetherian_positive(buchberger(gens, Lex()))
    assert cleaned.multiplicity == 2
    assert [render_operator(L, Lex()) for L in cleaned.operators] == ["1", "dx + t dy"]
    variant = noetherian_positive(buchberger(curve_gens(RXYZ2), Lex()))
    assert [render_operator(L, Lex()) for L in variant.operators] == ["1", "dx + z dy"]


def test_criterion_06_normal_position_negative_golden():
    x, t = vars_of(RXT, "x", "t")
    gens = [x**2 - t, x * t - 1]
    assert set(buchberger(gens, DegLex(), RXT).elements) == {
        x**2 - t,
        x * t - 1,
        t**2 - x,
    }
    assert set(buchberger(gens, Lex(), RXT).elements) == {x - t**2, t**3 - 1}
    with pytest.raises(NormalPositionError) as err:
        noetherian_positive(buchberger(gens, Lex()))
    assert str(err.value) == (
        "the input is not in normal position for the chosen variable split: t^3 - 1 lies in the parameter ring"
    )


def fixed_zero_dimensional_ideals():
    rng = random.Random(71)
    cases = [
        (parabola_gens(), RXY),
        (threevar_gens(), RXYZ),
        (membership_gens(), RXY),
    ]
    for ring in (RXY, RXYZ):
        while True:
            gens = random_origin_primary(rng, ring, cap=12)
            G = buchberger(gens, DegLex(), ring)
            if staircase(G).multiplicity <= 12:
                cases.append((gens, ring))
                break
    return cases


def test_criterion_07_membership_equivalence():
    rng = random.Random(73)
    for gens, ring in fixed_zero_dimensional_ideals():
        G = buchberger(gens, DegLex(), ring)
        basis = noetherian_forward(G)
        discrepancies = 0
        for k in range(200):
            if k % 2:
                f = random_combination(rng, gens, max_terms=3, max_deg=3)
            else:
                f = random_polynomial(rng, ring, max_terms=6, max_deg=5)
            by_division = normal_form(f, G).is_zero()
            by_operators = membership_by_operators(f, basis)
            if by_division != by_operators:
                discrepancies += 1
        assert discrepancies == 0


def test_criterion_08_three_method_span_agreement():
    cases = [(gens, ring, DegLex()) for gens, ring in fixed_zero_dimensional_ideals()]
    cases.append((module_gens(), RM2, ModuleOrder(Lex(), "top")))
    x, y = vars_of(RXY, "x", "y")
    shifted = [(x - 2) ** 2, y - 3]
    for gens, ring, order in cases:
        G = buchberger(gens, order, ring)
        forward = noetherian_forward(G)
        backward = noetherian_backward(G)
        linear = noetherian_linear(G)
        assert span_equal_operators(list(forward.operators), list(backward.operators))
        assert span_equal_operators(list(forward.operators), list(linear.operators))
        assert forward.operators == backward.operators == linear.operators
    G = buchberger(shifted, DegLex(), RXY)
    center = (2, 3)
    results = [
        noetherian_forward(G, center),
        noetherian_backward(G, center),
        noetherian_linear(G, center),
    ]
    assert span_equal_operators(list(results[0].operators), list(results[1].operators))
    assert span_equal_operators(list(results[0].operators), list(results[2].operators))


def test_criterion_09_structural_invariants():
    rng = random.Random(79)
    for gens, ring in fixed_zero_dimensional_ideals():
        G = buchberger(gens, DegLex(), ring)
        basis = noetherian_forward(G)
        mu = basis.multiplicity
        assert len(basis.operators) == mu
        assert is_closed(list(basis.operators))
        assert all(L.degree() < mu for L in basis.operators)
        members = set(staircase(G).monomials)
        for pos, exp in members:
            for i, e in enumerate(exp):
                if e:
                    lower = tuple(v - 1 if i == j else v for j, v in enumerate(exp))
                    assert (pos, lower) in members
        for _ in range(20):
            f = random_polynomial(rng, ring, max_terms=5, max_deg=5)
            nf = normal_form(f, G)
            assert normal_form(nf, G) == nf
        for i, f in enumerate(G.elements):
            for g in list(G.elements)[i + 1 :]:
                assert normal_form(s_polynomial(f, g, G.order), G).is_zero()
    # leading terms survive the move to rational parameter coefficients
    for ring, gens in (
        (RXYT2, curve_gens(RXYT2)),
        (RXYZ2, curve_gens(RXYZ2)),
        (RXT, None),
    ):
        if gens is None:
            x, t = vars_of(RXT, "x", "t")
            gens = [x**2 - t, x * t - 1]
        zero = oracle_zero(ring)
        G = buchberger(gens, Lex(), ring)
        Gx = extend_to_rational_coeffs(G)
        oracle = oracle_buchberger([oracle_from(g) for g in gens], zero)
        for g in Gx.elements:
            assert not oracle_nf({k[1]: c for k, c in g.terms.items()}, oracle, zero)
        for b in oracle:
            poly = Polynomial(Gx.ring, {(1, e): c for e, c in b.items()})
            assert normal_form(poly, Gx).is_zero()
        assert oracle_multiplicity(oracle) == staircase(extend_to_rational_coeffs(G)).multiplicity


def test_criterion_10_round_trip():
    for gens, ring in (
        (parabola_gens(), RXY),
        (membership_gens(), RXY),
        (threevar_gens(), RXYZ),
    ):
        G = buchberger(gens, DegLex(), ring)
        basis = noetherian_forward(G)
        recovered = ideal_from_conditions(list(basis.operators), DegLex())
        assert recovered.elements == G.elements
