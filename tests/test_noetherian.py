"""The three dual-basis constructions and the inverse problem."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import noeth.noetherian
from noeth import (
    POT,
    TOP,
    DegLex,
    DegRevLex,
    DiffOp,
    Lex,
    ModuleOrder,
    NoetherianBasis,
    Polynomial,
    RationalFunction,
    apply_at,
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
)
from noeth.errors import (
    InfiniteStaircaseError,
    NoethError,
    NotClosedError,
    NotPrimaryError,
    RingMismatchError,
    ZeroPolynomialError,
)
from noeth.posdim import extend_to_rational_coeffs
from noeth.ring import reading_key
from support import (
    RM2,
    RX,
    RXY,
    RXYZ,
    module_vector,
    one_term_dropped,
    random_combination,
    random_origin_primary,
    random_polynomial,
    reference_dual_rows,
)


def xy_vars():
    return Polynomial.variable(RXY, "x"), Polynomial.variable(RXY, "y")


def hermite_ideal():
    x, y = xy_vars()
    return [x**2 - y, y**2, x * y]


ALL_METHODS = (
    lambda gens, order, ring, center: noetherian_forward(buchberger(gens, order, ring), center),
    lambda gens, order, ring, center: noetherian_backward(buchberger(gens, order, ring), center),
    lambda gens, order, ring, center: noetherian_linear(buchberger(gens, order, ring), center),
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
        # validate alone refuses every copy with one term dropped
        for basis in results:
            for copy in one_term_dropped(basis):
                with pytest.raises(NoethError):
                    copy.validate()


def test_linear_evaluates_each_candidate_once(monkeypatch):
    # one kernel for the whole run: no candidate is applied to a generator
    # twice, and the span's rows are the canonical basis as they stand
    evaluated = []
    apply = noeth.noetherian.apply_at

    def counted(L, f):
        evaluated.append((frozenset(L.terms.items()), f))
        return apply(L, f)

    def refuse(*args, **kwargs):
        raise AssertionError("linear canonicalizes through its own span")

    monkeypatch.setattr(noeth.noetherian, "apply_at", counted)
    monkeypatch.setattr(noeth.diffop, "canonical_operator_basis", refuse)
    monkeypatch.setattr(noeth.noetherian, "canonical_operator_basis", refuse, raising=False)
    cases = [(buchberger(gens, order, gens[0].ring), center) for gens, order, center in
             random_primary_cases(random.Random(420))]
    cases.append((buchberger(shifted_module(), ModuleOrder(DegLex(), "top"), RM2), (1, 0)))
    for G, center in cases:
        evaluated.clear()
        linear = noetherian_linear(G, center)
        assert evaluated and len(set(evaluated)) == len(evaluated)
        # term for term: same coefficients on the same keys, at the same center
        assert linear.operators == noetherian_forward(G, center).operators


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


def shifted_module():
    """Generators of a rank-2 module primary at the center (1, 0)."""
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    e1 = Polynomial.constant(RM2, 1, 1)
    e2 = Polynomial.constant(RM2, 1, 2)
    return [x1 - e1 + e2, y1, y1 + x2 - e2]


def test_module_input_with_center():
    G = buchberger(shifted_module(), ModuleOrder(DegLex(), "top"), RM2)
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
    off = "not primary at the center: the center is not a zero of the input"
    for build in (noetherian_forward, noetherian_backward, noetherian_linear):
        with pytest.raises(NotPrimaryError, match=off):
            build(G)
        with pytest.raises(NotPrimaryError, match=off):
            build(buchberger([x, y], DegLex(), RXY), center=(5, 0))


def test_linear_method_rejects_non_primary_input():
    x, y = xy_vars()
    with pytest.raises(NotPrimaryError, match="not primary at the center"):
        noetherian_linear(buchberger([x**2 - x, y], DegLex()))
    # the zero ideal is a basis over RXY with no pure powers
    with pytest.raises(InfiniteStaircaseError):
        noetherian_linear(buchberger([Polynomial.zero(RXY)], DegLex()))


def test_translate_to_origin():
    x1 = Polynomial.variable(RM2, "x", 1)
    y1 = Polynomial.variable(RM2, "y", 1)
    x2 = Polynomial.variable(RM2, "x", 2)
    e2 = Polynomial.constant(RM2, 1, 2)
    moved = [g.substitute_affine((1, 0)) for g in shifted_module()]
    assert moved == [x1 + e2, y1, y1 + x2]
    rng = random.Random(311)
    for _ in range(20):
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        point = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = f.substitute_affine(point)
        assert shifted.evaluate((0, 0)) == f.evaluate(point)


def reference_forward_rows(G, center=None):
    """Operator term dicts read off one normal form per monomial below mu."""
    ring = G.ring
    G0 = buchberger([g.substitute_affine(center) for g in G.elements], G.order, ring) if center else G
    stair = staircase(G0)
    mu = stair.multiplicity
    rows = {beta: {} for beta in stair.monomials}
    exps = [e for e in product(range(mu), repeat=ring.nvars) if sum(e) < mu]
    keys = sorted(((pos, e) for e in exps for pos in range(1, ring.rank + 1)), key=reading_key)
    for pos, alpha in keys:
        for beta, c in normal_form(Polynomial.monomial(ring, alpha, 1, pos), G0).terms.items():
            rows[beta][(pos, alpha)] = c
    return [list(rows[beta].items()) for beta in stair.monomials]


def sheared(gens, rng, scalar=None):
    """Images of gens under a random unipotent linear change of coordinates.

    The off-diagonal coefficients are drawn from scalar(), by default
    integers in [-2, 2].
    """
    ring = gens[0].ring
    scalar = scalar or (lambda: rng.randint(-2, 2))
    xs = [Polynomial.variable(ring, i) for i in range(ring.nvars)]
    images = [
        sum((xs[j].scale(scalar()) for j in range(i + 1, ring.nvars)), xs[i])
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
        gens = [g.substitute_affine([-c for c in center]) for g in gens]
        cases.append((buchberger(gens, DegLex(), RXY), center))
    spec = parse_problem(MODULE_COMPONENTS)
    for comp in spec.components:
        G = buchberger(comp.generators, spec.effective_order, spec.ring)
        cases.append((G, comp.center))
    for G, center in cases:
        basis = noetherian_forward(G, center)
        assert [list(L.terms.items()) for L in basis.operators] == reference_forward_rows(G, center)
        assert basis.center == (center or (Fraction(0),) * G.ring.nvars)


def mixed_fraction(rng):
    """A small fraction, or one with numerator and denominator up to 2^40."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.randint(-(2**40), 2**40), rng.randint(2**20, 2**40))


def test_dual_rows_match_the_fraction_walk():
    rng = random.Random(433)
    cases = []
    for ring in (RXY, RXYZ):
        for _ in range(4):
            gens = sheared(random_origin_primary(rng, ring, 10), rng, lambda: mixed_fraction(rng))
            center = tuple(mixed_fraction(rng) for _ in range(ring.nvars))
            moved = [g.substitute_affine([-c for c in center]).scale(mixed_fraction(rng) or 1) for g in gens]
            cases.append((buchberger(moved, DegLex(), ring), center))
    # rank 2: I1 e1 and (h g, g) for g in I2, primary when I1 and I2 are
    for order in (ModuleOrder(DegLex(), TOP), ModuleOrder(DegRevLex(), POT)):
        for _ in range(3):
            first, second = (
                sheared(random_origin_primary(rng, RXY, 6), rng, lambda: mixed_fraction(rng)) for _ in range(2)
            )
            h = random_polynomial(rng, RXY, max_terms=3, max_deg=2).scale(mixed_fraction(rng) or 1)
            gens = [module_vector(g, 0) for g in first] + [module_vector(h * g, g) for g in second]
            center = (mixed_fraction(rng), mixed_fraction(rng))
            moved = [g.substitute_affine([-c for c in center]) for g in gens]
            cases.append((buchberger(moved, order, RM2), center))
    spec = parse_problem(MODULE_COMPONENTS)
    cases += [(buchberger(c.generators, spec.effective_order, spec.ring), c.center) for c in spec.components]
    # Under lex a border normal form can hold staircase monomials of higher
    # degree than the border monomial: NF(x) = y^2 for x - y^2, y^3.
    x, y = xy_vars()
    cases.append((buchberger([x - y**2, y**3], Lex(), RXY), None))
    for ring in (RXY, RXYZ):
        for _ in range(3):
            gens = sheared(random_origin_primary(rng, ring, 10), rng, lambda: mixed_fraction(rng))
            center = tuple(mixed_fraction(rng) for _ in range(ring.nvars))
            cases.append((buchberger([g.substitute_affine([-c for c in center]) for g in gens], Lex(), ring), center))
    for _ in range(2):
        first, second = (random_origin_primary(rng, RXY, 6) for _ in range(2))
        h = random_polynomial(rng, RXY, max_terms=3, max_deg=2).scale(mixed_fraction(rng) or 1)
        gens = [module_vector(g, 0) for g in first] + [module_vector(h * g, g) for g in second]
        cases.append((buchberger(gens, ModuleOrder(Lex(), POT), RM2), None))
    # e1 lies outside the staircase (e1 = -x e2) and has a nonzero normal form
    spec = parse_problem("ring x, y; order deglex; module [1, x], [0, y], [0, x^2];")
    cases.append((buchberger(spec.generators, spec.effective_order, spec.ring), None))
    largest = 0
    for G, center in cases:
        G0, _ = noeth.noetherian.translate(G, center)
        stair = staircase(G0)
        rows = noeth.noetherian.dual_rows(G0, stair)
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in reference_dual_rows(G0, stair)]
        assert all(type(c) is Fraction for r in rows for c in r.values())
        largest = max([largest] + [c.denominator for r in rows for c in r.values()])
    assert largest > 2**64
    # over the parameter ring the walk runs on rational-function coefficients
    spec = parse_problem(
        "ring x, y | t;\norder product(deglex, lex);\n"
        "ideal (x - 2 + 7/3*t*y)^3, y^2 - 5/11*t*(x - 2)*y;\ncenter 2, 0, 5/3;\n"
    )
    G0, _ = noeth.noetherian.translate(buchberger(spec.generators, spec.effective_order, spec.ring), spec.center)
    Gx = extend_to_rational_coeffs(G0)
    stair = staircase(Gx)
    rows = noeth.noetherian.dual_rows(Gx, stair)
    reference = reference_dual_rows(Gx, stair)
    assert [[(k, c, type(c)) for k, c in r.items()] for r in rows] == [
        [(k, c, type(c)) for k, c in r.items()] for r in reference
    ]
    assert any(type(c) is RationalFunction for r in rows for c in r.values())


def test_the_forward_walk_divides_each_monomial_at_most_once(monkeypatch):
    divided = []
    divide = noeth.noetherian._divide

    def counted(p, *rest):
        divided.append(next(iter(p)))
        return divide(p, *rest)

    monkeypatch.setattr(noeth.noetherian, "_divide", counted)
    x, y = xy_vars()
    # x*y is x times y and y times x, one border monomial
    noetherian_forward(buchberger([x**2, x * y, y**2], DegLex(), RXY))
    assert sorted(divided) == [(1, (0, 2)), (1, (1, 1)), (1, (2, 0))]
    rng = random.Random(2801)
    for ring, order in ((RXY, DegRevLex()), (RXYZ, DegLex()), (RXYZ, Lex())):
        for _ in range(3):
            divided.clear()
            noetherian_forward(buchberger(sheared(random_origin_primary(rng, ring, 12), rng), order, ring))
            assert divided and len(divided) == len(set(divided))


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
        noetherian_linear(buchberger([a**2 - a, b], DegLex()))


def test_backward_stops_once_the_closure_outgrows_the_multiplicity(monkeypatch):
    rows = []
    add = noeth.diffop.Echelon.add
    monkeypatch.setattr(noeth.diffop.Echelon, "add", lambda self, row: rows.append(row) or add(self, row))
    # y^2 - y = y (y - 1): mu 3, and the corner operators close on 5 rows
    x, y = xy_vars()
    G = buchberger([y**2 - y, x**2 * y**2 - 2 * x * y - x], DegLex(), RXY)
    assert staircase(G).multiplicity == 3
    with pytest.raises(NotPrimaryError, match="^the input is not primary at the center: .+ multiplicity 3$"):
        noetherian_backward(G)
    dx3 = DiffOp(RX, {(1, (3,)): Fraction(1)})
    rows.clear()
    with pytest.raises(NotPrimaryError, match="multiplicity 2$"):
        noeth.diffop.closure([dx3], bound=2)
    assert len(rows) == 3  # it stops at the third row: dx^3, dx^2, dx
    assert len(noeth.diffop.closure([dx3], bound=4)) == 4
    # the closure checks of a span take no bound
    assert noeth.diffop.is_closed(noeth.diffop.closure([dx3]))


def test_tracer_sees_the_closure_inside_backward(monkeypatch):
    # Backward must reach closure through the diffop module global, or the
    # closure counters of a traced pass read zero.
    from test_bench_tracer import pinned_tracer

    tracer = pinned_tracer(monkeypatch)
    try:
        tracer.install()
        G = buchberger(hermite_ideal(), DegLex(), RXY)
        basis = noeth.noetherian.noetherian_backward(G)
    finally:
        monkeypatch.undo()
    assert len(basis) == 3
    names = tracer.names
    closures = [i for i, name in enumerate(names) if name == "diffop.closure"]
    assert len(closures) == 1
    assert names[tracer.parent[closures[0]]] == "noetherian.noetherian_backward"


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
        cases.append(([g.substitute_affine([-c for c in center]) for g in gens], DegLex(), center))
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
    # independent and closed, but every key of 1 is a key of 1 + dx
    with pytest.raises(NoethError, match="no key at which every other operator is 0"):
        NoetherianBasis((one, one + dx), 2, zero, "forward", None).validate()
    # the operators 1, dx, dy, dx dy of (x^2, y^2) do not annihilate (y^2, x^2 - y), also of multiplicity 4
    x, y = xy_vars()
    squares = noetherian_forward(buchberger([x**2, y**2], DegLex(), RXY)).operators
    with pytest.raises(NotPrimaryError, match="^the input is not primary at the center: an operator does not"):
        NoetherianBasis(squares, 4, zero, "forward", buchberger([y**2, x**2 - y], DegLex(), RXY)).validate()
    with pytest.raises(AttributeError):
        basis.multiplicity = 7


def test_validate_asks_the_first_operator_for_an_order_zero_term():
    # at rank 2 the first canonical row may mix positions: (1, -dx) for e1 = -x e2
    origin = (Fraction(0), Fraction(0))
    mixed = DiffOp(RM2, {(1, (0, 0)): 1, (2, (1, 0)): -1})
    e2 = DiffOp.identity(RM2, 2)
    NoetherianBasis((mixed, e2), 2, origin, "forward", None).validate()
    dx_at_e2 = DiffOp(RM2, {(2, (1, 0)): 1})
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    for ops in ((dx, DiffOp.identity(RXY)), (dx_at_e2, e2)):
        with pytest.raises(NoethError, match="the first operator must have a term of order zero"):
            NoetherianBasis(ops, 2, origin, "forward", None).validate()


def test_membership_by_operators_matches_normal_form():
    rng = random.Random(313)
    G = buchberger(hermite_ideal(), DegLex(), RXY)
    basis = noetherian_forward(G)
    for _ in range(30):
        member = random_combination(rng, hermite_ideal())
        assert membership_by_operators(member, basis)
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=4)
        assert membership_by_operators(f, basis) == is_member(f, G)


def test_membership_at_shifted_center(monkeypatch):
    x, y = xy_vars()
    gens = [(x - 2) ** 2, y - 3]
    G = buchberger(gens, DegLex(), RXY)
    basis = noetherian_linear(G, center=(2, 3))
    rng = random.Random(317)
    for _ in range(20):
        f = random_polynomial(rng, RXY, max_terms=5, max_deg=3)
        assert membership_by_operators(f, basis) == normal_form(f, G).is_zero()
    # the first operator is the identity, and a polynomial it does not
    # annihilate is refused without reading the others
    reads = []
    monkeypatch.setattr(Polynomial, "coefficient", lambda f, key, _read=Polynomial.coefficient: reads.append(key) or _read(f, key))
    assert len(basis) == 2 and not membership_by_operators((x - 2) ** 2 + 1, basis)
    assert reads == [(1, (0, 0))]


def test_a_basis_placed_at_a_center():
    x, y = xy_vars()
    at_origin = noetherian_linear(buchberger([x**2, y], DegLex(), RXY))
    placed = at_origin.at((2, 3))
    assert placed.operators == noetherian_linear(buchberger([(x - 2) ** 2, y - 3], DegLex(), RXY), (2, 3)).operators
    assert placed.center == (2, 3) and {L.center for L in placed} == {(2, 3)}
    with pytest.raises(RingMismatchError):
        at_origin.at((2,))


def test_membership_and_conditions_move_each_polynomial_once(monkeypatch):
    # a basis at a shifted center moves each probe, and each monomial the
    # inverse visits, to the center once, not once per operator
    rng = random.Random(2401)
    cases = [case for case in random_primary_cases(rng) if case[2] and any(case[2])]
    expected = []
    for gens, order, center in cases:
        G = buchberger(gens, order, gens[0].ring)
        basis = noetherian_forward(G, center)
        probes = [random_combination(rng, gens), random_polynomial(rng, G.ring, max_terms=5, max_deg=4)]
        verdicts = [all(apply_at(L, f) == 0 for L in basis.operators) for f in probes]
        expected.append((G, basis, probes, verdicts))
    moves = Counter()
    substitute = Polynomial.substitute_affine

    def counted(f, point):
        moves[f, tuple(point)] += 1
        return substitute(f, point)

    monkeypatch.setattr(Polynomial, "substitute_affine", counted)
    for G, basis, probes, verdicts in expected:
        assert len(basis) > 1
        moves.clear()
        assert [membership_by_operators(f, basis) for f in probes] == verdicts
        assert verdicts[0] and sum(moves.values()) == len(probes)
        moves.clear()
        assert ideal_from_conditions(basis.operators, G.order).elements == G.elements
        assert moves and max(moves.values()) == 1


def test_ideal_from_conditions_goldens():
    x, y = xy_vars()
    one = DiffOp.identity(RXY)
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    dx2 = DiffOp(RXY, {(1, (2, 0)): 1})
    assert ideal_from_conditions([one], DegLex()).elements == (x, y)
    assert ideal_from_conditions([one, dx], DegLex()).elements == (x**2, y)
    # a degree bound of 1 or 2 used to give (y), whose staircase is infinite
    assert ideal_from_conditions([one, dx, dx2], DegLex()).elements == (x**3, y)
    at = (1, 0)
    shifted = [DiffOp.identity(RXY, center=at), DiffOp(RXY, {(1, (1, 0)): 1}, at)]
    assert ideal_from_conditions(shifted, DegLex()).elements == (x**2 - x.scale(2) + 1, y)
    x1, y1, x2, y2 = (Polynomial.variable(RM2, n, pos) for pos in (1, 2) for n in ("x", "y"))
    e2 = Polynomial.constant(RM2, 1, 2)
    one2 = DiffOp.identity(RM2)
    dx2 = DiffOp(RM2, {(1, (1, 0)): 1})
    module_ops = [one2, dx2 + DiffOp(RM2, {(2, (0, 0)): 1})]
    assert ideal_from_conditions(module_ops, ModuleOrder(DegLex(), TOP)).elements == (
        x1 - e2,
        x2,
        y1,
        y2,
    )
    # repeated and combined operators add nothing; a position that no
    # operator reads is the whole free module there, so its unit is a lead
    for precedence in (TOP, POT):
        order = ModuleOrder(DegLex(), precedence)
        G = ideal_from_conditions([one2, dx2, dx2.scale(3), one2 + dx2], order)
        assert G.elements == (Polynomial.monomial(RM2, (2, 0), 1, 1), y1, e2)


def test_ideal_from_conditions_round_trip():
    x, y = xy_vars()
    G = buchberger([x**2 - y, y**2], DegLex(), RXY)
    forward = noetherian_forward(G)
    back = ideal_from_conditions(list(forward), DegLex())
    assert set(back.elements) == {x**2 - y, y**2}
    backward = noetherian_backward(G)
    again = ideal_from_conditions(list(backward), DegLex())
    assert set(again.elements) == {x**2 - y, y**2}


def test_round_trip_of_every_construction_under_every_order(monkeypatch):
    def no_buchberger(*args, **kwargs):
        raise AssertionError("the inverse must not run buchberger")

    rng = random.Random(430)
    for base in (DegLex(), DegRevLex(), Lex()):
        for gens, _, center in random_primary_cases(rng):
            ring = gens[0].ring
            order = ModuleOrder(base, rng.choice((TOP, POT))) if ring.rank > 1 else base
            G = buchberger(gens, order, ring)
            for build in ALL_METHODS:
                ops = build(gens, order, ring, center).operators
                with monkeypatch.context() as patch:
                    patch.setattr(noeth.noetherian, "buchberger", no_buchberger)
                    back = ideal_from_conditions(ops, order)
                assert back.elements == G.elements


def test_ideal_from_conditions_errors():
    dx = DiffOp(RXY, {(1, (1, 0)): 1})
    with pytest.raises(NotClosedError):
        ideal_from_conditions([dx], DegLex())
    with pytest.raises(ZeroPolynomialError):
        ideal_from_conditions([], DegLex())
    with pytest.raises(ZeroPolynomialError):
        ideal_from_conditions([DiffOp(RXY, {})], DegLex())


def test_requires_a_groebner_basis_input():
    with pytest.raises(NoethError):
        noetherian_forward(hermite_ideal())
