"""Parameter-coefficient construction for inputs with free variables."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import noeth.noetherian
from noeth import (
    DegLex,
    DiffOp,
    Lex,
    NoetherianBasis,
    Polynomial,
    ProductOrder,
    RationalFunction,
    RingDescriptor,
    apply_at,
    buchberger,
    is_member,
    member_positive,
    membership_by_operators,
    noetherian_forward,
    noetherian_positive,
    normal_form,
    parse_polynomial,
    parse_problem,
    staircase,
)
from noeth.diffop import Echelon
from noeth.errors import (
    NoethError,
    NormalPositionError,
    NotEliminationOrderError,
    NotPrimaryError,
    ZeroPolynomialError,
)
from noeth.posdim import _cleared_row, extend_to_rational_coeffs, group_by_x
from noeth.ring import reading_key, t_part
from support import (
    RM2,
    RXT,
    RXY,
    fix_parameters,
    one_term_dropped,
    oracle_buchberger,
    oracle_from,
    oracle_multiplicity,
    oracle_nf,
    oracle_zero,
    random_combination,
    random_nonzero,
    random_polynomial,
    reference_normal_form,
    reference_validate,
    validate_mutants,
    validate_outcome,
)

RXYT2 = RingDescriptor(("x", "y", "t"), 2, 1)
RXYZ2 = RingDescriptor(("x", "y", "z"), 2, 1)


def worked_generators(ring=RXYT2):
    x = Polynomial.variable(ring, 0)
    y = Polynomial.variable(ring, 1)
    t = Polynomial.variable(ring, 2)
    return [x**2, y**2, -(x * t) + y]


def unit_after_extension():
    x = Polynomial.variable(RXT, "x")
    t = Polynomial.variable(RXT, "t")
    return [x**2 - t, x * t - 1]


def rf_t(ring, exps_to_coeffs):
    tring = ring.t_subring()
    return RationalFunction(
        Polynomial(tring, {(1, e): c for e, c in exps_to_coeffs.items()})
    )


NOT_IN_NORMAL_POSITION = "the input is not in normal position for the chosen variable split: "


def test_normal_position_holds_for_the_worked_example():
    for order in (Lex(), ProductOrder(DegLex(), Lex())):
        assert noetherian_positive(buchberger(worked_generators(), order)).multiplicity == 2


def test_positive_rejects_bad_position():
    # under lex the basis is x - t^2, t^3 - 1: the contraction is not trivial
    with pytest.raises(NormalPositionError) as err:
        noetherian_positive(buchberger(unit_after_extension(), Lex()))
    assert str(err.value) == NOT_IN_NORMAL_POSITION + "t^3 - 1 lies in the parameter ring"


def test_normal_position_report_negative():
    # the contraction to the parameter ring is (t^3 - 1) under either order, and the check names that witness
    t = Polynomial.variable(RXT, "t")
    for order in (Lex(), ProductOrder(DegLex(), Lex())):
        G0 = buchberger(unit_after_extension(), order)
        assert [g for g in G0.elements if all(e[1][0] == 0 for e in g.terms)] == [t**3 - 1]
        with pytest.raises(NormalPositionError) as err:
            noetherian_positive(G0)
        assert str(err.value) == NOT_IN_NORMAL_POSITION + "t^3 - 1 lies in the parameter ring"


def test_normal_position_names_the_variable_without_a_monic_power():
    # x^2 qualifies; y^2 t does not, since its parameter part becomes a coefficient
    spec = parse_problem("ring x, y | t;\norder lex;\nideal x^2, t*y^2, x*y;\n")
    with pytest.raises(NormalPositionError) as err:
        noetherian_positive(buchberger(spec.generators, spec.effective_order, spec.ring))
    assert str(err.value) == NOT_IN_NORMAL_POSITION + "no leading term is a power of y free of the parameters"


def test_normal_position_single_generator():
    # x - t has the monic power x, so the check passes and the center is named instead
    x = Polynomial.variable(RXT, "x")
    t = Polynomial.variable(RXT, "t")
    with pytest.raises(NotPrimaryError, match="the center is not a zero"):
        noetherian_positive(buchberger([x - t], Lex()))


def test_posdim_input_guards():
    with pytest.raises(NotEliminationOrderError):
        noetherian_positive(buchberger(worked_generators(), DegLex()))
    with pytest.raises(ZeroPolynomialError):
        buchberger([], Lex())
    with pytest.raises(NormalPositionError, match="no leading term is a power of x free of the parameters"):
        noetherian_positive(buchberger([Polynomial.zero(RXT)], Lex()))
    module_ring = RingDescriptor(("x", "t"), 1, 1, 2)
    vec = Polynomial.variable(module_ring, "x", 1)
    with pytest.raises(NoethError):
        noetherian_positive(buchberger([vec], Lex(), module_ring))


def test_posdim_preconditions_come_before_the_translate(monkeypatch):
    # the ring and the order decide both refusals; the move to the center is a Buchberger run
    runs = []

    def counted(*args, _run=noeth.noetherian.buchberger, **kwargs):
        runs.append(args)
        return _run(*args, **kwargs)

    monkeypatch.setattr(noeth.noetherian, "buchberger", counted)
    module_ring = RingDescriptor(("x", "t"), 1, 1, 2)
    cases = (
        (buchberger(worked_generators(), DegLex()), "a block order comparing the x-variables first is required"),
        (buchberger([Polynomial.variable(module_ring, "x", 1)], Lex(), module_ring),
         "the parameter-coefficient construction handles ideals only"),
    )
    for G, message in cases:
        with pytest.raises(NoethError, match=message):
            noetherian_positive(G, (1,) * G.ring.nvars)
    assert runs == []


def test_posdim_entry_points_need_a_groebner_basis():
    with pytest.raises(NoethError, match="expected a Groebner basis"):
        noetherian_positive(worked_generators())


def test_extension_golden():
    G = buchberger(worked_generators(), Lex(), RXYT2)
    x = Polynomial.variable(RXYT2, "x")
    y = Polynomial.variable(RXYT2, "y")
    t = Polynomial.variable(RXYT2, "t")
    assert set(G.elements) == {x**2, x * y, y**2, x * t - y}
    Gx = extend_to_rational_coeffs(G)
    assert not Gx.reduced
    xring = Gx.ring
    assert xring.names == ("x", "y") and xring.t_count == 0
    xx = Polynomial.variable(xring, "x")
    yy = Polynomial.variable(xring, "y")
    one = rf_t(RXYT2, {(0,): 1})
    inv_t = rf_t(RXYT2, {(0,): 1}) / rf_t(RXYT2, {(1,): 1})
    expected = [
        xx**2,
        xx * yy,
        Polynomial(xring, {(1, (1, 0)): one, (1, (0, 1)): -inv_t}),
        yy**2,
    ]
    assert list(Gx.elements) == expected
    assert staircase(extend_to_rational_coeffs(G)).multiplicity == 2


def test_extension_leading_terms_are_x_parts():
    from noeth.orderings import leading_term, sigma_x_order
    from noeth.ring import x_part

    G = buchberger(worked_generators(), Lex(), RXYT2)
    Gx = extend_to_rational_coeffs(G)
    sx = sigma_x_order(G.order, RXYT2)
    original = [
        (key[0], x_part(RXYT2, key[1])) for key, _ in (leading_term(g, G.order) for g in G.elements)
    ]
    extended = [leading_term(g, sx)[0] for g in Gx.elements]
    assert sorted(original) == sorted(extended)


# -- independent check of the extension against a from-scratch division loop ----


@pytest.mark.parametrize(
    "ring,gens_builder",
    [
        (RXYT2, worked_generators),
        (RXYZ2, lambda: worked_generators(RXYZ2)),
    ],
)
def test_extension_matches_independent_division_loop(ring, gens_builder):
    gens = gens_builder()
    zero = oracle_zero(ring)
    G = buchberger(gens, Lex(), ring)
    Gx = extend_to_rational_coeffs(G)
    oracle = oracle_buchberger([oracle_from(g) for g in gens], zero)
    # same ideal in both directions
    for g in Gx.elements:
        as_dict = {key[1]: c for key, c in g.terms.items()}
        assert not oracle_nf(as_dict, oracle, zero)
    xring = Gx.ring
    for b in oracle:
        poly = Polynomial(xring, {(1, e): c for e, c in b.items()})
        assert normal_form(poly, Gx).is_zero()
    assert oracle_multiplicity(oracle) == staircase(extend_to_rational_coeffs(G)).multiplicity


def test_normal_form_matches_reference_division_over_rational_functions():
    rng = random.Random(812)
    cases = [(worked_generators(), Lex()), (worked_generators(RXYZ2), Lex())]
    cases += [random_sheared_posdim(rng) for _ in range(4)]
    for gens, order in cases:
        ring = gens[0].ring
        Gx = extend_to_rational_coeffs(buchberger(gens, order, ring))
        tring = ring.t_subring()
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(ring.x_count))
                num = random_polynomial(rng, tring, max_terms=2, max_deg=2)
                den = random_nonzero(rng, tring, max_terms=2, max_deg=1)
                terms[(1, exp)] = RationalFunction(num, den)
            f = Polynomial(Gx.ring, terms)
            nf = normal_form(f, Gx)
            reference = reference_normal_form(f, Gx.elements, Gx.order)
            assert nf == reference
            assert list(nf.terms) == list(reference.terms)
            assert all(nf.terms.values())


def test_unit_extension_has_multiplicity_zero():
    G = buchberger(unit_after_extension(), Lex(), RXT)
    assert staircase(extend_to_rational_coeffs(G)).multiplicity == 0


def test_positive_worked_example_golden():
    basis = noetherian_positive(buchberger(worked_generators(), Lex()))
    assert basis.multiplicity == 2
    assert basis.method == "positive"
    t1 = rf_t(RXYT2, {(1,): 1})
    one = rf_t(RXYT2, {(0,): 1})
    assert basis.operators == (
        DiffOp(RXYT2, {(1, (0, 0)): one}),
        DiffOp(RXYT2, {(1, (1, 0)): one, (1, (0, 1)): t1}),
    )


def test_positive_z_variant():
    basis = noetherian_positive(buchberger(worked_generators(RXYZ2), Lex()))
    one = rf_t(RXYZ2, {(0,): 1})
    z1 = rf_t(RXYZ2, {(1,): 1})
    assert basis.operators == (
        DiffOp(RXYZ2, {(1, (0, 0)): one}),
        DiffOp(RXYZ2, {(1, (1, 0)): one, (1, (0, 1)): z1}),
    )


def test_zero_parameter_count_delegates_to_forward():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    gens = [x**2 - y, y**2]
    basis = noetherian_positive(buchberger(gens, DegLex()))
    forward = noetherian_forward(buchberger(gens, DegLex(), RXY))
    assert basis.method == "positive"
    assert basis.operators == forward.operators
    assert basis.multiplicity == forward.multiplicity


def test_cleanup_preserves_the_span():
    # a cleared row is the fixed point of its own rational multiples
    rng = random.Random(409)
    tring = RXYT2.t_subring()
    t = Polynomial.variable(tring, 0)
    cases = [worked_generators()] + [random_sheared_posdim(rng)[0] for _ in range(4)]
    for gens in cases:
        for L in noetherian_positive(buchberger(gens, Lex())).operators:
            for _ in range(3):
                num = (t + Polynomial.constant(tring, rng.randint(-3, 3))) ** rng.randint(0, 2)
                den = t ** rng.randint(0, 2) + Polynomial.constant(tring, rng.randint(1, 3))
                scalar = RationalFunction(num.scale(random_nonzero_fraction(rng)), den)
                assert _cleared_row(L.scale(scalar).terms, tring) == L.terms
    # the Fraction entries the walk keeps are cleared with the rest
    half = RationalFunction(Polynomial.constant(tring, 1), t + Polynomial.constant(tring, 2))
    row = {(1, (0, 0)): Fraction(3), (1, (1, 0)): half}
    cleared = _cleared_row(row, tring)
    assert cleared == {(1, (0, 0)): RationalFunction(t + Polynomial.constant(tring, 2)),
                       (1, (1, 0)): RationalFunction(Polynomial.constant(tring, Fraction(1, 3)))}


def test_membership_equivalence_randomized():
    rng = random.Random(401)
    gens = worked_generators()
    G = buchberger(gens, Lex(), RXYT2)
    basis = noetherian_positive(buchberger(gens, Lex()))
    t = Polynomial.variable(RXYT2, "t")
    y = Polynomial.variable(RXYT2, "y")
    residuals = [Polynomial.constant(RXYT2, 1), y]
    for _ in range(100):
        f = Polynomial.zero(RXYT2)
        for g in gens:
            f = f + random_polynomial(rng, RXYT2, max_terms=3, max_deg=2) * g
        assert member_positive(f, basis)
        assert normal_form(f, G).is_zero()
    for _ in range(100):
        f = Polynomial.zero(RXYT2)
        for g in gens:
            f = f + random_polynomial(rng, RXYT2, max_terms=3, max_deg=2) * g
        bump = residuals[rng.randrange(2)] * t ** rng.randint(0, 3)
        bump = bump.scale(Fraction(rng.randint(1, 5)))
        assert not member_positive(f + bump, basis)
        assert not normal_form(f + bump, G).is_zero()


def test_membership_by_operators_refuses_parameters():
    # apply_at reads t^0 coefficients only, which on coefficients in k(t)
    # would call the generator (x + t*y)^2 a non-member
    spec = parse_problem("ring x, y | t;\norder product(deglex, lex);\nideal (x + t*y)^2, y^2;\ncenter 0, 0, 1;\n")
    G = buchberger(spec.generators, spec.effective_order, spec.ring)
    basis = noetherian_positive(G, spec.center)
    for text, verdict in (("(x + t*y)^2", True), ("x", False)):
        f = parse_polynomial(text, spec.ring)
        assert member_positive(f, basis) == is_member(f, G) == verdict
        with pytest.raises(NoethError, match="use member_positive"):
            membership_by_operators(f, basis)
    # rational operators on a parameter ring would fix t at the center's
    # t = 1, where t*x - x vanishes, though it is not in (x^2, y^2)
    x, y, t = (Polynomial.variable(spec.ring, i) for i in range(3))
    ops = tuple(DiffOp(spec.ring, {(1, a): 1}, spec.center) for a in ((0, 0), (1, 0), (0, 1), (1, 1)))
    f = t * x - x
    assert not is_member(f, buchberger([x**2, y**2], spec.effective_order))
    with pytest.raises(NoethError, match="use member_positive"):
        membership_by_operators(f, NoetherianBasis(ops, 4, spec.center, "forward", None))


PARAMETER_POINTS = tuple(Fraction(v) for v in ("-3", "-2", "-1", "-1/2", "0", "1/3", "1", "2", "5/2", "4"))
RXYZT3 = RingDescriptor(("x", "y", "z", "t"), 3, 1)
RXYST2 = RingDescriptor(("x", "y", "s", "t"), 2, 2)


def specialization_case(family, k):
    """Generators, their center and the parameter points of one oracle input.

    The one-parameter families shear x by a*t*y for a seeded a; the center
    moves the zero off the origin, with a nonzero parameter coordinate.
    """
    if family == "two-parameters":
        x, y, s, t = (Polynomial.variable(RXYST2, i) for i in range(4))
        one, two = Polynomial.constant(RXYST2, 1), Polynomial.constant(RXYST2, 2)
        gens = [(x - one + (s - t) * (y - two)) ** k, (y - two) ** k]
        return gens, (1, 2, 5, -1), tuple(zip(PARAMETER_POINTS, reversed(PARAMETER_POINTS)))
    rng = random.Random(505 + k)
    a = random_nonzero_fraction(rng)
    if family == "worked":
        x, y, t = (Polynomial.variable(RXYT2, i) for i in range(3))
        gens, center = [(x + (t * y).scale(a)) ** k, y**k], (Fraction(1), Fraction(-1, 2), Fraction(2))
    else:
        x, y, z, t = (Polynomial.variable(RXYZT3, i) for i in range(4))
        image = x + (t * y).scale(a)
        gens = [image**k, y**k, z**k] + ([image * z] if family == "sheared-z" else [])
        center = (Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(2))
    x_center = center[:-1] + (0,)
    return moved_to(gens, x_center), center, tuple((t0,) for t0 in PARAMETER_POINTS)


@pytest.mark.parametrize(
    "family,k",
    [("worked", 2), ("worked", 3), ("z", 2), ("z", 3), ("sheared-z", 3), ("two-parameters", 2)],
)
def test_positive_specializes_to_forward_at_parameter_points(family, k):
    # at a parameter point t0 the operators L_i(t0) must annihilate g(x, t0)
    # at c_x and span what forward finds for g(x, t0); a point is excluded,
    # before any comparison, where a denominator vanishes or mu differs
    gens, center, points = specialization_case(family, k)
    ring = gens[0].ring
    basis = noetherian_positive(buchberger(gens, ProductOrder(DegLex(), Lex())), center)
    # validate alone refuses every copy with one term dropped
    for copy in one_term_dropped(basis):
        with pytest.raises(NoethError):
            copy.validate()
    xring, cx = ring.x_subring(), center[: ring.x_count]
    qualified = 0
    for t0 in points:
        dens = [c.den.evaluate(t0) for L in basis for c in L.terms.values()]
        special = [fix_parameters(g, t0) for g in gens]
        G0 = buchberger(special, DegLex(), xring)
        if not all(dens) or staircase(G0).multiplicity != basis.multiplicity:
            continue
        qualified += 1
        ops = [
            DiffOp(xring, {key: c.num.evaluate(t0) / c.den.evaluate(t0) for key, c in L.terms.items()}, cx)
            for L in basis
        ]
        assert all(apply_at(L, g) == 0 for L in ops for g in special)
        assert Echelon(ops) == Echelon(noetherian_forward(G0, cx).operators)
    assert qualified >= 8


def reference_positive_rows(gens, order, rounds=None):
    """Operator rows of the parameter-power round loop, polynomial in t.

    Every x-monomial below mu starts as its own state; a round replaces each
    state by the normal form of t^gamma times it over k[x, t].  Without a
    round count, rounds run until the x-monomials left in the states are
    exactly the staircase.  The row at a staircase monomial beta maps each
    starting monomial to the t-polynomial coefficient of x^beta in its state.
    """
    ring = gens[0].ring
    G = buchberger(gens, order, ring)
    stair = staircase(extend_to_rational_coeffs(G))
    mu = stair.multiplicity
    residual = set(stair.monomials)
    gamma = lead_parameter_part(G)
    tpow = Polynomial.monomial(ring, (0,) * ring.x_count + gamma)
    states = {
        (1, xe): Polynomial.monomial(ring, xe + (0,) * ring.t_count)
        for xe in product(range(mu), repeat=ring.x_count)
        if sum(xe) < mu
    }

    def separated():
        return {key for s in states.values() for key in group_by_x(s)} == residual

    done = 0
    while (done < rounds) if rounds is not None else not separated():
        assert done <= mu, "no separation after mu rounds"
        states = {k: normal_form(tpow * s, G) for k, s in states.items()}
        done += 1
    rows = {beta: {} for beta in stair.monomials}
    for col in sorted(states, key=reading_key):
        for beta, tpoly in group_by_x(states[col]).items():
            rows[beta][col] = tpoly
    return [rows[beta] for beta in stair.monomials]


def lead_parameter_part(G):
    """The sum of the parameter exponents of G's leading terms."""
    parts = [t_part(G.ring, exp) for (_, exp), _ in G.leading_terms()]
    return tuple(sum(col) for col in zip(*parts))


def random_center(rng):
    return tuple(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)) for _ in range(RXYT2.nvars))


def moved_to(gens, center):
    """The generators with their zero at the origin moved to center."""
    return [g.substitute_affine([-c for c in center]) for g in gens]


def test_positive_at_a_center_matches_the_origin():
    # only the x-block is moved back; the coefficients stay in the input's t,
    # so they are the origin's coefficients read at t - c_t
    rng = random.Random(413)
    for _ in range(12):
        gens, order = random_sheared_posdim(rng)
        center = random_center(rng)
        at_center = noetherian_positive(buchberger(moved_to(gens, center), order), center)
        at_origin = noetherian_positive(buchberger(gens, order))
        back = [-center[2]]
        assert at_center.center == center
        assert all(L.center == center for L in at_center.operators)
        assert [list(L.terms.items()) for L in at_center.operators] == [
            [(key, RationalFunction(c.num.substitute_affine(back), c.den.substitute_affine(back)))
             for key, c in L.terms.items()]
            for L in at_origin.operators
        ]


def test_member_positive_at_a_center_agrees_with_the_basis():
    rng = random.Random(419)
    verdicts = []
    for _ in range(8):
        gens, order = random_sheared_posdim(rng)
        center = random_center(rng)
        moved = moved_to(gens, center)
        G = buchberger(moved, order)
        basis = noetherian_positive(G, center)
        for _ in range(6):
            f = random_combination(rng, moved, max_terms=2, max_deg=2)
            if rng.random() < 0.5:
                f = f + random_nonzero(rng, RXYT2, max_terms=2, max_deg=2)
            verdicts.append(member_positive(f, basis))
            assert verdicts[-1] == is_member(f, G)
    assert set(verdicts) == {True, False}


def random_sheared_posdim(rng):
    """A monomial ideal in x, y composed with x -> x + c t y, and an order.

    The substitution is an automorphism over k[t], so the image is primary
    over k(t) at the origin and in normal position.
    """
    x, y, t = (Polynomial.variable(RXYT2, i) for i in range(3))
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    exps = [(a, 0), (0, b)]
    if a > 1 and b > 1 and rng.random() < 0.5:
        exps.append((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    image = x + (t * y).scale(random_nonzero_fraction(rng))
    gens = [image**i * y**j for i, j in exps]
    order = rng.choice([Lex(), ProductOrder(Lex(), Lex()), ProductOrder(DegLex(), Lex())])
    return gens, order


def random_nonzero_fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def test_iteration_rows_stabilize_up_to_parameter_power():
    gens = worked_generators()
    G = buchberger(gens, Lex(), RXYT2)
    mu = staircase(extend_to_rational_coeffs(G)).multiplicity
    gamma = lead_parameter_part(G)
    first = reference_positive_rows(gens, Lex(), rounds=1)
    # separated after one round: every residual monomial carries a row
    assert len(first) == mu and all(first)
    assert first == reference_positive_rows(gens, Lex())
    second = reference_positive_rows(gens, Lex(), rounds=2)
    shift = Polynomial.monomial(RXYT2.t_subring(), gamma)
    for row1, row2 in zip(first, second):
        assert set(row2) == set(row1)
        for col, tp in row1.items():
            assert row2[col] == shift * tp


def test_positive_matches_the_round_loop_reference():
    rng = random.Random(403)
    cases = [(worked_generators(), Lex()), (worked_generators(RXYZ2), Lex())]
    cases += [random_sheared_posdim(rng) for _ in range(12)]
    for gens, order in cases:
        ring = gens[0].ring
        tring = ring.t_subring()
        reference = [
            DiffOp(ring, _cleared_row({col: RationalFunction(tp) for col, tp in row.items()}, tring))
            for row in reference_positive_rows(gens, order)
        ]
        basis = noetherian_positive(buchberger(gens, order))
        assert list(basis.operators) == reference
        assert [list(L.terms.items()) for L in basis.operators] == [
            list(L.terms.items()) for L in reference
        ]


def test_validate_matches_the_fraction_reference_over_rational_functions():
    # rational-function operators take validate's field loop, and it
    # accepts and refuses what the old certificate did, with the same error
    rng = random.Random(2905)
    cases = [(worked_generators(), Lex()), (worked_generators(RXYZ2), Lex())]
    cases += [random_sheared_posdim(rng) for _ in range(6)]
    seen = Counter()
    for gens, order in cases:
        basis = noetherian_positive(buchberger(gens, order))
        assert all(isinstance(c, RationalFunction) for L in basis for c in L.terms.values())
        for kind, basis in validate_mutants(basis, rng):
            got = validate_outcome(NoetherianBasis.validate, basis)
            assert got == validate_outcome(reference_validate, basis), kind
            seen[kind, got if got is None else got[0]] += 1
    assert seen["as it is", None] == seen["operator doubled", None] == len(cases)
    assert seen["generator appended", NotPrimaryError] == len(cases)
    assert seen["term dropped", None] == 0


@pytest.mark.parametrize("ideal", ["x^2 - x*t", "x^2 - x", "x - 1"])
def test_positive_rejects_non_primary_input(ideal):
    spec = parse_problem(f"ring x | t;\norder product(lex, lex);\nideal {ideal};\n")
    with pytest.raises(NotPrimaryError, match="not primary at the center"):
        noetherian_positive(buchberger(spec.generators, spec.effective_order, spec.ring))


@pytest.mark.parametrize("center", [None, (1, 1)])
def test_positive_names_a_center_that_is_not_a_zero(center):
    # (x - t) is prime over k(t), but its zero is x = t, not the center's x
    spec = parse_problem("ring x | t;\norder lex;\nideal x - t;\n")
    G = buchberger(spec.generators, spec.effective_order, spec.ring)
    with pytest.raises(NotPrimaryError, match="the center is not a zero of the input for generic parameter values"):
        noetherian_positive(G, center)


def test_positive_multiplicity_64_runs_without_a_monomial_sweep():
    # a sweep over every x-monomial below mu would take 45,760 normal forms here
    spec = parse_problem(
        "ring x, y, z | t;\norder product(deglex, lex);\nideal (x + 2*t*y)^4, y^4, z^4;\n"
    )
    start = time.perf_counter()
    basis = noetherian_positive(buchberger(spec.generators, spec.effective_order, spec.ring))
    assert time.perf_counter() - start < 5.0
    assert basis.multiplicity == len(basis.operators) == 64
