"""Parameter-coefficient construction for inputs with free variables."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    DiffOp,
    Lex,
    Polynomial,
    ProductOrder,
    RationalFunction,
    RingDescriptor,
    buchberger,
    check_normal_position,
    cleanup_operators,
    extend_to_rational_coeffs,
    member_positive,
    multiplicity_extended,
    noetherian_forward,
    noetherian_positive,
    normal_form,
    span_equal_operators,
)
from noeth.errors import (
    NoethError,
    NormalPositionError,
    NotEliminationOrderError,
    ZeroPolynomialError,
)
from noeth.noetherian import monomial_keys_below
from noeth.posdim import group_by_x
from support import (
    RM2,
    RXT,
    RXY,
    oracle_buchberger,
    oracle_from,
    oracle_multiplicity,
    oracle_nf,
    oracle_zero,
    random_polynomial,
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


def test_normal_position_report_positive():
    report = check_normal_position(worked_generators(), Lex())
    assert report.ok
    assert report.contraction_trivial
    assert report.contraction_witness is None
    assert report.monic_powers == (2, 2)
    assert report.extended_variety_is_origin
    assert report.gamma == (1,)
    d = report.as_dict()
    assert d["ok"] is True
    assert d["gamma"] == [1]
    assert d["monic_powers"] == [2, 2]
    product = check_normal_position(worked_generators(), ProductOrder(DegLex(), Lex()))
    assert product.ok


def test_normal_position_report_negative():
    report = check_normal_position(unit_after_extension(), Lex())
    assert not report.ok
    assert not report.contraction_trivial
    t = Polynomial.variable(RXT, "t")
    assert report.contraction_witness == t**3 - 1
    assert report.gamma == (3,)


def test_normal_position_single_generator():
    x = Polynomial.variable(RXT, "x")
    t = Polynomial.variable(RXT, "t")
    report = check_normal_position([x - t], Lex())
    assert report.ok
    assert report.monic_powers == (1,)
    assert report.gamma == (0,)


def test_posdim_input_guards():
    with pytest.raises(NotEliminationOrderError):
        check_normal_position(worked_generators(), DegLex())
    with pytest.raises(ZeroPolynomialError):
        check_normal_position([Polynomial.zero(RXT)], Lex())
    module_ring = RingDescriptor(("x", "t"), 1, 1, 2)
    vec = Polynomial.variable(module_ring, "x", 1)
    with pytest.raises(NoethError):
        noetherian_positive([vec], Lex(), module_ring)


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
    assert multiplicity_extended(G) == 2


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
    assert oracle_multiplicity(oracle) == multiplicity_extended(G)


def test_unit_extension_has_multiplicity_zero():
    G = buchberger(unit_after_extension(), Lex(), RXT)
    assert multiplicity_extended(G) == 0


def test_positive_worked_example_raw_and_cleaned():
    raw = noetherian_positive(worked_generators(), Lex(), cleanup=False)
    assert raw.multiplicity == 2
    assert raw.method == "positive"
    t1 = rf_t(RXYT2, {(1,): 1})
    one = rf_t(RXYT2, {(0,): 1})
    assert raw.operators == (
        DiffOp(RXYT2, {(1, (0, 0)): t1}),
        DiffOp(RXYT2, {(1, (1, 0)): one, (1, (0, 1)): t1}),
    )
    cleaned = noetherian_positive(worked_generators(), Lex())
    assert cleaned.operators == (
        DiffOp(RXYT2, {(1, (0, 0)): one}),
        DiffOp(RXYT2, {(1, (1, 0)): one, (1, (0, 1)): t1}),
    )


def test_positive_z_variant():
    basis = noetherian_positive(worked_generators(RXYZ2), Lex())
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
    basis = noetherian_positive(gens, DegLex())
    forward = noetherian_forward(buchberger(gens, DegLex(), RXY))
    assert basis.method == "positive"
    assert basis.operators == forward.operators
    assert basis.multiplicity == forward.multiplicity


def test_positive_rejects_bad_position():
    with pytest.raises(NormalPositionError):
        noetherian_positive(unit_after_extension(), Lex())
    try:
        noetherian_positive(unit_after_extension(), Lex())
    except NormalPositionError as err:
        assert err.report is not None
        assert not err.report.ok


def test_cleanup_preserves_the_span():
    raw = noetherian_positive(worked_generators(), Lex(), cleanup=False)
    cleaned = cleanup_operators(list(raw.operators))
    assert span_equal_operators(list(raw.operators), cleaned)
    # cleanup leaves rational-free operators untouched
    dx = DiffOp(RXY, {(1, (1, 0)): Fraction(2)})
    assert cleanup_operators([dx]) == [dx]


def test_membership_equivalence_randomized():
    rng = random.Random(401)
    gens = worked_generators()
    G = buchberger(gens, Lex(), RXYT2)
    basis = noetherian_positive(gens, Lex())
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


def test_iteration_rows_stabilize_up_to_parameter_power():
    gens = worked_generators()
    G = buchberger(gens, Lex(), RXYT2)
    Gx = extend_to_rational_coeffs(G)
    from noeth import staircase

    stair = staircase(Gx)
    mu = stair.multiplicity
    residual = set(stair.monomials)
    gamma = check_normal_position(gens, Lex()).gamma
    tring = RXYT2.t_subring()
    tpow = Polynomial.monomial(RXYT2, (0, 0) + gamma)

    def rows_after(rounds):
        columns = monomial_keys_below(RXYT2.x_subring(), mu)
        states = {
            (pos, xe): Polynomial.monomial(RXYT2, xe + (0,) * RXYT2.t_count, 1, pos)
            for pos, xe in columns
        }
        for _ in range(rounds):
            states = {k: normal_form(tpow * s, G) for k, s in states.items()}
        rows = {beta: {} for beta in residual}
        for col, state in states.items():
            for beta, tpoly in group_by_x(state).items():
                rows[beta][col] = tpoly
        return rows

    first = rows_after(1)
    # separated after one round: every residual monomial carries a row
    assert all(first[beta] for beta in residual)
    assert len(first) == mu
    second = rows_after(2)
    shift = Polynomial.monomial(tring, gamma)
    for beta in residual:
        assert set(second[beta]) == set(first[beta])
        for col, tp in first[beta].items():
            assert second[beta][col] == shift * tp


def test_raw_operator_count_is_the_multiplicity():
    raw = noetherian_positive(worked_generators(), Lex(), cleanup=False)
    assert len(raw.operators) == raw.multiplicity
    assert all(not L.is_zero() for L in raw.operators)
