"""Deterministic text and JSON output."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    DegRevLex,
    DiffOp,
    Lex,
    ModuleOrder,
    Polynomial,
    RationalFunction,
    ProductOrder,
    RingDescriptor,
    render_module_term,
    render_operator,
    render_polynomial,
)
from noeth.orderings import POT, TOP
from noeth.render import (
    coeff_string,
    emit_json,
    operator_json,
    operators_fragment,
    polynomial_fragment,
    polynomial_json,
    ring_json,
)
from support import (
    RM2,
    RXY,
    random_exponent,
    random_polynomial,
    random_ratfun_operator,
    reference_coeff_string,
    reference_operator_json,
    reference_operator_keys,
    reference_operator_text,
    reference_polynomial_json,
    reference_render_operator,
    reference_render_polynomial,
)

RXYT2 = RingDescriptor(("x", "y", "t"), 2, 1)


def tpoly(exps_to_coeffs):
    tring = RXYT2.t_subring()
    return Polynomial(tring, {(1, e): c for e, c in exps_to_coeffs.items()})


def test_polynomial_text_goldens():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    assert render_polynomial(Polynomial.zero(RXY)) == "0"
    assert render_polynomial(x**2 - y, DegLex()) == "x^2 - y"
    assert render_polynomial(x**2 - y) == "-y + x^2"
    f = x**2 - 3 * y + Polynomial.constant(RXY, Fraction(1, 2))
    assert render_polynomial(f, DegLex()) == "x^2 - 3 y + 1/2"
    assert render_polynomial(x.scale(Fraction(3, 4)), DegLex()) == "3/4 x"
    assert render_polynomial(-x, DegLex()) == "-x"
    assert render_polynomial(Polynomial.constant(RXY, -5)) == "-5"
    assert render_polynomial(x * y**2, DegLex()) == "x y^2"


def test_module_vector_text():
    x1 = Polynomial.variable(RM2, "x", 1)
    e1 = Polynomial.constant(RM2, 1, 1)
    e2 = Polynomial.constant(RM2, 1, 2)
    assert render_polynomial(x1 - e1 + e2, DegLex()) == "[x - 1, 1]"
    assert render_polynomial(x1, DegLex()) == "[x, 0]"


def test_rational_coefficient_text():
    xring = RXYT2.x_subring()
    one = RationalFunction(tpoly({(0,): 1}))
    t = RationalFunction(tpoly({(1,): 1}))
    f = Polynomial(xring, {(1, (1, 0)): one, (1, (0, 1)): -(one / t)})
    assert render_polynomial(f, DegLex()) == "x - 1/t y"
    g = Polynomial(xring, {(1, (1, 0)): (t + 1) / t})
    assert render_polynomial(g, DegLex()) == "(1 + t)/t x"
    assert coeff_string(t * t) == "t^2"
    assert coeff_string(Fraction(-3, 7)) == "-3/7"


def test_operator_text_goldens():
    assert render_operator(DiffOp.identity(RXY)) == "1"
    assert render_operator(DiffOp(RXY, {(1, (1, 0)): 1})) == "dx"
    L = DiffOp(RXY, {(1, (2, 0)): 1, (1, (0, 1)): 1})
    assert render_operator(L) == "1/2 dx^2 + dy"
    assert render_operator(DiffOp(RXY, {(1, (1, 1)): 1, (1, (3, 0)): 1})) == "1/6 dx^3 + dx dy"
    assert render_operator(DiffOp(RXY, {(1, (1, 0)): Fraction(-2)})) == "-2 dx"
    assert render_operator(DiffOp(RXY, {})) == "0"


def test_module_operator_text():
    L = DiffOp(RM2, {(1, (1, 0)): -1, (2, (0, 0)): 1})
    assert render_operator(L) == "(-dx, 1)"
    assert render_operator(DiffOp.identity(RM2)) == "(1, 0)"


def test_parameter_operator_text():
    from noeth import Lex

    one = RationalFunction(tpoly({(0,): 1}))
    t = RationalFunction(tpoly({(1,): 1}))
    L = DiffOp(RXYT2, {(1, (1, 0)): one, (1, (0, 1)): t})
    assert render_operator(L, Lex()) == "dx + t dy"
    assert render_operator(L) == "t dy + dx"
    M = DiffOp(RXYT2, {(1, (1, 0)): (t + 1) / t})
    assert render_operator(M) == "(1 + t)/t dx"


RXYST = RingDescriptor(("x", "y", "s", "t"), 2, 2)
RXYST2 = RingDescriptor(("x", "y", "s", "t"), 2, 2, 2)


def _st():
    tring = RXYST.t_subring()
    return tuple(RationalFunction(Polynomial.variable(tring, name)) for name in ("s", "t"))


def _ratfun_cases():
    s, t = _st()
    one = s / s
    return [
        ({(1, (1, 0)): -t}, "-t dx", "-t dx", ["-t"]),
        ({(1, (1, 0)): one, (1, (0, 1)): -t}, "dx - t dy", "-t dy + dx", ["1", "-t"]),
        (
            {(1, (1, 0)): one * Fraction(3, 2), (1, (0, 0)): one * -2, (1, (0, 2)): one * Fraction(-1, 3)},
            "3/2 dx - 1/6 dy^2 - 2",
            "-1/6 dy^2 + 3/2 dx - 2",
            ["3/2", "-1/3", "-2"],
        ),
        ({(1, (1, 0)): 2 * t}, "2 t dx", "2 t dx", ["2 t"]),
        (
            {(1, (1, 0)): (s + t) / (t - 1), (1, (0, 0)): (s * t - 1) / (s + t * t)},
            "(s + t)/(-1 + t) dx + (-1 + s t)/(s + t^2)",
            "(s + t)/(-1 + t) dx + (-1 + s t)/(s + t^2)",
            ["(s + t)/(-1 + t)", "(-1 + s t)/(s + t^2)"],
        ),
        (
            {(1, (1, 0)): -t / (s + 1), (1, (0, 1)): -2 * s * t / (t + 1), (1, (0, 0)): one},
            "-t/(1 + s) dx - 2 s t/(1 + t) dy + 1",
            "-2 s t/(1 + t) dy - t/(1 + s) dx + 1",
            ["-t/(1 + s)", "-2 s t/(1 + t)", "1"],
        ),
    ]


@pytest.mark.parametrize("terms, lex_text, reading_text, coeffs", _ratfun_cases())
def test_rational_function_coefficient_goldens(terms, lex_text, reading_text, coeffs):
    from noeth import Lex

    L = DiffOp(RXYST, terms)
    assert render_operator(L, Lex()) == lex_text
    assert render_operator(L) == reading_text
    assert [term["coeff"] for term in operator_json(L, Lex())["terms"]] == coeffs


@pytest.mark.parametrize("ring", [RXYST, RXYST2])
def test_rational_function_text_matches_the_reference_writer(ring):
    # the term writer before coeff_string became the one coefficient text
    from noeth import Lex

    rng = random.Random(2501)
    for _ in range(1000):
        L = random_ratfun_operator(rng, ring)
        for order in (None, Lex()):
            keys = reference_operator_keys(ring, L.terms, order)
            assert render_operator(L, order) == reference_operator_text(L, keys)
            assert operator_json(L, order)["terms"] == [
                {"pos": pos, "alpha": list(alpha), "coeff": reference_coeff_string(L.terms[(pos, alpha)])}
                for pos, alpha in keys
            ]


def test_render_module_term():
    assert render_module_term(RXY, (1, (0, 0))) == "1"
    assert render_module_term(RXY, (1, (1, 1))) == "x y"
    assert render_module_term(RM2, (2, (0, 0))) == "e2"
    assert render_module_term(RM2, (1, (0, 1))) == "y*e1"


def test_polynomial_json_golden():
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    doc = polynomial_json(x**2 - y, DegLex())
    assert doc == {
        "terms": [
            {"pos": 1, "exp": [2, 0], "coeff": "1"},
            {"pos": 1, "exp": [0, 1], "coeff": "-1"},
        ]
    }


def test_operator_json_golden():
    L = DiffOp(RXY, {(1, (2, 0)): 1, (1, (0, 1)): 1})
    doc = operator_json(L)
    assert doc == {
        "terms": [
            {"pos": 1, "alpha": [2, 0], "coeff": "1"},
            {"pos": 1, "alpha": [0, 1], "coeff": "1"},
        ]
    }


def test_ring_json_golden():
    assert ring_json(RXYT2) == {
        "names": ["x", "y", "t"],
        "x_count": 2,
        "t_count": 1,
        "rank": 1,
    }


def test_emit_json_is_deterministic():
    doc = {"ring": ring_json(RM2), "values": [1, 2, {"a": "b"}]}
    text1 = emit_json(doc)
    text2 = emit_json({"ring": ring_json(RM2), "values": [1, 2, {"a": "b"}]})
    assert text1 == text2
    assert json.loads(text1) == doc


_JSON_CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∂", " ", "𝔽", "a", "Z", "0", " "]


def _random_json_doc(rng: random.Random, depth: int):
    """A random document of the types emit_json accepts."""
    kind = rng.randrange(6 if depth else 4)
    if kind == 0:
        return _random_json_string(rng)
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([0, -1, 7, 2**64, -(3**90)]) + rng.randrange(-3, 4)
    if kind == 3:
        return rng.choice([[], {}])
    if kind == 4:
        return [_random_json_doc(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {_random_json_string(rng): _random_json_doc(rng, depth - 1) for _ in range(rng.randrange(4))}


def _random_json_string(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))


def test_emit_json_matches_json_dumps_on_random_documents():
    rng = random.Random(1601)
    for _ in range(2000):
        doc = {"doc": _random_json_doc(rng, rng.randrange(5))}
        assert emit_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("bad", [1.5, None, (1, 2), Fraction(1, 2), {1: "a"}])
def test_emit_json_refuses_other_types(bad):
    with pytest.raises(TypeError):
        emit_json({"terms": [{"coeff": bad}]})


# -- the one-pass writers against the per-term reference writers -----------------------

RTAU = RingDescriptor(("x", "y", "τ"), 2, 1)  # a non-ASCII name, in JSON "names" and in coefficient text
RTAU2 = RingDescriptor(("x", "y", "τ"), 2, 1, 2)
WIDE = 2**64


def _big_fraction(rng: random.Random) -> Fraction:
    """A coefficient whose parts may pass 2^64, its numerator often sharing part of a small alpha!."""
    num = rng.choice([1, 2, 3, 4, 6, 8, 12, 24, 120, WIDE + 1, 3 * WIDE, 720 * WIDE + 5])
    return Fraction(rng.choice([num, -num]), rng.choice([1, 1, 2, 5, 9, WIDE - 1, 7**40]))


def _random_operators(rng: random.Random, ring: RingDescriptor, ratfun: bool) -> list:
    """Operators of one ring: zero ones, ones with positions left empty, rational-function ones when asked."""
    ops = []
    for _ in range(6):
        if ratfun and rng.random() < 0.5:
            ops.append(random_ratfun_operator(rng, ring))
            continue
        terms = {}
        for _ in range(rng.randrange(5)):
            pos = 1 if rng.random() < 0.4 else rng.randint(1, ring.rank)
            terms[(pos, random_exponent(rng, ring.x_count, 5))] = _big_fraction(rng)
        ops.append(DiffOp(ring, terms))
    return ops


def _random_polynomials(rng: random.Random, ring: RingDescriptor) -> list:
    polys = [random_polynomial(rng, ring) for _ in range(3)]
    polys.append(Polynomial(ring, {(1, random_exponent(rng, ring.nvars, 6)): _big_fraction(rng)}))
    return polys


def _orders(ring: RingDescriptor) -> list:
    bases = [Lex(), DegLex(), DegRevLex()]
    if ring.t_count:
        bases += [ProductOrder(DegLex(), Lex()), ProductOrder(DegRevLex(), DegLex())]
    if ring.rank > 1:
        return [None, bases[1]] + [ModuleOrder(b, p) for b in bases for p in (TOP, POT)]
    return [None] + bases


@pytest.mark.parametrize(
    "ring",
    [RXY, RM2, RXYT2, RTAU, RTAU2, RXYST, RXYST2],
    ids=["xy", "xy-rank2", "xyt", "xytau", "xytau-rank2", "xyst", "xyst-rank2"],
)
def test_one_pass_writers_match_the_reference_writers(ring):
    # Text, operator_json and the emitted document of every operator list and
    # polynomial against the writers that went term by term; an equal ring
    # that is another object exercises the writers' lookup by identity.
    rng = random.Random(3001 + len(ring.names) * 10 + ring.rank)
    twin = RingDescriptor(ring.names, ring.x_count, ring.t_count, ring.rank)
    for order in _orders(ring):
        for r in (ring, twin, ring):
            ops = _random_operators(rng, r, ratfun=bool(r.t_count))
            assert [render_operator(L, order) for L in ops] == [reference_render_operator(L, order) for L in ops]
            assert [operator_json(L, order) for L in ops] == [reference_operator_json(L, order) for L in ops]
            polys = _random_polynomials(rng, r)
            assert [render_polynomial(f, order) for f in polys] == [
                reference_render_polynomial(f, order) for f in polys
            ]
            doc = {
                "ring": ring_json(r),
                "operators": operators_fragment(ops, order),
                "nested": [{"operators": operators_fragment(ops[:1], order)}, operators_fragment([], order)],
                "basis": [polynomial_fragment(f, order) for f in polys],
                "result": polynomial_fragment(polys[0], order),
            }
            expected = {
                "ring": ring_json(r),
                "operators": [reference_operator_json(L, order) for L in ops],
                "nested": [{"operators": [reference_operator_json(ops[0], order)]}, []],
                "basis": [reference_polynomial_json(f, order) for f in polys],
                "result": reference_polynomial_json(polys[0], order),
            }
            assert emit_json(doc) == json.dumps(expected, indent=2)


def test_rational_function_coefficient_polynomials_match_the_reference_writers():
    rng = random.Random(3002)
    for ring in (RTAU, RTAU2, RXYST2):
        xring = ring.x_subring()
        for _ in range(40):
            f = Polynomial(xring, random_ratfun_operator(rng, ring).terms)
            for order in (None, Lex()):
                assert render_polynomial(f, order) == reference_render_polynomial(f, order)
                doc = {"result": polynomial_fragment(f, order)}
                assert emit_json(doc) == json.dumps({"result": reference_polynomial_json(f, order)}, indent=2)


def test_scaled_coefficient_goldens():
    # c / alpha! in lowest terms: alpha! cancels partly, fully, or not at all
    assert render_operator(DiffOp(RXY, {(1, (3, 2)): Fraction(8, 5)})) == "2/15 dx^3 dy^2"
    assert render_operator(DiffOp(RXY, {(1, (3, 0)): Fraction(-12, 7)})) == "-2/7 dx^3"
    assert render_operator(DiffOp(RXY, {(1, (2, 0)): Fraction(WIDE + 1, 3)})) == f"{WIDE + 1}/6 dx^2"
    assert render_operator(DiffOp(RM2, {(2, (1, 1)): Fraction(-1)})) == "(0, -dx dy)"
