"""Problem-file parsing: grammar, diagnostics, and render round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    Lex,
    Polynomial,
    ProductOrder,
    parse_polynomial,
    parse_problem,
    render_polynomial,
)
from noeth.errors import ParseError
from noeth.problem import tokenize
from support import RM2, RXT, RXY, RXYZ, random_polynomial

WORKED = """
# a plane curve with an embedded parameter direction
ring x, y | t;
order product(lex, lex);
ideal x^2, y^2, -x*t + y;
"""


def test_parenthesised_powers_parse_to_repeated_products():
    x, y = Polynomial.variable(RXY, "x"), Polynomial.variable(RXY, "y")
    base = x + y.scale(Fraction(-2, 3)) + 1
    expect = Polynomial.constant(RXY, 1)
    for k in range(9):
        assert parse_polynomial(f"(x - 2/3*y + 1)^{k}", RXY) == expect
        spec = parse_problem(f"ring x, y;\norder deglex;\nideal (x - 2/3*y + 1)^{k}, y^2;\n")
        assert spec.generators[0] == expect
        expect = expect * base


def test_worked_problem_file():
    spec = parse_problem(WORKED)
    assert spec.ring.names == ("x", "y", "t")
    assert spec.ring.x_count == 2
    assert spec.ring.t_count == 1
    assert spec.ring.rank == 1
    assert isinstance(spec.order, ProductOrder)
    x = Polynomial.variable(spec.ring, "x")
    y = Polynomial.variable(spec.ring, "y")
    t = Polynomial.variable(spec.ring, "t")
    assert spec.generators == (x**2, y**2, -(x * t) + y)
    assert spec.center is None
    assert spec.components == ()
    assert spec.effective_order == spec.order


def test_module_problem_file():
    spec = parse_problem("ring x, y; order lex; moduleorder pot; module [x, 1], [y, 0];")
    assert spec.ring.rank == 2
    assert spec.module_precedence == "pot"
    x1 = Polynomial.variable(spec.ring, "x", 1)
    e2 = Polynomial.constant(spec.ring, 1, 2)
    y1 = Polynomial.variable(spec.ring, "y", 1)
    assert spec.generators == (x1 + e2, y1)
    assert spec.effective_order.precedence == "pot"
    assert spec.effective_order.base == Lex()


def test_scalar_component_clauses():
    text = (
        "ring x, y; order deglex;\n"
        "component x^2, y at 0, 0;\n"
        "component (x - 1)^2, y at 1, 0;\n"
    )
    spec = parse_problem(text)
    assert spec.ring.rank == 1
    assert len(spec.components) == 2
    first, second = spec.components
    assert first.center == (Fraction(0), Fraction(0))
    assert second.center == (Fraction(1), Fraction(0))
    x = Polynomial.variable(spec.ring, "x")
    y = Polynomial.variable(spec.ring, "y")
    assert first.generators == (x**2, y)
    assert second.generators == ((x - 1) ** 2, y)


def test_module_component_clauses():
    text = (
        "ring x, y; order deglex;\n"
        "component [x, 1], [y, 0] at 0, 0;\n"
        "component [x - 1, 1], [y, 0], [y, x - 1] at 1, 0;\n"
    )
    spec = parse_problem(text)
    assert spec.ring.rank == 2
    first, second = spec.components
    x1 = Polynomial.variable(spec.ring, "x", 1)
    y1 = Polynomial.variable(spec.ring, "y", 1)
    e1 = Polynomial.constant(spec.ring, 1, 1)
    e2 = Polynomial.constant(spec.ring, 1, 2)
    x2 = Polynomial.variable(spec.ring, "x", 2)
    assert first.generators == (x1 + e2, y1)
    assert second.generators == (x1 - e1 + e2, y1, y1 + x2 - e2)
    assert second.center == (Fraction(1), Fraction(0))


def test_center_clause_and_fractions():
    spec = parse_problem("ring x, y; order deglex; ideal x^2, y; center 1/2, -3;")
    assert spec.center == (Fraction(1, 2), Fraction(-3))


def test_comments_are_ignored():
    spec = parse_problem("# header\nring x; # inline\norder lex;\nideal x^2; # done\n")
    x = Polynomial.variable(spec.ring, "x")
    assert spec.generators == (x**2,)


def test_keyword_reservation():
    with pytest.raises(ParseError) as err:
        parse_problem("ring lex; order lex; ideal lex;")
    assert "reserved" in str(err.value)
    assert err.value.line == 1
    assert err.value.column == 6


def test_vector_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x; order lex; module [x, 1], [x, 1, 0];")
    assert "vector lengths disagree" in str(err.value)
    with pytest.raises(ParseError) as err2:
        parse_problem("ring x, y; order lex;\ncomponent [x, 1] at 0, 0;\ncomponent y at 0, 0;")
    assert "scalar generators cannot mix" in str(err2.value)
    for clause in ("module [x], [y, x^2], [0, y^2], [x^2, 0];", "component [x], [y, x^2], [0, y^2] at 0, 0;"):
        with pytest.raises(ParseError, match=r"vector lengths disagree: \[1, 2\]"):
            parse_problem(f"ring x, y; order deglex;\n{clause}")
    spec = parse_problem("ring x, y; order deglex; module [x], [y], [x^2];")
    assert spec.ring.rank == 1 and len(spec.generators) == 3


def test_point_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x, y; order lex; ideal x; center 1;")
    assert "expected 2 coordinates, got 1" in str(err.value)


def test_dangling_operator_position():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x; order lex; ideal x +")
    assert err.value.line == 1
    assert err.value.column == 28
    assert "'+'" in str(err.value)
    with pytest.raises(ParseError) as err2:
        parse_problem("ring x, y; order lex;\nideal x *;")
    assert err2.value.line == 2
    assert err2.value.column == 9


def test_error_positions_on_later_lines():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x, y;\norder lex;\nideal x ^ y;")
    assert err.value.line == 3
    assert err.value.column == 11
    with pytest.raises(ParseError) as err2:
        parse_problem("ring x;\norder lex;\nideal q;")
    assert "unknown variable 'q'" in str(err2.value)
    assert err2.value.line == 3 and err2.value.column == 7


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_problem("ring x; order lex; ideal x @ y;")
    assert err.value.column == 28


@pytest.mark.parametrize(
    "expression, bad, column",
    [("x^²", "²", 3), ("x^2²", "²", 4), ("٣*x", "٣", 1)],
)
def test_non_ascii_digits_are_unexpected_characters(expression, bad, column):
    with pytest.raises(ParseError) as err:
        parse_polynomial(expression, RXY)
    assert f"unexpected character {bad!r}" in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)
    with pytest.raises(ParseError) as err2:
        parse_problem(f"ring x, y;\norder lex;\nideal y, {expression};\n")
    assert (err2.value.line, err2.value.column) == (3, 9 + column)


# Expected texts, lines and columns were taken from the character-by-character
# scanner and token-method parser that the one-pattern scanner replaced.
@pytest.mark.parametrize(
    "text, expected",
    [
        ("x + y\n# note", {(1, (1, 0)): 1, (1, (0, 1)): 1}),
        ("x # note", {(1, (1, 0)): 1}),
        ("x + (y # note", ("expected ')'", 1, 8)),
        ("é + x", ("unknown variable 'é'", 1, 1)),
        ("x²", ("unexpected character '²'", 1, 2)),
        ("½*x", ("unexpected character '½'", 1, 1)),
        ("x٣", ("unexpected character '٣'", 1, 2)),
        ("y + ٣", ("unexpected character '٣'", 1, 5)),
        ("e\u0301", ("unexpected character '\u0301'", 1, 2)),
        ("x\x0b", ("unexpected character '\\x0b'", 1, 2)),
        ("2/0*x", ("zero denominator", 1, 1)),
        ("x - 2/0", ("zero denominator", 1, 5)),
        ("3/x", ("expected a denominator", 1, 3)),
        ("x^", ("expected an integer exponent", 1, 3)),
        ("x^(2)", ("expected an integer exponent", 1, 3)),
        ("3*", ("expected a factor after '*'", 1, 2)),
        ("x +", ("expected a term after '+'", 1, 3)),
        ("* x", ("expected a number, variable, or parenthesized expression", 1, 1)),
        ("- -x", {(1, (1, 0)): 1}),
        ("(x)^2*3/4", {(1, (2, 0)): Fraction(3, 4)}),
        ("3/4^2*x", {(1, (1, 0)): Fraction(9, 16)}),
        ("0^0*x", {(1, (1, 0)): 1}),
        ("x*0", {}),
        ("\tx\t+\ty", {(1, (1, 0)): 1, (1, (0, 1)): 1}),
        ("x\r\n+ y", {(1, (1, 0)): 1, (1, (0, 1)): 1}),
        ("x y)", ("trailing input after expression", 1, 4)),
        ("x + 1 ;", ("trailing input after expression", 1, 7)),
        ("x\n  y ;", ("trailing input after expression", 2, 5)),
    ],
)
def test_expression_lexing_and_diagnostics(text, expected):
    if isinstance(expected, dict):
        assert parse_polynomial(text, RXY).terms == expected
        return
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, RXY)
    message, line, column = expected
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, expected",
    [
        # a comment does not advance the column, so the end sits at its '#'
        ("ring x;\norder lex;\nideal x # c", ("expected ';'", 3, 9)),
        ("ring x;\norder lex;\nideal x  ", ("expected ';'", 3, 10)),
        ("ring x;\norder lex;\nideal x;\n;", ("expected a clause keyword", 4, 1)),
        ("ring x;\norder lex;\nideal x, é;", ("unknown variable 'é'", 3, 10)),
        ("ring x;\norder lex;\nideal x, x²;", ("unexpected character '²'", 3, 11)),
        ("ring x;\norder lex;\ncenter 2/0;\nideal x;", ("zero denominator", 3, 8)),
        # a generator clause before the ring clause
        ("order lex;\nideal x;", ("generators appear before the ring clause", 2, 1)),
        ("order lex;\nmodule [x, 1];", ("generators appear before the ring clause", 2, 1)),
        ("order lex;\ncomponent x at 0;", ("generators appear before the ring clause", 2, 1)),
        ("order lex;\ncenter 0;", ("generators appear before the ring clause", 2, 1)),
        # a clause without its ';'
        ("ring x\norder lex;\nideal x;", ("expected ';'", 2, 1)),
        ("ring x | t\norder lex;\nideal x;", ("expected ';'", 2, 1)),
        ("ring x;\norder lex\nideal x;", ("expected ';'", 3, 1)),
        ("ring x, y;\norder lex;\nmoduleorder pot\nmodule [x, 1];", ("expected ';'", 4, 1)),
        ("ring x;\norder lex;\nideal x;\ncenter 0\n", ("expected ';'", 5, 1)),
        ("ring x;\norder lex;\ncomponent x at 0\ncomponent x - 1 at 1;", ("expected ';'", 4, 1)),
        # clause keywords
        ("ring x;\nlex;", ("unexpected keyword 'lex' at clause start", 2, 1)),
        ("ring x, y;\norder lex;\nmoduleorder lex;", ("expected top or pot", 3, 13)),
        ("ring x, y;\norder lex;\nmoduleorder x;", ("expected top or pot", 3, 13)),
        ("ring x;\norder lex;\norder deglex;", ("repeated 'order' clause", 3, 1)),
        ("ring x; order lex;\ncomponent x at 0;\nring y;", ("repeated 'ring' clause", 3, 1)),
        ("ring x;\ncenter 0;\norder lex;\ncenter 1;", ("repeated 'center' clause", 4, 1)),
        ("ring x;\norder lex;\nideal x;\nmodule [x];", ("a file gives either an 'ideal' or a 'module' clause", 4, 1)),
        ("ring x;\norder lex;\nmodule [x];\nideal x;", ("a file gives either an 'ideal' or a 'module' clause", 4, 1)),
        # checks after the last clause: vector widths, then a product order on a ring without parameters
        ("ring x, y;\norder lex;\nmodule [x, 1];\ncomponent [x, 1, 0] at 0, 0;", ("vector lengths disagree: [2, 3]", 4, 29)),
        ("ring x, y;\norder lex;\ncomponent [x, 1] at 0, 0;\ncomponent [y] at 0, 0;", ("vector lengths disagree: [1, 2]", 4, 23)),
        ("ring x, y;\norder lex;\nmodule [x, 1], [y, 0];\ncomponent y at 0, 0;",
         ("scalar generators cannot mix with module vectors", 4, 21)),
        ("ring x, y;\norder lex;\ncomponent x, [y, 1] at 0, 0;", ("scalar generators cannot mix with module vectors", 3, 29)),
        ("ring x;\norder product(lex, lex);\nideal x;", ("product order needs a ring with a parameter block", 2, 7)),
        ("ring x;\nideal x;\norder product(lex,\n  deglex);\ncenter 0;",
         ("product order needs a ring with a parameter block", 3, 7)),
        # an ideal clause's generators are scalars: beside vectors the error is at the clause
        ("ring x, y;\norder lex;\nideal x, y^2;\ncomponent [x, 1], [y, 0], [0, y] at 0, 0;",
         ("scalar generators cannot mix with module vectors", 3, 1)),
        ("ring x, y;\norder lex;\ncomponent [1, x] at 0, 0;\n  ideal x;", ("scalar generators cannot mix with module vectors", 4, 3)),
    ],
)
def test_problem_file_lexing_and_diagnostics(text, expected):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    message, line, column = expected
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, end",
    [("", (1, 1)), ("x  ", (1, 4)), ("x # c", (1, 3)), ("x\n  # c", (2, 3)), ("x # c\n", (2, 1))],
)
def test_end_token_position(text, end):
    token = tokenize(text)[-1]
    assert (token.kind, token.line, token.column) == ("end", *end)


def test_missing_clauses():
    with pytest.raises(ParseError) as err:
        parse_problem("order lex; ideal x;")
    assert "before the ring clause" in str(err.value)
    with pytest.raises(ParseError):
        parse_problem("ring x; ideal x;")
    with pytest.raises(ParseError) as err2:
        parse_problem("order lex;")
    assert "missing ring clause" in str(err2.value)


def test_unknown_order_and_nesting():
    with pytest.raises(ParseError):
        parse_problem("ring x; order fancy; ideal x;")
    with pytest.raises(ParseError) as err:
        parse_problem("ring x | t; order product(product(lex, lex), lex); ideal x;")
    assert "do not nest" in str(err.value)


def test_parse_polynomial_standalone():
    f = parse_polynomial("x^2 - 2 y + 3/4", RXY)
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    assert f == x**2 - 2 * y + Polynomial.constant(RXY, Fraction(3, 4))
    vec = parse_polynomial("[x - 1, 1]", RM2)
    x1 = Polynomial.variable(RM2, "x", 1)
    e1 = Polynomial.constant(RM2, 1, 1)
    e2 = Polynomial.constant(RM2, 1, 2)
    assert vec == x1 - e1 + e2
    with pytest.raises(ParseError):
        parse_polynomial("[x, 1, 0]", RM2)
    with pytest.raises(ParseError):
        parse_polynomial("x y extra ;", RXY)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x*2*y^2", lambda x, y: 2 * x * y**2),
        ("x*x", lambda x, y: x**2),
        ("2^3*x", lambda x, y: 8 * x),
        ("-(x+1)^2*y", lambda x, y: -((x + 1) ** 2 * y)),
        ("- -x", lambda x, y: x),
        ("(x+1)*3", lambda x, y: 3 * x + 3),
        ("(x - y) 3/4 y", lambda x, y: (x * y - y**2).scale(Fraction(3, 4))),
        ("x^0*0*(x+y)", lambda x, y: Polynomial.zero(RXY)),
        ("x*(x+y)^0", lambda x, y: x),
        ("(x+1)(x-1)*2", lambda x, y: 2 * x**2 - 2),
        ("y (x+y)^2 x (x-y)", lambda x, y: x * y * (x + y) ** 2 * (x - y)),
    ],
)
def test_term_folds_numbers_and_variables(text, expected):
    x = Polynomial.variable(RXY, "x")
    y = Polynomial.variable(RXY, "y")
    assert parse_polynomial(text, RXY) == expected(x, y)


def test_long_sum_parses_like_its_terms_added():
    rng = random.Random(509)
    terms = []
    for _ in range(300):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        mono = "*".join(f"{v}^{rng.randint(0, 3)}" for v in ("x", "y", "z"))
        terms.append(f"{coeff}*{mono}")
    # repeated monomials with opposite signs cancel along the way
    terms += [t[1:] if t.startswith("-") else "-" + t for t in terms[:40]]
    text = " + ".join(terms).replace("+ -", "- ")
    total = Polynomial.zero(RXYZ)
    for t in terms:
        total = total + parse_polynomial(t, RXYZ)
    f = parse_polynomial(text, RXYZ)
    assert f == total
    assert all(f.terms.values())


def test_render_parse_round_trip_500():
    rng = random.Random(503)
    rings = [RXY, RXYZ, RXT, RM2]
    for i in range(500):
        ring = rings[i % len(rings)]
        f = random_polynomial(rng, ring, max_terms=6, max_deg=5)
        text = render_polynomial(f, DegLex())
        assert parse_polynomial(text, ring) == f
