"""Problem-file front end.

A problem file declares a ring (with an optional parameter block after `|`),
an ordering, and either generators or a component decomposition, for example:

    # a plane curve with an embedded point
    ring x, y | t;
    order product(lex, lex);
    ideal x^2, y^2, -x*t + y;

Clauses end with `;` and comments run from `#` to the end of the line.
Module generators are bracketed vectors `[f1, ..., fs]`; decompositions are
given as repeated `component <generators> at <point>;` clauses.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError
from .orderings import (
    TOP,
    AnyOrder,
    DegLex,
    DegRevLex,
    Lex,
    ModuleOrder,
    ProductOrder,
    TermOrder,
)
from .polynomial import Polynomial, add_into
from .ring import Record, RingDescriptor

KEYWORDS = {
    "ring",
    "order",
    "moduleorder",
    "ideal",
    "module",
    "component",
    "center",
    "at",
    "lex",
    "deglex",
    "degrevlex",
    "product",
    "top",
    "pot",
}


# Clauses a file may give at most once; only `component` repeats.
_SINGLE_CLAUSES = {"ring", "order", "moduleorder", "ideal", "module", "center"}
# Clauses that need the ring's variables.
_GENERATOR_CLAUSES = {"ideal", "module", "component", "center"}

_WORD_TAIL = "0123456789_"

# One match per token: the blanks before it, then punctuation, an ASCII
# integer, a word, a newline, a comment, or any other character (an error).
# \w also matches digits such as '²' and '٣', which tokenize refuses.
_TOKEN = re.compile(r"([ \t\r]*)(?:([,;|^*+\-()\[\]/])|([0-9]+)|(\w+)|(\n)|(#[^\n]*)|([^ \t\r]))")


# kind is "ident", "keyword", "int", "punct" or "end"
Token = namedtuple("Token", ("kind", "text", "line", "column"))

# Builds a Token from a 4-tuple without the namedtuple's Python-level __new__.
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Split text into tokens; integers are ASCII digits, words start with a letter or _.

    A word goes on with letters, ASCII digits and _.  Columns count
    characters from 1, and a comment does not advance them: the end token
    sits at the last line's '#', or after its last character.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = col = 1
    for blanks, punct, digits, word, newline, comment, other in _TOKEN.findall(text):
        col += len(blanks)
        if punct:
            append(_new_token(Token, ("punct", punct, line, col)))
            col += 1
        elif digits:
            append(_new_token(Token, ("int", digits, line, col)))
            col += len(digits)
        elif word:
            if not word.isascii():
                for k, ch in enumerate(word):
                    if not (ch.isalpha() or ch in _WORD_TAIL):
                        raise ParseError(f"unexpected character {ch!r}", line, col + k)
            append(_new_token(Token, ("keyword" if word in KEYWORDS else "ident", word, line, col)))
            col += len(word)
        elif newline:
            line += 1
            col = 1
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, col)
    last = text[text.rfind("\n") + 1 :]
    end = last.find("#")
    append(_new_token(Token, ("end", "", line, (end if end >= 0 else len(last)) + 1)))
    return tokens


class Component(Record):
    __slots__ = _fields = ("generators", "center")

    def __init__(self, generators: tuple[Polynomial, ...], center: tuple[Fraction, ...]):
        self._assign(generators, center)


class ProblemSpec(Record):
    """A parsed problem file; immutable, with tuple fields, so that callers may share one."""

    __slots__ = _fields = ("ring", "order", "module_precedence", "generators", "center", "components")

    def __init__(self, ring: RingDescriptor, order: TermOrder, module_precedence=TOP, generators=(),
                 center=None, components=()):
        self._assign(ring, order, module_precedence, generators, center, components)

    @property
    def effective_order(self) -> AnyOrder:
        if self.ring.rank > 1:
            return ModuleOrder(self.order, self.module_precedence)
        return self.order


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"expected {ch!r}", tok)
        return self.next()

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text == word

    # -- clause level ------------------------------------------------------

    def parse_problem(self) -> ProblemSpec:
        ring: RingDescriptor | None = None
        order: TermOrder | None = None
        precedence = TOP
        generators: list[Polynomial] = []
        center: tuple[Fraction, ...] | None = None
        module_rows: list[list[Polynomial]] = []
        component_rows: list[tuple[list, tuple]] = []
        seen: dict[str, Token] = {}  # each single clause's keyword token

        while self.peek().kind != "end":
            tok = self.next()
            if tok.kind != "keyword":
                self.fail("expected a clause keyword", tok)
            if tok.text in seen:
                self.fail(f"repeated {tok.text!r} clause", tok)
            if tok.text in ("ideal", "module") and seen.keys() & {"ideal", "module"}:
                self.fail("a file gives either an 'ideal' or a 'module' clause", tok)
            if tok.text in _SINGLE_CLAUSES:
                seen[tok.text] = tok
            if tok.text in _GENERATOR_CLAUSES and ring is None:
                self.fail("generators appear before the ring clause", tok)
            if tok.text == "ring":
                ring = self.parse_ring_clause()
            elif tok.text == "order":
                order_tok = self.peek()
                order = self.parse_order_expr()
            elif tok.text == "moduleorder":
                prec = self.next()
                if prec.kind != "keyword" or prec.text not in ("top", "pot"):
                    self.fail("expected top or pot", prec)
                precedence = prec.text
            elif tok.text == "ideal":
                generators = self.parse_list(self.parse_polynomial, ring)
            elif tok.text == "module":
                module_rows = self.parse_list(self.parse_vector, ring)
            elif tok.text == "component":
                component_rows.append(self.parse_component_body(ring))
            elif tok.text == "center":
                center = self.parse_point(ring)
            else:
                self.fail(f"unexpected keyword {tok.text!r} at clause start", tok)
            self.expect_punct(";")

        if ring is None:
            self.fail("missing ring clause")
        if order is None:
            self.fail("missing order clause")
        if isinstance(order, ProductOrder) and not ring.t_count:
            self.fail("product order needs a ring with a parameter block", order_tok)

        # Vector widths decide the module rank; every vector in the file, a
        # one-entry [f] included, has to agree, and scalar generators, those
        # of an ideal clause included, cannot mix with vectors of rank > 1.
        rows = generators + module_rows + [row for comp_rows, _ in component_rows for row in comp_rows]
        widths = {len(row) if isinstance(row, list) else 0 for row in rows}
        vector_widths = widths - {0}
        if len(vector_widths) > 1:
            self.fail(f"vector lengths disagree: {sorted(vector_widths)}")
        rank = vector_widths.pop() if vector_widths else 1
        if rank > 1 and 0 in widths:
            self.fail("scalar generators cannot mix with module vectors", seen.get("ideal"))
        spec_ring = ring.with_rank(rank) if rank > 1 else ring

        def assemble(row):
            return _assemble_vector(spec_ring, row) if isinstance(row, list) else row

        return ProblemSpec(
            ring=spec_ring,
            order=order,
            module_precedence=precedence,
            generators=tuple(map(assemble, module_rows)) if module_rows else tuple(generators),
            center=center,
            components=tuple(Component(tuple(map(assemble, comp_rows)), point) for comp_rows, point in component_rows),
        )

    def parse_ring_clause(self) -> RingDescriptor:
        x_names = self.parse_name_list([])
        t_names: list[str] = []
        if self.at_punct("|"):
            self.next()
            t_names = self.parse_name_list(x_names)
        return RingDescriptor(tuple(x_names + t_names), len(x_names), len(t_names))

    def parse_name_list(self, earlier: list[str]) -> list[str]:
        """Comma-separated variable names, none repeating another or one in earlier."""
        names = []
        while True:
            tok = self.peek()
            if tok.kind == "keyword":
                self.fail(f"{tok.text!r} is reserved and cannot name a variable", tok)
            if tok.kind != "ident":
                self.fail("expected a variable name", tok)
            if tok.text in names or tok.text in earlier:
                self.fail(f"duplicate variable name {tok.text!r}", tok)
            names.append(self.next().text)
            if self.at_punct(","):
                self.next()
                continue
            return names

    def parse_order_expr(self) -> TermOrder:
        tok = self.peek()
        if tok.kind != "keyword":
            self.fail("expected an ordering name", tok)
        if tok.text == "lex":
            self.next()
            return Lex()
        if tok.text == "deglex":
            self.next()
            return DegLex()
        if tok.text == "degrevlex":
            self.next()
            return DegRevLex()
        if tok.text == "product":
            self.next()
            self.expect_punct("(")
            inner_x = self.parse_order_expr()
            self.expect_punct(",")
            inner_t = self.parse_order_expr()
            self.expect_punct(")")
            if isinstance(inner_x, ProductOrder) or isinstance(inner_t, ProductOrder):
                self.fail("product orderings do not nest", tok)
            return ProductOrder(inner_x, inner_t)
        self.fail(f"unknown ordering {tok.text!r}", tok)

    def parse_list(self, item, *args) -> list:
        """item(*args) (',' item(*args))*: one or more comma-separated items."""
        items = [item(*args)]
        while self.at_punct(","):
            self.next()
            items.append(item(*args))
        return items

    def parse_vector(self, ring: RingDescriptor) -> list[Polynomial]:
        self.expect_punct("[")
        entries = self.parse_list(self.parse_polynomial, ring)
        self.expect_punct("]")
        return entries

    def parse_row(self, ring: RingDescriptor):
        """A bracketed vector, as a list of entries, or a polynomial."""
        return self.parse_vector(ring) if self.at_punct("[") else self.parse_polynomial(ring)

    def parse_component_body(self, ring: RingDescriptor):
        rows = self.parse_list(self.parse_row, ring)
        if not self.at_keyword("at"):
            self.fail("expected 'at' after component generators")
        self.next()
        point = self.parse_point(ring)
        return rows, point

    def parse_point(self, ring: RingDescriptor) -> tuple[Fraction, ...]:
        coords = self.parse_list(self.parse_signed_rational)
        if len(coords) != ring.nvars:
            self.fail(f"expected {ring.nvars} coordinates, got {len(coords)}")
        return tuple(coords)

    def parse_signed_rational(self) -> Fraction:
        sign = self._consume_sign()
        tok = self.peek()
        if tok.kind != "int":
            self.fail("expected a number", tok)
        num, den, self.pos = self._ratio(self.pos)
        return Fraction(sign * num, den)

    def _ratio(self, pos: int) -> tuple[int, int, int]:
        """Numerator, denominator and next position of the number `n` or `n/d` whose int token is at pos."""
        tok = self.tokens[pos]
        if self.tokens[pos + 1].text != "/":
            return int(tok.text), 1, pos + 1
        dtok = self.tokens[pos + 2]
        if dtok.kind != "int":
            self.fail("expected a denominator", dtok)
        den = int(dtok.text)
        if not den:
            self.fail("zero denominator", tok)
        return int(tok.text), den, pos + 3

    # -- polynomial expressions ---------------------------------------------

    def parse_polynomial(self, ring: RingDescriptor) -> Polynomial:
        """A sum of terms, added into one dict so that parsing stays linear."""
        tokens = self.tokens
        acc: dict = {}
        add_into(acc, self.parse_term(ring, self._consume_sign()))
        # only punctuation has the texts '+', '-', '*', '/', '^' and '('
        while (op := tokens[self.pos]).text == "+" or op.text == "-":
            self.pos += 1
            sign = (-1 if op.text == "-" else 1) * self._consume_sign()
            if not _starts_factor(tokens[self.pos]):
                self.fail(f"expected a term after {op.text!r}", op)
            add_into(acc, self.parse_term(ring, sign))
        # the keys are well formed and add_into keeps only nonzero Fractions
        return Polynomial._of(ring, acc)

    def _consume_sign(self) -> int:
        """Fold a run of unary '+' and '-' into +1 or -1."""
        sign = 1
        while (text := self.tokens[self.pos].text) == "-" or text == "+":
            self.pos += 1
            if text == "-":
                sign = -sign
        return sign

    def parse_term(self, ring: RingDescriptor, sign: int):
        """The (key, coefficient) items of one product of factors.

        Numbers fold into one integer numerator and denominator, variables
        into one exponent; only parenthesised factors are multiplied as
        polynomials.
        """
        tokens = self.tokens
        pos = self.pos
        num, den = sign, 1
        exp = [0] * ring.nvars
        poly = None  # product of the parenthesised factors
        while True:
            tok = tokens[pos]
            if tok.kind == "int":
                n, d, pos = self._ratio(pos)
                k, pos = self._power(pos)
                num *= n**k
                den *= d**k
            elif tok.kind == "ident":
                try:
                    index = ring.var_index(tok.text)
                except ValueError:
                    self.fail(f"unknown variable {tok.text!r}", tok)
                k, pos = self._power(pos + 1)
                exp[index] += k
            elif tok.text == "(":
                self.pos = pos + 1
                inner = self.parse_polynomial(ring)
                self.expect_punct(")")
                k, pos = self._power(self.pos)
                if k != 1:
                    inner = inner**k
                poly = inner if poly is None else poly * inner
            else:
                self.fail("expected a number, variable, or parenthesized expression", tok)
            tok = tokens[pos]
            if tok.text == "*":
                pos += 1
                if not _starts_factor(tokens[pos]):
                    self.fail("expected a factor after '*'", tok)
            elif not _starts_factor(tok):
                break
        self.pos = pos
        coeff = Fraction(num) if den == 1 else Fraction(num, den)
        if poly is None:
            return [((1, tuple(exp)), coeff)] if num else []
        if coeff == 1 and not any(exp):  # a bare parenthesised sum
            return poly.terms.items()
        return poly.mul_monomial(tuple(exp), coeff).terms.items()

    def _power(self, pos: int) -> tuple[int, int]:
        """The exponent after an optional '^' at pos (1 without one) and the position after it."""
        if self.tokens[pos].text != "^":
            return 1, pos
        tok = self.tokens[pos + 1]
        if tok.kind != "int":
            self.fail("expected an integer exponent", tok)
        return int(tok.text), pos + 2


def _starts_factor(tok: Token) -> bool:
    return tok.kind == "int" or tok.kind == "ident" or tok.text == "("


def _assemble_vector(ring: RingDescriptor, row: list[Polynomial]) -> Polynomial:
    """The module element whose i-th entry is row[i - 1]."""
    terms = {}
    for i, entry in enumerate(row):
        for (_, exp), c in entry.terms.items():
            terms[(i + 1, exp)] = c
    return Polynomial(ring, terms)


def parse_problem(text: str) -> ProblemSpec:
    parser = _Parser(tokenize(text))
    return parser.parse_problem()


def parse_polynomial(text: str, ring: RingDescriptor) -> Polynomial:
    """Parse a standalone polynomial or bracketed vector in the given ring."""
    parser = _Parser(tokenize(text))
    inner_ring = ring.with_rank(1) if ring.rank > 1 else ring
    if parser.at_punct("["):
        bracket = parser.peek()
        row = parser.parse_vector(inner_ring)
        if len(row) != ring.rank:
            entries = "entry" if ring.rank == 1 else "entries"
            raise ParseError(f"expected {ring.rank} {entries}, got {len(row)}", bracket.line, bracket.column)
        result = _assemble_vector(ring, row)
    else:
        result = parser.parse_polynomial(inner_ring)
        if ring.rank > 1:
            result = _assemble_vector(ring, [result])
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("trailing input after expression", tok.line, tok.column)
    return result
