"""Deterministic text and JSON rendering.

Operators print in the scaled-partial grammar (`1`, `dx`, `1/2 dx^2 + dy`,
module tuples `(1/2 dx^2 + dy, -dx)`); the stored divided-power coefficient c
on alpha therefore appears as c/alpha! in front of `d<name>` factors.
Polynomials print with `^` powers and juxtaposed factors, re-parseable by the
problem-file grammar.  JSON output uses string rationals "num/den" and integer
exponent arrays with a fixed key order.  A JSON document holds the operators
and polynomials themselves, and emit_json writes each under the document's
one order.

What the operators of one ring and order share in their output (the term
order, each derivative key's rank, d-monomial text and alpha!) is computed
once and kept in an _OperatorTerms; text, operator_json and the operators
emit_json writes all read their terms from its ordered().
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from fractions import Fraction
from math import gcd

from .diffop import DiffOp, alpha_factorial
from .orderings import AnyOrder, as_module_order, sorted_terms_desc
from .polynomial import Polynomial
from .ratfun import RationalFunction
from .ring import Exponent, RingDescriptor, reading_key


def _monomial_text(names, exp: Exponent) -> str:
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return " ".join(parts)


def _join_terms(terms) -> str:
    """(coefficient text, monomial text) pairs, in output order, as one signed sum; 0 if none.

    The one sign-and-magnitude rule of every sum written: the first term
    keeps its minus, later ones join with " + " or " - ", and a magnitude of
    1 before a monomial is dropped.
    """
    out = []
    for text, mono in terms:
        if text[0] == "-":
            out.append(" - ")
            text = text[1:]
        else:
            out.append(" + ")
        out.append((mono if text == "1" else f"{text} {mono}") if mono else text)
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _by_position(rank: int, terms: list, positions: list, brackets: str) -> str:
    """(coefficient text, monomial text) terms as a signed sum; at rank > 1, one per position in brackets.

    positions holds each term's position.
    """
    if rank == 1:
        return _join_terms(terms)
    sums = [_join_terms([t for t, p in zip(terms, positions) if p == pos]) for pos in range(1, rank + 1)]
    return brackets[0] + ", ".join(sums) + brackets[1]


def _polynomial_items(f: Polynomial, order: AnyOrder | None) -> list:
    """f's terms descending under order when given, else in reading order."""
    if order is not None:
        return sorted_terms_desc(f, order)
    return f.sorted_terms()


def render_polynomial(f: Polynomial, order: AnyOrder | None = None) -> str:
    """Polynomial text; vectors over a rank > 1 ring render as [f1, ..., fs]."""
    names = f.ring.names
    items = _polynomial_items(f, order)
    terms = [(coeff_string(c), _monomial_text(names, exp)) for (_, exp), c in items]
    return _by_position(f.ring.rank, terms, [pos for (pos, _), _ in items], "[]")


def coeff_string(c) -> str:
    """The text of every coefficient: a rational as num or num/den, a rational function likewise from its parts.

    Each part of a rational function is its polynomial's text, in
    parentheses unless it is a single term.
    """
    if isinstance(c, Fraction):
        return _ratio_text(c.numerator, c.denominator)
    if not isinstance(c, RationalFunction):
        return str(c)
    if c.is_polynomial():
        return _parenthesized(c.num)
    return f"{_parenthesized(c.num)}/{_parenthesized(c.den)}"


def _ratio_text(num: int, den: int) -> str:
    """The text of the rational num/den, in lowest terms with den > 0, as str(Fraction) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _parenthesized(f: Polynomial) -> str:
    text = render_polynomial(f)
    return text if len(f.terms) == 1 else f"({text})"


def render_module_term(ring: RingDescriptor, key) -> str:
    """A staircase or corner entry such as `1`, `x y`, or `y*e1`."""
    pos, exp = key
    mono = _monomial_text(ring.names, exp) or "1"
    if ring.rank == 1:
        return mono
    return f"e{pos}" if mono == "1" else f"{mono}*e{pos}"


# -- operators ---------------------------------------------------------------------


class _OperatorTerms:
    """What every operator over one ring and order shares in its output, each part computed once.

    Per derivative key (pos, alpha): its rank in the output order (descending
    under the order when given, else in reading order), the text of its
    d-monomial and alpha!.  Per JSON newline: each key's term text up to its
    coefficient.
    """

    __slots__ = ("ring", "names", "rank", "entries", "heads")

    def __init__(self, ring: RingDescriptor, order: AnyOrder | None):
        self.ring = ring
        self.names = ["d" + name for name in ring.x_names]
        self.rank = _rank_key(ring, order)
        self.entries = {}  # (pos, alpha) -> (rank, d-monomial text, alpha!)
        self.heads = {}  # newline -> {(pos, alpha): JSON text of the term before its coefficient}

    def _entry(self, key) -> tuple:
        entry = self.entries[key] = (self.rank(key), _monomial_text(self.names, key[1]), alpha_factorial(key[1]))
        return entry

    def ordered(self, terms) -> list:
        """The one term order of an operator's text and JSON: (entry, key, coefficient) rows, first term first."""
        entries = self.entries
        rows = [(entries.get(key) or self._entry(key), key, c) for key, c in terms.items()]
        if len(rows) > 1:
            rows.sort(key=_rank_of_row, reverse=True)
        return rows

    def text(self, L: DiffOp) -> str:
        terms, positions = [], []
        for (_, mono, fact), (pos, _), c in self.ordered(L.terms):
            if isinstance(c, Fraction):
                num, den = c.numerator, c.denominator
                if fact != 1:
                    g = gcd(num, fact)
                    num, den = num // g, den * (fact // g)
                text = _ratio_text(num, den)
            else:
                text = coeff_string(c if fact == 1 else c * Fraction(1, fact))
            terms.append((text, mono))
            positions.append(pos)
        return _by_position(self.ring.rank, terms, positions, "()")

    def json(self, L: DiffOp, newline: str) -> str:
        """operator_json(L)'s text at newline."""
        heads = self.heads.get(newline)
        if heads is None:
            heads = self.heads[newline] = {}
        return _terms_json([(key, c) for _, key, c in self.ordered(L.terms)], "alpha", heads, newline)


def _rank_of_row(row):
    return row[0][0]


def _rank_key(ring: RingDescriptor, order: AnyOrder | None) -> Callable:
    """The sort key of derivative keys (pos, alpha): larger comes first."""
    if order is None:
        return reading_key
    term_key = as_module_order(order).key(ring)
    if not ring.t_count:
        return term_key
    pad = (0,) * ring.t_count
    return lambda k: term_key((k[0], k[1] + pad))


@functools.lru_cache(maxsize=64)
def _shared_operator_terms(ring: RingDescriptor, order: AnyOrder | None) -> _OperatorTerms:
    """The one _OperatorTerms of a ring and order; what it keeps depends on nothing else."""
    return _OperatorTerms(ring, order)


_LAST = [(None, None, None)]  # the ring and order of the last lookup, by identity, and their _OperatorTerms


def _operator_terms(ring: RingDescriptor, order: AnyOrder | None) -> _OperatorTerms:
    """_shared_operator_terms(ring, order), found without hashing when it was the last one asked for.

    The operators of one basis share their ring and order objects, so
    writing them hashes and compares those values once, not per operator.
    """
    last_ring, last_order, terms = _LAST[0]
    if ring is not last_ring or order is not last_order:
        terms = _shared_operator_terms(ring, order)
        _LAST[0] = (ring, order, terms)
    return terms


def render_operator(L: DiffOp, order: AnyOrder | None = None) -> str:
    """Operator text; module operators render as (L1, ..., Ls)."""
    return _operator_terms(L.ring, order).text(L)


# -- JSON ------------------------------------------------------------------------


def polynomial_json(f: Polynomial, order: AnyOrder | None = None) -> dict:
    return {
        "terms": [
            {"pos": pos, "exp": list(exp), "coeff": coeff_string(c)}
            for (pos, exp), c in _polynomial_items(f, order)
        ]
    }


def operator_json(L: DiffOp, order: AnyOrder | None = None) -> dict:
    return {
        "terms": [
            {"pos": pos, "alpha": list(alpha), "coeff": coeff_string(c)}
            for _, (pos, alpha), c in _operator_terms(L.ring, order).ordered(L.terms)
        ]
    }


def ring_json(ring: RingDescriptor) -> dict:
    return {
        "names": list(ring.names),
        "x_count": ring.x_count,
        "t_count": ring.t_count,
        "rank": ring.rank,
    }


def _terms_json(items, field: str, heads: dict, newline: str) -> str:
    """The JSON text of {"terms": [{"pos", field, "coeff"}, ...]} for ((pos, exponent), coefficient) items.

    heads caches, per key, a term's text before its coefficient at this newline.
    """
    n1 = newline + "  "
    if not items:
        return "{" + n1 + '"terms": []' + newline + "}"
    n2 = n1 + "  "
    close = n2 + "}"
    texts = []
    for key, c in items:
        head = heads.get(key)
        if head is None:
            n3 = n2 + "  "
            n4 = n3 + "  "
            exp = "[" + n4 + ("," + n4).join(map(str, key[1])) + n3 + "]" if key[1] else "[]"
            head = heads[key] = "{" + n3 + f'"pos": {key[0]},' + n3 + f'"{field}": {exp},' + n3 + '"coeff": '
        texts.append(head + encode_basestring_ascii(coeff_string(c)) + close)
    return "{" + n1 + '"terms": [' + n2 + ("," + n2).join(texts) + n1 + "]" + newline + "}"


def emit_json(doc: dict, order: AnyOrder | None = None) -> str:
    """doc as JSON text, byte-identical to json.dumps(doc, indent=2) with each DiffOp and Polynomial as its dict.

    Documents hold dicts with str keys, lists, str, int and bool, and the
    values the program writes: a DiffOp is written as operator_json(L, order)
    and a Polynomial as polynomial_json(f, order), so every value of one
    document is written under one order.  Any other type raises TypeError.
    With an indent, json.dumps takes its pure-Python encoder, which this
    direct writer outruns.
    """
    global encode_basestring_ascii  # imported with the first JSON output, not at start-up
    from json.encoder import encode_basestring_ascii

    def text(value, newline: str) -> str:
        # value as indented JSON; newline is the line break and indent before its closing bracket
        kind = type(value)
        if kind is DiffOp:
            return _operator_terms(value.ring, order).json(value, newline)
        if kind is Polynomial:
            return _terms_json(_polynomial_items(value, order), "exp", {}, newline)
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, bool):  # before int: bools are ints
            return "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = newline + "  "
        if isinstance(value, list):
            if not value:
                return "[]"
            return "[" + inner + ("," + inner).join([text(v, inner) for v in value]) + newline + "]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = []
            for key, v in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                items.append(encode_basestring_ascii(key) + ": " + text(v, inner))
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return text(doc, "\n")
