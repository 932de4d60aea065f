"""Deterministic text and JSON rendering.

Operators print in the scaled-partial grammar (`1`, `dx`, `1/2 dx^2 + dy`,
module tuples `(1/2 dx^2 + dy, -dx)`); the stored divided-power coefficient c
on alpha therefore appears as c/alpha! in front of `d<name>` factors.
Polynomials print with `^` powers and juxtaposed factors, re-parseable by the
problem-file grammar.  JSON output uses string rationals "num/den" and integer
exponent arrays with a fixed key order.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


def _signed_sum(items, names) -> str:
    """(exponent, coefficient) items, in output order, as a signed sum of scaled monomials; 0 if none."""
    pieces = []
    for idx, (exp, c) in enumerate(items):
        pieces.append(_scaled_monomial_text(c, _monomial_text(names, exp), leading=(idx == 0)))
    return "".join(pieces) or "0"


def _by_position(ring: RingDescriptor, items, names, brackets: str) -> str:
    """((pos, exponent), coefficient) items as a signed sum; at rank > 1, one sum per position in brackets."""
    if ring.rank == 1:
        return _signed_sum([(exp, c) for (_, exp), c in items], names)
    sums = [
        _signed_sum([(exp, c) for (p, exp), c in items if p == pos], names)
        for pos in range(1, ring.rank + 1)
    ]
    return brackets[0] + ", ".join(sums) + brackets[1]


def _polynomial_items(f: Polynomial, order: AnyOrder | None) -> list:
    """f's terms descending under order when given, else in reading order."""
    if order is not None:
        return sorted_terms_desc(f, order)
    return f.sorted_terms()


def render_polynomial(f: Polynomial, order: AnyOrder | None = None) -> str:
    """Polynomial text; vectors over a rank > 1 ring render as [f1, ..., fs]."""
    return _by_position(f.ring, _polynomial_items(f, order), f.ring.names, "[]")


def _scaled_monomial_text(c, mono: str, leading: bool) -> str:
    """One rendered term, including its sign/joiner prefix; a magnitude of 1 before a monomial is dropped."""
    text = coeff_string(c)
    neg = text[0] == "-"
    mag = text[1:] if neg else text
    body = (mono if mag == "1" else f"{mag} {mono}") if mono else mag
    if leading:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


def coeff_string(c) -> str:
    """The text of every coefficient: a rational as str writes it, a rational function as num or num/den.

    Each part of a rational function is its polynomial's text, in
    parentheses unless it is a single term.
    """
    if not isinstance(c, RationalFunction):
        return str(c)
    if c.is_polynomial():
        return _parenthesized(c.num)
    return f"{_parenthesized(c.num)}/{_parenthesized(c.den)}"


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


def _operator_keys(ring: RingDescriptor, keys, order: AnyOrder | None) -> list:
    """Derivative keys sorted descending (under order when given)."""
    keys = list(keys)
    if order is None:
        keys.sort(key=reading_key, reverse=True)
        return keys
    pad = (0,) * ring.t_count
    term_key = as_module_order(order).key(ring)
    keys.sort(key=lambda k: term_key((k[0], k[1] + pad)), reverse=True)
    return keys


def render_operator(L: DiffOp, order: AnyOrder | None = None) -> str:
    """Operator text; module operators render as (L1, ..., Ls)."""
    ring = L.ring
    items = [
        (key, L.terms[key] * Fraction(1, alpha_factorial(key[1])))
        for key in _operator_keys(ring, L.terms, order)
    ]
    return _by_position(ring, items, ["d" + name for name in ring.x_names], "()")


# -- JSON ------------------------------------------------------------------------


def polynomial_json(f: Polynomial, order: AnyOrder | None = None) -> dict:
    return {
        "terms": [
            {"pos": pos, "exp": list(exp), "coeff": coeff_string(c)}
            for (pos, exp), c in _polynomial_items(f, order)
        ]
    }


def operator_json(L: DiffOp, order: AnyOrder | None = None) -> dict:
    keys = _operator_keys(L.ring, L.terms, order)
    return {
        "terms": [
            {"pos": pos, "alpha": list(alpha), "coeff": coeff_string(L.terms[(pos, alpha)])}
            for pos, alpha in keys
        ]
    }


def ring_json(ring: RingDescriptor) -> dict:
    return {
        "names": list(ring.names),
        "x_count": ring.x_count,
        "t_count": ring.t_count,
        "rank": ring.rank,
    }


def emit_json(doc: dict) -> str:
    """doc as JSON text, byte-identical to json.dumps(doc, indent=2).

    Documents hold only dicts with str keys, lists, str, int and bool; any
    other type raises TypeError.  With an indent, json.dumps takes its
    pure-Python encoder, which this direct writer outruns.
    """
    return _json_text(doc, "\n")


def _json_text(value, newline: str) -> str:
    """value as indented JSON; newline is the line break and indent before its closing bracket."""
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
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
