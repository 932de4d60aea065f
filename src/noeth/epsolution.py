"""Symbolic exponential-polynomial solution families.

For a constant-coefficient system with a primary decomposition supplied as
components, every dual operator contributes one summand: the operator applied
to the exponential with frequency at the component's center.  A derivative
monomial with exponent alpha turns into the physical monomial x^alpha/alpha!,
so each summand is a polynomial vector times an exponential, scaled by a free
constant.  Components with parameter variables keep a free frequency for each
parameter and are wrapped in a formal integral against an unknown measure;
an operator coefficient, a polynomial in the parameters, is read at the
frequency's parameter coordinate, the center's plus the free one.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import alpha_factorial
from .noetherian import NoetherianBasis
from .polynomial import Polynomial
from .ratfun import RationalFunction
from .render import render_polynomial
from .ring import Exponent, Record, RingDescriptor, reading_key


class SolutionTerm(Record):
    __slots__ = _fields = ("position", "alpha", "scalar")

    def __init__(self, position: int, alpha: Exponent, scalar):
        # scalar is a Fraction, or a parameter-block Polynomial
        self._set("_key", (position, alpha, scalar))
        self._set("position", position)
        self._set("alpha", alpha)
        self._set("scalar", scalar)


class SolutionSummand(Record):
    __slots__ = _fields = ("constant", "component", "center", "integral", "terms")

    def __init__(self, constant: str, component: int, center: tuple, integral: bool, terms: tuple):
        self._set("_key", (constant, component, center, integral, terms))
        self._set("constant", constant)
        self._set("component", component)
        self._set("center", center)
        self._set("integral", integral)
        self._set("terms", terms)


class SolutionFamily(Record):
    __slots__ = _fields = ("ring", "summands")

    def __init__(self, ring: RingDescriptor, summands: tuple[SolutionSummand, ...]):
        self._set("_key", (ring, summands))
        self._set("ring", ring)
        self._set("summands", summands)

    def structure(self) -> set:
        """(position, alpha, center) triples; the renaming-free fingerprint."""
        triples = set()
        for s in self.summands:
            for t in s.terms:
                triples.add((t.position, t.alpha, s.center))
        return triples


def build_solution(ring: RingDescriptor, parts) -> SolutionFamily:
    """Assemble the family from (center, NoetherianBasis) pairs."""
    summands = []
    constants = 0
    measures = 0
    for index, (center, basis) in enumerate(parts, start=1):
        shift = tuple(center)[ring.x_count :]
        integral = ring.t_count > 0 and any(
            isinstance(c, RationalFunction)
            for L in basis.operators
            for c in L.terms.values()
        )
        for L in basis.operators:
            if integral:
                measures += 1
                name = f"nu{measures}"
            else:
                constants += 1
                name = f"C{constants}"
            terms = []
            for (pos, alpha), c in sorted(L.terms.items(), key=lambda kv: reading_key(kv[0])):
                scale = Fraction(1, alpha_factorial(alpha))
                if isinstance(c, RationalFunction):
                    if not c.is_polynomial():
                        raise ValueError("operator coefficients must be polynomial here")
                    scalar = c.num.substitute_affine(shift).scale(scale)
                else:
                    scalar = c * scale
                terms.append(SolutionTerm(pos, alpha, scalar))
            summands.append(
                SolutionSummand(name, index, tuple(center), integral, tuple(terms))
            )
    return SolutionFamily(ring, tuple(summands))


# -- text rendering ----------------------------------------------------------------


def _display_ring(ring: RingDescriptor, with_frequencies: bool) -> RingDescriptor:
    names = list(ring.names)
    if with_frequencies:
        names += [n + "_" for n in ring.t_names]
    return RingDescriptor(tuple(names), len(names))


def _component_polynomial(ring, disp, terms, position, with_frequencies: bool) -> Polynomial:
    body: dict = {}
    tzero = (0,) * ring.t_count
    fzero = (0,) * (ring.t_count if with_frequencies else 0)
    for t in terms:
        if t.position != position:
            continue
        if isinstance(t.scalar, Polynomial):
            for (_, texp), c in t.scalar.terms.items():
                exp = t.alpha + tzero + texp
                body[(1, exp)] = body.get((1, exp), Fraction(0)) + c
        else:
            exp = t.alpha + tzero + fzero
            body[(1, exp)] = body.get((1, exp), Fraction(0)) + t.scalar
    return Polynomial(disp, {k: c for k, c in body.items() if c})


def _exponent_argument(ring, disp, center, integral: bool) -> Polynomial:
    terms: dict = {}
    width = disp.nvars
    for i, c in enumerate(center):
        if c:
            exp = tuple(1 if j == i else 0 for j in range(width))
            terms[(1, exp)] = Fraction(c)
    if integral:
        for k in range(ring.t_count):
            exp = [0] * width
            exp[ring.x_count + k] = 1
            exp[ring.nvars + k] = 1
            terms[(1, tuple(exp))] = Fraction(1)
    return Polynomial(disp, terms)


def _wrap(text: str) -> str:
    if text == "1":
        return ""
    if " " in text or text.startswith("-"):
        return f"({text})"
    return text


def render_solution(family: SolutionFamily) -> str:
    ring = family.ring
    lines = []
    for i, s in enumerate(family.summands):
        disp = _display_ring(ring, s.integral)
        if ring.rank == 1:
            poly = _component_polynomial(ring, disp, s.terms, 1, s.integral)
            body = _wrap(render_polynomial(poly))
        else:
            entries = [
                render_polynomial(_component_polynomial(ring, disp, s.terms, pos, s.integral))
                for pos in range(1, ring.rank + 1)
            ]
            body = "(" + ", ".join(entries) + ")"
        earg = _exponent_argument(ring, disp, s.center, s.integral)
        efactor = "" if earg.is_zero() else f" e^({render_polynomial(earg)})"
        if s.integral:
            freqs = ", ".join(n + "_" for n in ring.t_names)
            core = body or "1"
            piece = f"Int[ {core}{efactor} d{s.constant}({freqs}) ]"
        else:
            gap = " " if body else ""
            piece = f"{s.constant}{gap}{body}{efactor}"
        prefix = "f = " if i == 0 else "  + "
        lines.append(prefix + piece)
    return "\n".join(lines)


def solution_json(family: SolutionFamily) -> list[dict]:
    out = []
    for s in family.summands:
        record = {
            "constant": s.constant,
            "component": s.component,
            "center": [str(c) for c in s.center],
            "integral": s.integral,
            "terms": [
                {
                    "pos": t.position,
                    "alpha": list(t.alpha),
                    "scalar": render_polynomial(t.scalar)
                    if isinstance(t.scalar, Polynomial)
                    else str(t.scalar),
                }
                for t in s.terms
            ],
        }
        out.append(record)
    return out
