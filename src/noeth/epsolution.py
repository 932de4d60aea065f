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
from .render import _join_terms, _monomial_text, coeff_string, render_polynomial
from .ring import Exponent, Record, RingDescriptor, reading_key


class SolutionTerm(Record):
    __slots__ = _fields = ("position", "alpha", "scalar")

    def __init__(self, position: int, alpha: Exponent, scalar):
        # scalar is a Fraction, or a parameter-block Polynomial
        self._assign(position, alpha, scalar)


class SolutionSummand(Record):
    __slots__ = _fields = ("constant", "component", "center", "integral", "terms")

    def __init__(self, constant: str, component: int, center: tuple, integral: bool, terms: tuple):
        self._assign(constant, component, center, integral, terms)


class SolutionFamily(Record):
    __slots__ = _fields = ("ring", "summands")

    def __init__(self, ring: RingDescriptor, summands: tuple[SolutionSummand, ...]):
        self._assign(ring, summands)

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


def _reading_text(items, names) -> str:
    """(exponent, coefficient) items as one signed sum in the graded reading order."""
    items = sorted(items, key=lambda item: reading_key((1, item[0])))
    return _join_terms([(coeff_string(c), _monomial_text(names, exp)) for exp, c in items])


def _position_items(ring: RingDescriptor, summand: SolutionSummand, position: int) -> list:
    """The summand's terms at position as x^alpha times its scalar, a parameter power read in the frequencies."""
    tzero = (0,) * ring.t_count
    fzero = tzero if summand.integral else ()
    items = []
    for t in summand.terms:
        if t.position != position:
            continue
        if isinstance(t.scalar, Polynomial):
            items += [(t.alpha + tzero + texp, c) for (_, texp), c in t.scalar.terms.items()]
        else:
            items.append((t.alpha + tzero + fzero, t.scalar))
    return items


def _exponent_items(ring: RingDescriptor, summand: SolutionSummand) -> list:
    """The center's coordinates on the variables, and t * t_ for each parameter of an integral."""
    width = ring.nvars + (ring.t_count if summand.integral else 0)

    def unit(*indices):
        return tuple(int(j in indices) for j in range(width))

    items = [(unit(i), Fraction(c)) for i, c in enumerate(summand.center) if c]
    if summand.integral:
        items += [(unit(ring.x_count + k, ring.nvars + k), Fraction(1)) for k in range(ring.t_count)]
    return items


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
        names = ring.names + (tuple(n + "_" for n in ring.t_names) if s.integral else ())
        sums = [_reading_text(_position_items(ring, s, pos), names) for pos in range(1, ring.rank + 1)]
        body = _wrap(sums[0]) if ring.rank == 1 else "(" + ", ".join(sums) + ")"
        earg = _exponent_items(ring, s)
        efactor = f" e^({_reading_text(earg, names)})" if earg else ""
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
