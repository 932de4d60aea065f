"""Dual operators for primary ideals whose variety has positive dimension.

The variable list is split into a leading x-block and a trailing parameter
block.  The input is a GroebnerBasis and a center, a point of the whole ring;
the translate the zero-dimensional constructions share moves its x-block to
the origin and leaves the parameters as they are, so the operators hold
along x = c_x at every parameter value, in the input's coordinates.  When
the translate is primary, contracts trivially to the parameter ring, and is
in normal position (monic in each x-variable, origin variety after
extension), the ideal extends to a zero-dimensional one over rational
functions in the parameters.  Its dual basis is the forward
construction run on that extension: the multiplication matrices and the
degree walk of the zero-dimensional case, with rational-function
coefficients, followed by a cleanup that clears denominators and common
parameter factors per operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from .diffop import DiffOp
from .errors import NoethError, NormalPositionError, NotEliminationOrderError, NotPrimaryError
from .groebner import GroebnerBasis, eliminate, staircase
from .noetherian import NoetherianBasis, dual_rows, noetherian_forward, translate
from .orderings import (
    AnyOrder,
    DegLex,
    as_module_order,
    is_elimination_for,
    lead_by_key,
    leading_term,
    monic_by_key,
    sigma_x_order,
)
from .polynomial import Polynomial
from .ratfun import RationalFunction, divexact, poly_gcd, poly_lcm
from .ring import Exponent, RingDescriptor, reading_key, t_part, x_part


@dataclass(frozen=True)
class NormalPositionReport:
    """Outcome of the three operational preconditions."""

    contraction_trivial: bool
    contraction_witness: Polynomial | None
    monic_powers: tuple[int | None, ...]
    extended_variety_is_origin: bool
    gamma: Exponent

    @property
    def ok(self) -> bool:
        return (
            self.contraction_trivial
            and all(e is not None for e in self.monic_powers)
            and self.extended_variety_is_origin
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "contraction_trivial": self.contraction_trivial,
            "monic_powers": list(self.monic_powers),
            "extended_variety_is_origin": self.extended_variety_is_origin,
            "gamma": list(self.gamma),
        }


def _require_posdim_input(ring: RingDescriptor, order: AnyOrder) -> None:
    if ring.rank != 1:
        raise NoethError("the parameter-coefficient construction handles ideals only")
    if not is_elimination_for(order, ring):
        raise NotEliminationOrderError(
            "a block order comparing the x-variables first is required"
        )


def check_normal_position(G: GroebnerBasis) -> NormalPositionReport:
    """Report whether the operational preconditions hold for this basis at the origin."""
    G = translate(G, None)[0]
    _require_posdim_input(G.ring, G.order)
    return _normal_position_report(G)


def _normal_position_report(G: GroebnerBasis) -> NormalPositionReport:
    ring = G.ring
    residual = eliminate(G, G.order)
    witness = residual[0] if residual else None
    monic: list[int | None] = [None] * ring.x_count
    origin_ok = [False] * ring.x_count
    gamma = [0] * ring.t_count
    for (pos, exp), _ in G.leading_terms():
        xe = x_part(ring, exp)
        te = t_part(ring, exp)
        gamma = [a + b for a, b in zip(gamma, te)]
        support = [i for i, e in enumerate(xe) if e]
        if len(support) == 1:
            i = support[0]
            # The parameter part of the leading term turns into a coefficient
            # after extension, so any pure x-power qualifies for the origin
            # check; monicity additionally needs a parameter-free lead.
            origin_ok[i] = True
            if not any(te) and (monic[i] is None or xe[i] < monic[i]):
                monic[i] = xe[i]
    return NormalPositionReport(
        contraction_trivial=not residual,
        contraction_witness=witness,
        monic_powers=tuple(monic),
        extended_variety_is_origin=all(origin_ok),
        gamma=tuple(gamma),
    )


def group_by_x(f: Polynomial) -> dict[tuple[int, Exponent], Polynomial]:
    """Split f by x-monomial; values are polynomials in the parameter block."""
    ring = f.ring
    tring = ring.t_subring()
    buckets: dict[tuple[int, Exponent], dict] = {}
    for (pos, exp), c in f.terms.items():
        xkey = (pos, x_part(ring, exp))
        buckets.setdefault(xkey, {})[(1, t_part(ring, exp))] = c
    return {k: Polynomial(tring, d) for k, d in buckets.items()}


def extend_to_rational_coeffs(G: GroebnerBasis) -> GroebnerBasis:
    """Rewrite a basis over the x-block with rational-function coefficients.

    Elements are made monic but deliberately not interreduced, so the leading
    terms stay exactly the x-parts of the original leading terms.
    """
    ring = G.ring
    _require_posdim_input(ring, G.order)
    xring = ring.x_subring()
    sx = sigma_x_order(G.order, ring)
    term_key = as_module_order(sx).key(xring)
    extended = []
    for ((pos, exp), _), g in zip(G.leading_terms(), G.elements):
        lead_x = (pos, x_part(ring, exp))
        terms = {key: RationalFunction(tpoly) for key, tpoly in group_by_x(g).items()}
        ext = Polynomial(xring, terms)
        if lead_by_key(ext, term_key)[0] != lead_x:
            raise NoethError("the order does not preserve leading terms under extension")
        extended.append((term_key(lead_x), monic_by_key(ext, term_key)))
    extended.sort(key=lambda pair: pair[0], reverse=True)
    return GroebnerBasis(xring, sx, tuple(ext for _, ext in extended), reduced=False)


def noetherian_positive(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Dual basis with parameter-dependent coefficients at a center.

    The x-block of the center is moved to the origin and the translate is
    checked for normal position there; the parameter coordinates only label
    the point, since the operators, with coefficients in the input's
    parameters, hold at every parameter value.  Over the rational functions
    in the parameters the translate is zero-dimensional, so the forward walk
    runs on the extended basis unchanged; each operator is then cleared of
    denominators and common parameter factors.  Raises NotPrimaryError when
    the extension is not primary at the origin; an element with a term free
    of x, which does not vanish there for generic parameter values, is
    named as such before the walk.
    """
    G0, center = translate(G, center)
    ring = G0.ring
    _require_posdim_input(ring, G0.order)
    if ring.t_count == 0:
        inner = noetherian_forward(G, center)
        return NoetherianBasis(inner.operators, inner.multiplicity, center, "positive", inner.source)
    report = _normal_position_report(G0)
    if not report.ok:
        raise NormalPositionError(
            "the input is not in normal position for the chosen variable split", report
        )
    Gx = extend_to_rational_coeffs(G0)
    origin = (1, Gx.ring.zero_exp())
    if any(origin in g.terms for g in Gx.elements):
        raise NotPrimaryError(
            "the input is not primary at the center: "
            "the center is not a zero of the input for generic parameter values"
        )
    stair = staircase(Gx)
    tring = ring.t_subring()

    def lift(c):
        # the walk keeps the rational 1 of products inside the staircase
        return c if isinstance(c, RationalFunction) else RationalFunction.from_fraction(c, tring)

    ops = cleanup_operators(
        [DiffOp(ring, {k: lift(c) for k, c in row.items()}, center) for row in dual_rows(Gx, stair)]
    )
    basis = NoetherianBasis(tuple(ops), stair.multiplicity, center, "positive", G0)
    basis.validate()
    return basis


def cleanup_operators(ops: Sequence[DiffOp]) -> list[DiffOp]:
    """Clear denominators, strip common polynomial factors, normalize scale."""
    out = []
    for L in ops:
        if L.is_zero() or not all(
            isinstance(c, RationalFunction) for c in L.terms.values()
        ):
            out.append(L)
            continue
        common_den = reduce(poly_lcm, (c.den for c in L.terms.values()))
        nums = {
            key: c.num * divexact(common_den, c.den) for key, c in L.terms.items()
        }
        shared = reduce(poly_gcd, nums.values())
        if shared.total_degree() > 0:
            nums = {key: divexact(p, shared) for key, p in nums.items()}
        anchor = min(nums, key=reading_key)
        _, lc = leading_term(nums[anchor], DegLex())
        if lc != 1:
            nums = {key: p.scale(Fraction(1) / lc) for key, p in nums.items()}
        out.append(
            DiffOp(L.ring, {k: RationalFunction(p) for k, p in nums.items()}, L.center)
        )
    return out


def member_positive(f: Polynomial, basis: NoetherianBasis) -> bool:
    """Membership through parameter-coefficient operators.

    Valid for families produced by noetherian_positive: f belongs to the
    ideal exactly when every operator pairs to zero with the x-monomial
    coefficients of f, its x-block translated to the basis's center, viewed
    as rational functions of the parameters.
    """
    ring = f.ring
    point = basis.center[: ring.x_count] + (Fraction(0),) * ring.t_count
    groups = group_by_x(f.substitute_affine(point) if any(point) else f)
    for L in basis.operators:
        total = None
        for key, c in L.terms.items():
            g = groups.get(key)
            if g is None:
                continue
            val = RationalFunction(g) * c
            total = val if total is None else total + val
        if total is not None and not total.is_zero():
            return False
    return True
