"""Dual operators for primary ideals whose variety has positive dimension.

The variable list is split into a leading x-block and a trailing parameter
block.  The input is a GroebnerBasis and a center, a point of the whole ring;
the translate the zero-dimensional constructions share moves its x-block to
the origin and leaves the parameters as they are, so the operators hold
along x = c_x at every parameter value, in the input's coordinates.  When
the translate is primary and in normal position (no leading term free of x,
and a parameter-free pure power of each x-variable among them), the ideal
extends to a zero-dimensional one over rational functions in the
parameters.  Its dual basis is the forward construction run on that
extension: the multiplication matrices and the degree walk of the
zero-dimensional case, with rational-function coefficients, each row then
cleared of denominators and common parameter factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .diffop import DiffOp
from .errors import NoethError, NormalPositionError, NotEliminationOrderError, NotPrimaryError
from .groebner import GroebnerBasis, staircase
from .noetherian import NoetherianBasis, dual_rows, _moved_point, noetherian_forward, translate
from .orderings import (
    AnyOrder,
    as_module_order,
    is_elimination_for,
    lead_by_key,
    monic_by_key,
    sigma_x_order,
)
from .polynomial import Polynomial
from .ratfun import _DEGLEX_KEY, RationalFunction, divexact, poly_gcd, poly_lcm
from .render import render_polynomial
from .ring import Exponent, RingDescriptor, reading_key, t_part, x_part


def _require_posdim_input(ring: RingDescriptor, order: AnyOrder) -> None:
    if ring.rank != 1:
        raise NoethError("the parameter-coefficient construction handles ideals only")
    if not is_elimination_for(order, ring):
        raise NotEliminationOrderError(
            "a block order comparing the x-variables first is required"
        )


def _require_normal_position(G0: GroebnerBasis) -> None:
    """Raise NormalPositionError naming the first precondition the leading terms break.

    Under the elimination order _require_posdim_input demands, a lead free of
    x certifies an element free of x, so the contraction to the parameter ring
    is trivial exactly when no lead is free of x.  Each x-variable then needs
    a parameter-free pure power among the leads: an element monic in that
    variable over the parameter ring, so the extension is zero-dimensional.
    """
    ring = G0.ring
    failed = "the input is not in normal position for the chosen variable split"
    monic = [False] * ring.x_count
    for ((_, exp), _), g in zip(G0.leading_terms(), G0.elements):
        xe = x_part(ring, exp)
        support = [i for i, e in enumerate(xe) if e]
        if not support:
            raise NormalPositionError(f"{failed}: {render_polynomial(g, G0.order)} lies in the parameter ring")
        if len(support) == 1 and not any(t_part(ring, exp)):
            monic[support[0]] = True
    if not all(monic):
        name = ring.names[monic.index(False)]
        raise NormalPositionError(f"{failed}: no leading term is a power of {name} free of the parameters")


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
    terms stay exactly the x-parts of the original leading terms: under the
    order _require_posdim_input demands, the x-part of a lead is the lead of
    the element's extension.
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
        extended.append((term_key(lead_x), monic_by_key(Polynomial(xring, terms), term_key)))
    extended.sort(key=lambda pair: pair[0], reverse=True)
    return GroebnerBasis(xring, sx, tuple(ext for _, ext in extended), reduced=False)


def noetherian_positive(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Dual basis with parameter-dependent coefficients at a center.

    The x-block of the center is moved to the origin and the translate is
    checked for normal position there; the parameter coordinates only label
    the point, since the operators, with coefficients in the input's
    parameters, hold at every parameter value.  Over the rational functions
    in the parameters the translate is zero-dimensional, so the forward walk
    runs on the extended basis unchanged; each of its rows is cleared of
    denominators and common parameter factors and becomes one operator.
    Raises NormalPositionError naming the first precondition that fails, and
    NotPrimaryError when the extension is not primary at the origin; an
    element with a term free of x, which does not vanish there for generic
    parameter values, is named as such before the walk.
    """
    if isinstance(G, GroebnerBasis):
        _require_posdim_input(G.ring, G.order)  # before the translate's Buchberger, which the check does not need
    G0, center = translate(G, center)
    ring = G0.ring
    if ring.t_count == 0:
        inner = noetherian_forward(G, center)
        return NoetherianBasis(inner.operators, inner.multiplicity, center, "positive", inner.source)
    _require_normal_position(G0)
    Gx = extend_to_rational_coeffs(G0)
    origin = (1, Gx.ring.zero_exp())
    if any(origin in g.terms for g in Gx.elements):
        raise NotPrimaryError(
            "the input is not primary at the center: "
            "the center is not a zero of the input for generic parameter values"
        )
    stair = staircase(Gx)
    tring = ring.t_subring()
    ops = tuple(DiffOp._of(ring, _cleared_row(row, tring), center) for row in dual_rows(Gx, stair))
    basis = NoetherianBasis(ops, stair.multiplicity, center, "positive", Gx)
    basis.validate()
    return basis


def _cleared_row(row: dict, tring: RingDescriptor) -> dict:
    """A dual row's coefficients as parameter polynomials: the row up to a factor in k(t).

    The entries are RationalFunctions and the Fraction 1s the walk keeps for
    products inside the staircase.  They are brought over the lcm of their
    denominators, the gcd of the numerators is divided out, and the first
    term in reading order is scaled to leading coefficient 1.
    """
    one = Polynomial.constant(tring, 1)
    common_den = reduce(poly_lcm, (c.den for c in row.values() if isinstance(c, RationalFunction)), one)
    nums = {
        key: c.num * divexact(common_den, c.den) if isinstance(c, RationalFunction) else common_den.scale(c)
        for key, c in row.items()
    }
    shared = reduce(poly_gcd, nums.values())
    if shared.total_degree() > 0:
        nums = {key: divexact(p, shared) for key, p in nums.items()}
    anchor = min(nums, key=reading_key)
    _, lc = lead_by_key(nums[anchor], _DEGLEX_KEY)
    if lc != 1:
        nums = {key: p.scale(Fraction(1) / lc) for key, p in nums.items()}
    # each numerator over 1 is already in lowest terms
    return {key: RationalFunction._of(p, one) for key, p in nums.items()}


def member_positive(f: Polynomial, basis: NoetherianBasis) -> bool:
    """Membership through parameter-coefficient operators.

    Valid for families produced by noetherian_positive: f belongs to the
    ideal exactly when every operator pairs to zero with the x-monomial
    coefficients of f, its x-block translated to the basis's center, viewed
    as rational functions of the parameters.
    """
    ring = f.ring
    point = _moved_point(ring, basis.center)
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
