"""Buchberger's algorithm, normal forms, staircases, and elimination.

Works uniformly for ideals and for submodules of a free module: every term
carries a (position, exponent) key and S-pairs are only formed between
elements whose leading terms share a position.  Output bases are reduced and
monic, hence canonical for the given ordering.

Every term is ranked once: a basis element's lead is found when it is
prepared as a reducer (a GroebnerBasis keeps its reducers), a dividend term
when it enters the dividend, and an S-pair when it is queued.

Where every coefficient is a Fraction, the division runs over the integers,
fraction-free: a reducer holds an integer multiple of its element, the
dividend is scaled to integers, and S-polynomials are integer combinations
of reducers.  Fractions remain at the edges: the input polynomials, the
remainder terms normal_form returns, and the monic elements of a
GroebnerBasis.  The division loop itself, _divide, returns its remainder
as integers over one scale, which the forward walk keeps.
Rational-function coefficients (positive dimension) are divided as field
elements throughout.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    InfiniteStaircaseError,
    NotEliminationOrderError,
    ResourceLimitError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orderings import AnyOrder, SortKey, as_module_order, is_elimination_for, lead_by_key, monic_by_key
from .polynomial import Polynomial, add_shifted, integer_multiple
from .ring import (
    Record,
    RingDescriptor,
    TermKey,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    reading_key,
    x_part,
)


def _all_rational(polys) -> bool:
    return all(type(c) is Fraction for g in polys for c in g.terms.values())


def _reducer(g: Polynomial, term_key: SortKey, integral: bool) -> tuple:
    """(position, lead exponent, lead coefficient, tail terms) of a nonzero g.

    When integral, the entry describes D*g instead, for D the lcm of g's
    denominators signed like its lead: integer coefficients, a positive lead,
    and the same remainders as g.
    """
    if g.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    lead, lc = lead_by_key(g, term_key)
    terms = g.terms
    if integral:
        scale = lcm(*[c.denominator for c in terms.values()])
        terms = integer_multiple(terms, -scale if lc < 0 else scale)
        lc = terms[lead]
    return lead[0], lead[1], lc, [kc for kc in terms.items() if kc[0] != lead]


class _Reducers(list):
    """Prepared reducers in stored order, with the ring and sort key that ranked them.

    integral is fixed when the container is made: its entries are integer
    multiples of elements with Fraction coefficients.
    """

    __slots__ = ("ring", "term_key", "integral")

    def __init__(self, ring: RingDescriptor, term_key: SortKey, integral: bool, entries=()):
        super().__init__(entries)
        self.ring = ring
        self.term_key = term_key
        self.integral = integral


class GroebnerBasis(Record):
    _fields = ("ring", "order", "elements", "reduced")
    __slots__ = _fields + ("__dict__",)  # __dict__ holds the cached properties

    def __init__(self, ring: RingDescriptor, order: AnyOrder, elements: tuple[Polynomial, ...], reduced=True):
        self._set("_key", (ring, order, elements, reduced))
        self._set("ring", ring)
        self._set("order", order)
        self._set("elements", elements)
        self._set("reduced", reduced)

    @cached_property
    def _reducers(self) -> _Reducers:
        term_key = as_module_order(self.order).key(self.ring)
        integral = _all_rational(self.elements)
        return _Reducers(self.ring, term_key, integral, [_reducer(g, term_key, integral) for g in self.elements])

    @cached_property
    def translates(self) -> dict:
        """Reduced bases of this input moved so that a center becomes the origin, by center."""
        return {}

    def leading_terms(self) -> list[tuple[TermKey, object]]:
        return [((pos, exp), g.terms[pos, exp]) for (pos, exp, *_), g in zip(self._reducers, self.elements)]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _divides(lt: TermKey, key: TermKey) -> bool:
    return lt[0] == key[0] and exp_divides(lt[1], key[1])


def normal_form(f: Polynomial, basis, order: AnyOrder | None = None) -> Polynomial:
    """Remainder of f under the division algorithm, reducing the largest term first.

    Basis elements are tried in stored order, which makes the result canonical
    for a fixed basis; for a reduced Groebner basis it is the unique normal form.
    The dividend is one dict reduced in place: its largest term is popped and
    either moved to the remainder or cancelled by a multiple of the first
    basis element whose leading term divides it, of which only the tail is
    subtracted since the leading terms cancel exactly.  The dividend's terms
    are ranked once, as they enter it, in a list sorted by their sort keys; an
    entry whose term has since cancelled is skipped when it comes up.  A
    GroebnerBasis under its own order supplies its cached reducers.

    When f and the basis have Fraction coefficients only, the dividend is
    lam * f over the integers, lam the lcm of f's denominators.  A step at
    coefficient c against an integer lead gc with h = gcd(c, gc) first
    multiplies the dividend (and lam) by gc/h, unless that is 1, and then
    subtracts c/h times the shifted integer tail.  The remainder terms leave
    as Fraction(c, lam) for the final lam, so the result is the same
    Polynomial with Fraction coefficients as division over the field gives.
    """
    ring = f.ring
    if isinstance(basis, GroebnerBasis) and (order is None or order == basis.order):
        basis = basis._reducers
    if isinstance(basis, _Reducers):
        reducers, term_key = basis, basis.term_key
        if reducers and ring is not reducers.ring and ring != reducers.ring:
            raise RingMismatchError("normal_form operands live over different rings")
    else:
        if isinstance(basis, GroebnerBasis):
            elements = basis.elements
        else:
            elements = tuple(basis)
            if order is None:
                raise ValueError("normal_form needs an ordering when given a plain sequence")
        for g in elements:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("normal_form operands live over different rings")
        term_key = as_module_order(order).key(ring)
        integral = _all_rational(elements)
        reducers = _Reducers(ring, term_key, integral, [_reducer(g, term_key, integral) for g in elements])
    p = f.terms
    integral = reducers.integral and _all_rational((f,))
    if not integral:
        return Polynomial._of(ring, _divide(dict(p), 1, reducers, False)[0])
    lam = lcm(*[c.denominator for c in p.values()])
    remainder, lam = _divide(integer_multiple(p, lam), lam, reducers, True)
    return Polynomial._of(ring, {k: Fraction(c, lam) for k, c in remainder.items()})


def _divide(p: dict, lam, reducers: _Reducers, integral: bool) -> tuple[dict, object]:
    """(remainder, lam): the division loop of normal_form on a dividend dict it takes over.

    When integral, p holds the integers lam * f and the remainder comes back
    as the integers lam * NF(f), for the lam that the steps have grown:
    rescaling the dividend by m rescales the terms already moved out too.
    Otherwise p holds field elements, lam is 1 and the remainder is NF(f).
    """
    term_key = reducers.term_key
    queue = sorted((term_key(t), t) for t in p)
    remainder: dict[TermKey, object] = {}
    while queue:
        best = queue.pop()[1]
        c = p.pop(best, None)
        if c is None:
            continue  # cancelled after it was queued
        pos, exp = best
        for gpos, gexp, gc, tail in reducers:
            if gpos == pos and exp_divides(gexp, exp):
                if integral:
                    h = gcd(c, gc)
                    if h != gc:
                        m = gc // h
                        lam *= m
                        p = {k: v * m for k, v in p.items()}
                        if remainder:
                            remainder = {k: v * m for k, v in remainder.items()}
                    factor = -(c // h)
                else:
                    factor = -(c / gc)
                shift = exp_sub(exp, gexp)
                for (tpos, texp), tc in tail:
                    key = (tpos, exp_add(texp, shift))
                    s = p.get(key)
                    if s is None:
                        p[key] = tc * factor
                        insort(queue, (term_key(key), key))
                    else:
                        s = s + tc * factor
                        if s:
                            p[key] = s
                        else:
                            del p[key]
                break
        else:
            remainder[best] = c
    return remainder, lam


def s_polynomial(f: Polynomial, g: Polynomial, order: AnyOrder) -> Polynomial:
    """S-polynomial; zero when the leading terms sit in different positions.

    buchberger passes two of its prepared reducers instead, with their
    _Reducers container as order, so that no lead is ranked and no tail is
    built again.  Over the integers the result is then the integer
    combination (gc/h) x^u f - (fc/h) x^v g, for leads fc, gc with
    h = gcd(fc, gc): a positive multiple of the S-polynomial with the same
    normal form up to that factor.
    """
    if isinstance(order, _Reducers):
        ring, integral = order.ring, order.integral
    else:
        ring, integral = f.ring, False
        same_ring = g.ring is ring or g.ring == ring
        term_key = as_module_order(order).key(ring)
        f, g = _reducer(f, term_key, False), _reducer(g, term_key, False)
        if f[0] == g[0] and not same_ring:
            raise RingMismatchError("cannot add over different rings")
    fpos, fexp, fc, ftail = f
    gpos, gexp, gc, gtail = g
    if fpos != gpos:
        return Polynomial.zero(ring)
    if integral:
        h = gcd(fc, gc)
        ffactor, gfactor = gc // h, -(fc // h)
    else:
        ffactor, gfactor = (fc / fc) / fc, -((gc / gc) / gc)
    lcm_exp = exp_lcm(fexp, gexp)
    # The scaled leading terms are equal at the lcm and cancel exactly.
    acc: dict[TermKey, object] = {}
    add_shifted(acc, ftail, exp_sub(lcm_exp, fexp), ffactor)
    add_shifted(acc, gtail, exp_sub(lcm_exp, gexp), gfactor)
    if integral:
        acc = {k: Fraction(c) for k, c in acc.items()}
    return Polynomial._of(ring, acc)


def buchberger(gens, order: AnyOrder, ring: RingDescriptor | None = None) -> GroebnerBasis:
    """Reduced monic Groebner basis, deterministic for a given ordering.

    Pairs are selected by smallest lcm (normal strategy) from a heap whose
    entries are ranked when the pair is formed; the coprime-lead and chain
    criteria prune useless reductions.  S-polynomials are formed from the
    elements' prepared reducers, over the integers when every coefficient
    is a Fraction.
    """
    gens = [g for g in gens if g is not None]
    if ring is None:
        if not gens:
            raise ZeroPolynomialError("no generators and no ring given")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live over different rings")
    term_key = as_module_order(order).key(ring)

    integral = _all_rational(gens)
    basis: list[Polynomial] = []
    reducers = _Reducers(ring, term_key, integral)
    for g in gens:
        r = normal_form(g, reducers) if reducers else g
        if not r.is_zero():
            basis.append(monic_by_key(r, term_key))
            reducers.append(_reducer(basis[-1], term_key, integral))

    lts: list[TermKey] = [entry[:2] for entry in reducers]
    pending: list[tuple] = []  # heap of (key of the lcm, i, j, lcm)

    def add_pairs(new: int) -> None:
        b = lts[new]
        for k in range(new):
            a = lts[k]
            if a[0] == b[0]:
                lk = (a[0], exp_lcm(a[1], b[1]))
                heapq.heappush(pending, (term_key(lk), k, new, lk))

    for new in range(1, len(basis)):
        add_pairs(new)
    processed: set[tuple[int, int]] = set()

    while pending:
        _, i, j, lk = heapq.heappop(pending)
        processed.add((i, j))
        # coprime leading terms: S-pair reduces to zero (ideals only; module
        # tails spread over other positions, so the product criterion fails)
        if ring.rank == 1 and lk[1] == exp_add(lts[i][1], lts[j][1]):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already handled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lts[k], lk):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in processed and pjk in processed:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(reducers[i], reducers[j], reducers)
        r = normal_form(s, reducers)
        if r.is_zero():
            continue
        basis.append(monic_by_key(r, term_key))
        reducers.append(_reducer(basis[-1], term_key, integral))
        lts.append(reducers[-1][:2])
        add_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another kept lead
    order_idx = sorted(range(len(basis)), key=lambda idx: term_key(lts[idx]))
    kept: list[int] = []
    for idx in order_idx:
        if not any(_divides(lts[k], lts[idx]) for k in kept):
            kept.append(idx)

    # interreduce tails against the other kept elements, in kept order; a
    # minimal basis keeps every lead, so only entry i's tail changes, and only
    # when another lead divides one of its terms
    reduced = [basis[idx] for idx in kept]
    others = _Reducers(ring, term_key, integral, [reducers[idx] for idx in kept])
    leads = [lts[idx] for idx in kept]
    for i in range(len(reduced)):
        if not any(_divides(lead, key) for key, _ in others[i][3] for lead in leads):
            continue
        del others[i]
        reduced[i] = monic_by_key(normal_form(reduced[i], others), term_key)
        others.insert(i, _reducer(reduced[i], term_key, integral))

    ranked = sorted(zip(others, reduced), key=lambda entry: term_key(entry[0][:2]), reverse=True)
    return GroebnerBasis(ring, order, tuple(g for _, g in ranked), True)


# Most monomials staircase() lists before it raises ResourceLimitError; a walk
# this long takes well under a second, and memory and time grow with its length.
STAIRCASE_CAP = 100_000


class Staircase(Record):
    __slots__ = _fields = ("ring", "monomials")

    def __init__(self, ring: RingDescriptor, monomials: tuple[TermKey, ...]):
        self._set("_key", (ring, monomials))
        self._set("ring", ring)
        self._set("monomials", monomials)

    @property
    def multiplicity(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def staircase(G: GroebnerBasis) -> Staircase:
    """Monomials outside the leading-term module; error when infinite.

    Finiteness needs, for every position, a pure power of every variable among
    the leading terms (a constant lead empties its position).  The walk climbs
    from each position's 1 one variable at a time through monomials no lead
    divides; the residual set is closed under division, so it reaches all of
    it without visiting the bounding box.  A walk that finds more than
    STAIRCASE_CAP monomials stops with ResourceLimitError.
    """
    ring = G.ring
    lts = [key for key, _ in G.leading_terms()]
    n = ring.nvars
    residual: list[TermKey] = []
    for pos in range(1, ring.rank + 1):
        pos_lts = [exp for p, exp in lts if p == pos]
        if any(not any(exp) for exp in pos_lts):
            continue  # unit leading term: nothing residual in this position
        for j in range(n):
            if not any(all(e == 0 for i, e in enumerate(exp) if i != j) for exp in pos_lts):
                raise InfiniteStaircaseError(
                    f"infinite staircase: no pure power of {ring.names[j]} in the leading terms"
                )
        # A lead that divides exp + e_j but not exp has exactly that j-th
        # exponent, so only those leads are tried.
        with_exp = [{} for _ in range(n)]
        for lexp in pos_lts:
            for j in range(n):
                with_exp[j].setdefault(lexp[j], []).append(lexp)
        # each monomial is reached once, from the one with its last variable lowered
        found = [(ring.zero_exp(), 0)]
        room = STAIRCASE_CAP - len(residual)
        for exp, last in found:  # grows while it is walked
            if len(found) > room:
                raise ResourceLimitError(
                    f"the staircase has more than {STAIRCASE_CAP} monomials, the cap on listing it"
                )
            for j in range(last, n):
                up = exp[:j] + (exp[j] + 1,) + exp[j + 1 :]
                if not any(exp_divides(lexp, up) for lexp in with_exp[j].get(up[j], ())):
                    found.append((up, j))
        residual.extend((pos, exp) for exp, _ in found)
    residual.sort(key=reading_key)
    return Staircase(ring, tuple(residual))


def corner_monomials(stair: Staircase, G: GroebnerBasis) -> tuple[TermKey, ...]:
    """Residual monomials that no variable keeps residual: the maxima of the staircase."""
    residual = set(stair.monomials)
    units = [G.ring.var_exp(j) for j in range(G.ring.nvars)]
    corners = [
        (pos, exp) for pos, exp in stair.monomials
        if all((pos, exp_add(exp, unit)) not in residual for unit in units)
    ]
    return tuple(sorted(corners, key=reading_key))


def eliminate(gens, order: AnyOrder, ring: RingDescriptor | None = None) -> tuple[Polynomial, ...]:
    """Generators of the contraction to the parameter subring.

    Requires an ordering under which a parameter-only leading term certifies a
    parameter-only element.
    """
    if isinstance(gens, GroebnerBasis):
        G = gens
        ring = G.ring
    else:
        if ring is None:
            ring = gens[0].ring
        G = buchberger(gens, order, ring)
    if not is_elimination_for(G.order, ring):
        raise NotEliminationOrderError(f"{G.order} cannot eliminate the differential block")
    out = []
    for g in G.elements:
        if all(not any(x_part(ring, exp)) for (_, exp) in g.terms):
            out.append(g)
    return tuple(out)


def is_member(f: Polynomial, G: GroebnerBasis) -> bool:
    return normal_form(f, G).is_zero()
