"""Buchberger's algorithm, normal forms, staircases, and elimination.

Works uniformly for ideals and for submodules of a free module: every term
carries a (position, exponent) key and S-pairs are only formed between
elements whose leading terms share a position.  Output bases are reduced and
monic, hence canonical for the given ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InfiniteStaircaseError,
    NotEliminationOrderError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .orderings import AnyOrder, as_module_order, is_elimination_for, lead_by_key, leading_term, monic_by_key
from .polynomial import Polynomial, add_shifted
from .ring import (
    RingDescriptor,
    TermKey,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    reading_key,
    x_part,
)


@dataclass(frozen=True)
class GroebnerBasis:
    ring: RingDescriptor
    order: AnyOrder
    elements: tuple[Polynomial, ...]
    reduced: bool = True

    def leading_terms(self) -> list[tuple[TermKey, object]]:
        return [leading_term(g, self.order) for g in self.elements]

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
    subtracted since the leading terms cancel exactly.
    """
    if isinstance(basis, GroebnerBasis):
        if order is None:
            order = basis.order
        elements = basis.elements
    else:
        elements = tuple(basis)
        if order is None:
            raise ValueError("normal_form needs an ordering when given a plain sequence")
    ring = f.ring
    term_key = as_module_order(order).key(ring)
    reducers = []
    for g in elements:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError("normal_form operands live over different rings")
        if g.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading term")
        lead, gc = lead_by_key(g, term_key)
        tail = [kc for kc in g.terms.items() if kc[0] != lead]
        reducers.append((lead[0], lead[1], gc, tail))
    p = dict(f.terms)
    remainder: dict[TermKey, object] = {}
    while p:
        best = max(p, key=term_key)
        c = p.pop(best)
        pos, exp = best
        for gpos, gexp, gc, tail in reducers:
            if gpos == pos and exp_divides(gexp, exp):
                add_shifted(p, tail, exp_sub(exp, gexp), -(c / gc))
                break
        else:
            remainder[best] = c
    return Polynomial._of(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: AnyOrder) -> Polynomial:
    """S-polynomial; zero when the leading terms sit in different positions."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("zero polynomial has no leading term")
    term_key = as_module_order(order).key(f.ring)
    (fk, fc) = lead_by_key(f, term_key)
    (gk, gc) = lead_by_key(g, term_key)
    if fk[0] != gk[0]:
        return Polynomial.zero(f.ring)
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingMismatchError("cannot add over different rings")
    lcm = exp_lcm(fk[1], gk[1])
    # The scaled leading terms are both one at the lcm and cancel exactly.
    acc: dict[TermKey, object] = {}
    add_shifted(acc, [kc for kc in f.terms.items() if kc[0] != fk], exp_sub(lcm, fk[1]), (fc / fc) / fc)
    add_shifted(acc, [kc for kc in g.terms.items() if kc[0] != gk], exp_sub(lcm, gk[1]), -((gc / gc) / gc))
    return Polynomial._of(f.ring, acc)


def buchberger(gens, order: AnyOrder, ring: RingDescriptor | None = None) -> GroebnerBasis:
    """Reduced monic Groebner basis, deterministic for a given ordering.

    Pairs are selected by smallest lcm (normal strategy); the coprime-lead and
    chain criteria prune useless reductions.
    """
    gens = [g for g in gens if g is not None and not g.is_zero()]
    if ring is None:
        if not gens:
            raise ZeroPolynomialError("no generators and no ring given")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live over different rings")
    term_key = as_module_order(order).key(ring)

    basis: list[Polynomial] = []
    for g in gens:
        r = normal_form(g, basis, order) if basis else g
        if not r.is_zero():
            basis.append(monic_by_key(r, term_key))

    lts: list[TermKey] = [lead_by_key(g, term_key)[0] for g in basis]

    def lcm_key(i: int, j: int) -> TermKey | None:
        a, b = lts[i], lts[j]
        if a[0] != b[0]:
            return None
        return (a[0], exp_lcm(a[1], b[1]))

    pending: set[tuple[int, int]] = set()
    processed: set[tuple[int, int]] = set()
    for i, j in itertools.combinations(range(len(basis)), 2):
        if lcm_key(i, j) is not None:
            pending.add((i, j))

    def pair_key(pair: tuple[int, int]):
        return term_key(lcm_key(*pair)), pair

    while pending:
        pair = min(pending, key=pair_key)
        pending.discard(pair)
        processed.add(pair)
        i, j = pair
        lk = lcm_key(i, j)
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
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order)
        if r.is_zero():
            continue
        basis.append(monic_by_key(r, term_key))
        lts.append(lead_by_key(basis[-1], term_key)[0])
        new = len(basis) - 1
        for k in range(new):
            if lcm_key(k, new) is not None:
                pending.add((k, new))

    # minimalize: drop elements whose lead is divisible by another kept lead
    order_idx = sorted(range(len(basis)), key=lambda idx: term_key(lts[idx]))
    kept: list[int] = []
    for idx in order_idx:
        if not any(_divides(lts[k], lts[idx]) for k in kept):
            kept.append(idx)
    minimal = [basis[idx] for idx in kept]

    # interreduce tails
    reduced: list[Polynomial] = list(minimal)
    for i in range(len(reduced)):
        others = reduced[:i] + reduced[i + 1 :]
        reduced[i] = monic_by_key(normal_form(reduced[i], others, order), term_key)

    reduced.sort(key=lambda g: term_key(lead_by_key(g, term_key)[0]), reverse=True)
    return GroebnerBasis(ring, order, tuple(reduced), True)


@dataclass(frozen=True)
class Staircase:
    ring: RingDescriptor
    monomials: tuple[TermKey, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


def staircase(G: GroebnerBasis) -> Staircase:
    """Monomials outside the leading-term module; error when infinite.

    Finiteness needs, for every position, a pure power of every variable among
    the leading terms (a constant lead empties its position).
    """
    ring = G.ring
    lts = [key for key, _ in G.leading_terms()]
    residual: list[TermKey] = []
    for pos in range(1, ring.rank + 1):
        pos_lts = [exp for p, exp in lts if p == pos]
        if any(not any(exp) for exp in pos_lts):
            continue  # unit leading term: nothing residual in this position
        bounds = []
        for j in range(ring.nvars):
            pure = [exp[j] for exp in pos_lts if all(e == 0 for i, e in enumerate(exp) if i != j)]
            if not pure:
                raise InfiniteStaircaseError(
                    f"infinite staircase: no pure power of {ring.names[j]} in the leading terms"
                )
            bounds.append(min(pure))
        for exp in itertools.product(*(range(b) for b in bounds)):
            if not any(exp_divides(lexp, exp) for lexp in pos_lts):
                residual.append((pos, exp))
    residual.sort(key=reading_key)
    return Staircase(ring, tuple(residual))


def corner_monomials(stair: Staircase, G: GroebnerBasis) -> tuple[TermKey, ...]:
    """Residual monomials pushed into the leading-term module by every variable."""
    ring = G.ring
    lts = [key for key, _ in G.leading_terms()]
    corners = []
    for (pos, exp) in stair.monomials:
        pos_lts = [lexp for p, lexp in lts if p == pos]
        ok = True
        for j in range(ring.nvars):
            up = tuple(e + 1 if i == j else e for i, e in enumerate(exp))
            if not any(exp_divides(lexp, up) for lexp in pos_lts):
                ok = False
                break
        if ok:
            corners.append((pos, exp))
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
