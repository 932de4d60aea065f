"""Dual operator bases for primary ideals and submodules with finite staircase.

Three constructions of the same span are provided: a forward pass reading
normal-form coefficients, a backward pass anti-rewriting corner monomials, and
a degree-climbing linear solve.  All return a NoetherianBasis whose operator
list is in the canonical row form anchored at the residual monomials, so
results from different routes compare equal term by term.  The inverse,
ideal_from_conditions, recovers the reduced Groebner basis from the span.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Sequence

from .diffop import (
    DiffOp,
    Echelon,
    apply_at,
    canonical_operator_basis,
    closure,
    dual_of_polynomial,
    is_closed,
)
from .errors import (
    NoethError,
    NotClosedError,
    NotPrimaryError,
    ZeroPolynomialError,
)
from .groebner import GroebnerBasis, Staircase, buchberger, corner_monomials, normal_form, staircase
from .orderings import AnyOrder, as_module_order, leading_term
from .polynomial import Polynomial
from .ring import (
    TermKey,
    as_center,
    exp_add,
    exp_deg,
    exp_divides,
    exp_sub,
    reading_key,
)


class NoetherianBasis:
    """A canonical basis of the dual space attached to a primary input."""

    __slots__ = ("operators", "multiplicity", "center", "method", "source")

    def __init__(self, operators, multiplicity, center, method, source):
        object.__setattr__(self, "operators", tuple(operators))
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "center", tuple(center))
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):
        raise AttributeError("NoetherianBasis is immutable")

    def __iter__(self):
        return iter(self.operators)

    def __len__(self):
        return len(self.operators)

    def validate(self) -> None:
        """Check the structural invariants; raise NoethError on failure."""
        ops = self.operators
        if len(ops) != self.multiplicity:
            raise NoethError("operator count does not match the multiplicity")
        span = Echelon(ops)
        if len(span) != len(ops):
            raise NoethError("operators are linearly dependent")
        if not is_closed(ops, echelon=span):
            raise NoethError("operator span is not stable under differentiation lowering")
        if ops and ops[0].degree() != 0:
            raise NoethError("the first operator must be an order-zero evaluation")
        for L in ops:
            if L.degree() >= self.multiplicity:
                raise NoethError("operator order exceeds the multiplicity bound")


def _prepare(G, center):
    """Translate if needed and return (reduced basis at origin, center tuple)."""
    if not isinstance(G, GroebnerBasis):
        raise NoethError("expected a Groebner basis; run buchberger() first")
    ring = G.ring
    if ring.t_count:
        raise NoethError("variables after the separator require the parameter-coefficient construction")
    center = as_center(ring, center)
    if any(center):
        G0 = buchberger([g.substitute_affine(center) for g in G.elements], G.order, ring)
    elif G.reduced:
        G0 = G
    else:
        G0 = buchberger(list(G.elements), G.order, ring)
    if ring.rank == 1:
        origin = (Fraction(0),) * ring.nvars
        for g in G0.elements:
            if g.evaluate(origin) != 0:
                raise NoethError("the center is not a zero of the input ideal")
    return G0, center


def _multiplication_matrices(G0: GroebnerBasis, stair: Staircase) -> list[dict]:
    """Multiplication by each variable on the quotient, in the staircase basis.

    Entry j maps every residual monomial b to the terms of NF(x_j * b), the
    sparse column of M_j at b.  A product that stays in the staircase is its
    own normal form; only the border needs the division algorithm.
    """
    ring = G0.ring
    residual = set(stair.monomials)
    matrices = []
    for j in range(ring.nvars):
        unit = ring.var_exp(j)
        columns = {}
        for pos, exp in stair.monomials:
            key = (pos, exp_add(exp, unit))
            if key in residual:
                columns[(pos, exp)] = {key: Fraction(1)}
            else:
                columns[(pos, exp)] = normal_form(Polynomial.monomial(ring, key[1], 1, pos), G0).terms
        matrices.append(columns)
    return matrices


def _times(column: dict, vector: dict) -> dict:
    """The product M_j * vector for sparse vectors over the staircase."""
    out: dict = {}
    for b, c in vector.items():
        for key, v in column[b].items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _nonzero_normal_forms(G0: GroebnerBasis, stair: Staircase) -> dict[TermKey, dict]:
    """Terms of NF(x^alpha e_pos) for every monomial outside the input, by degree.

    Layer d+1 comes from layer d through NF(x^(alpha + e_j)) = M_j NF(x^alpha);
    only nonzero normal forms are carried, since a monomial with a zero
    predecessor lies in the input.  The walk ends at the first empty layer,
    beyond which every monomial lies in the input.  On primary input that
    layer has degree at most mu; a nonzero layer of degree mu means the
    maximal ideal is not nilpotent modulo the input.
    """
    ring = G0.ring
    n = ring.nvars
    mu = stair.multiplicity
    units = [ring.var_exp(j) for j in range(n)]
    layer = {}
    for pos in range(1, ring.rank + 1):
        nf = normal_form(Polynomial.constant(ring, 1, pos), G0).terms
        if nf:
            layer[(pos, ring.zero_exp())] = nf
    mult = _multiplication_matrices(G0, stair)
    found: dict[TermKey, dict] = {}
    degree = 0
    while layer:
        if degree == mu:
            raise NotPrimaryError(
                f"the input is not primary at the center: a monomial of degree {mu} "
                f"(the multiplicity) has a nonzero normal form"
            )
        found.update(layer)
        above: dict[TermKey, dict] = {}
        seen: set[TermKey] = set()
        for (pos, alpha), vector in layer.items():
            for j in range(n):
                key = (pos, exp_add(alpha, units[j]))
                if key in seen:
                    continue
                seen.add(key)
                up = key[1]
                if any(up[k] and (pos, exp_sub(up, units[k])) not in layer for k in range(n)):
                    continue
                image = _times(mult[j], vector)
                if image:
                    above[key] = image
        layer = above
        degree += 1
    return found


def dual_rows(G0: GroebnerBasis, stair: Staircase) -> list[dict]:
    """Operator terms, one dict per staircase monomial beta, in staircase order.

    The row at beta maps every monomial to the beta-coefficient of its normal
    form, keys in reading order.
    """
    nfs = _nonzero_normal_forms(G0, stair)
    rows: dict[TermKey, dict] = {beta: {} for beta in stair.monomials}
    for key in sorted(nfs, key=reading_key):
        for beta, c in nfs[key].items():
            rows[beta][key] = c
    return [rows[beta] for beta in stair.monomials]


def noetherian_forward(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Taylor-coefficient construction: one operator per residual monomial.

    The operator at a residual monomial beta collects the beta-coefficients
    of the normal forms of all monomials, read off a degree walk with the
    multiplication matrices; raises NotPrimaryError when the input is not
    primary at the center.
    """
    G0, center = _prepare(G, center)
    stair = staircase(G0)
    ops = [DiffOp(G0.ring, row, center) for row in dual_rows(G0, stair)]
    basis = NoetherianBasis(ops, stair.multiplicity, center, "forward", G0)
    basis.validate()
    return basis


# -- backward construction -----------------------------------------------------


def backward_step(state: Polynomial, g: Polynomial, order: AnyOrder):
    """One anti-rewriting move of a single-term state against a generator.

    Rewriting sends LT(g) to -tail(g)/LC(g); this is its transpose.  Every
    non-leading term tau of g that divides the state's term pushes the state
    up to (state / tau) * LT(g) with coefficient -c_tau / LC(g).  Returns
    None when no non-leading term divides the state.  The caller must keep
    only targets whose division rewriter is g itself, or targets shared by
    several relations would be counted once per relation.
    """
    if len(state.terms) != 1:
        raise ZeroPolynomialError("backward states must be single terms")
    ((skey, sc),) = state.terms.items()
    lt_key, lc = leading_term(g, order)
    out = {}
    for tkey, tc in g.terms.items():
        if tkey == lt_key or tkey[0] != skey[0] or not exp_divides(tkey[1], skey[1]):
            continue
        target = (lt_key[0], exp_add(lt_key[1], exp_sub(skey[1], tkey[1])))
        out[target] = -(tc / lc) * sc
    return Polynomial(g.ring, out) if out else None


def _accumulate_backward(corner, G0: GroebnerBasis, mu: int) -> Polynomial:
    """Corner coefficient of every normal form, collected as a polynomial.

    The coefficient at key k is the corner-monomial coefficient of NF(x^k).
    Keys are visited in ascending term order; every move strictly increases
    the order, so the smallest pending key always carries its final value.
    Keys of total degree >= mu normal-form to zero and are dropped.
    """
    ring = G0.ring
    term_key = as_module_order(G0.order).key(ring)
    leads = [(g, leading_term(g, G0.order)[0]) for g in G0.elements]

    def rewriter(key):
        for g, lt in leads:
            if lt[0] == key[0] and exp_divides(lt[1], key[1]):
                return g
        return None

    coeffs = {corner: Fraction(1)}
    pending = {corner}
    total = {}
    while pending:
        key = min(pending, key=term_key)
        pending.discard(key)
        c = coeffs.pop(key)
        if not c:
            continue
        total[key] = c
        state = Polynomial.monomial(ring, key[1], c, key[0])
        for g, _ in leads:
            pushed = backward_step(state, g, G0.order)
            if pushed is None:
                continue
            for tkey, tc in pushed.terms.items():
                if exp_deg(tkey[1]) >= mu or rewriter(tkey) is not g:
                    continue
                coeffs[tkey] = coeffs.get(tkey, Fraction(0)) + tc
                pending.add(tkey)
    return Polynomial(ring, total)


def noetherian_backward(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Anti-rewriting construction seeded at the corner monomials."""
    G0, center = _prepare(G, center)
    ring = G0.ring
    stair = staircase(G0)
    mu = stair.multiplicity
    duals = []
    for corner in corner_monomials(stair, G0):
        accumulated = _accumulate_backward(corner, G0, mu)
        duals.append(dual_of_polynomial(accumulated, center))
    closed = closure(duals)
    # The corner sums drop every monomial of degree >= mu, which loses nothing
    # only on input primary at the center; there every operator kills the
    # input at the origin.  Conversely, mu independent closed operators that
    # kill it make the quotient local there, so the check is complete.
    for L in closed:
        for g in G0.elements:
            if sum(c * L.terms.get(key, 0) for key, c in g.terms.items()):
                raise NotPrimaryError(
                    "the input is not primary at the center: a lowering-closed operator "
                    "of the backward pass does not annihilate the input"
                )
    ops = canonical_operator_basis(closed, ring, center, pivot_keys=list(stair.monomials))
    basis = NoetherianBasis(ops, mu, center, "backward", G0)
    basis.validate()
    return basis


# -- relations among tagged vectors ----------------------------------------------

_TAG = "tag"


def _tags_last(column) -> tuple:
    return (column[0] == _TAG, column)


def _relation(kernel: Echelon, vector: dict, tag):
    """Reduce vector, tagged by tag, against kernel (keyed by _tags_last).

    The tag rides along as the column (_TAG, tag), which ranks after every
    coordinate, so each row of kernel remembers the tagged vectors it
    combines.  A vector in the span of the earlier ones leaves only tag
    columns, and the relation {tag: 1, t: -c_t, ...} with vector equal to the
    sum of c_t times vector_t is returned.  Any other vector joins kernel and
    the result is None.
    """
    residue = kernel.reduce({**vector, (_TAG, tag): Fraction(1)})
    if any(column[0] != _TAG for column in residue):
        kernel.add(residue)
        return None
    return {column[1]: c for column, c in residue.items()}


# -- linear-solve construction ---------------------------------------------------


def noetherian_linear(gens: Sequence[Polynomial], order: AnyOrder, center=None) -> NoetherianBasis:
    """Degree-climbing construction from closure and annihilation constraints.

    Candidates are the units and the restricted integrals of the operators
    found so far: x_j raises only the terms free of x_1, ..., x_(j-1), which
    reaches every closed operator (Mourrain, JPAA 1997).  The search is
    therefore complete, and ending with fewer than mu operators means the
    input is not primary at the center.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroPolynomialError("no nonzero generators")
    ring = gens[0].ring
    center = as_center(ring, center)
    targets = [g.substitute_affine(center) for g in gens] if any(center) else gens
    G0, _ = _prepare(buchberger(targets, order, ring), None)
    stair = staircase(G0)
    mu = stair.multiplicity

    found: list[DiffOp] = []
    span = Echelon()
    while len(found) < mu:
        pool: list[DiffOp] = [
            DiffOp.identity(ring, position=pos) for pos in range(1, ring.rank + 1)
        ]
        for L in found:
            for j in range(ring.x_count):
                free = {(pos, a): c for (pos, a), c in L.terms.items() if not any(a[:j])}
                pool.append(DiffOp(ring, free).rho(j))
        uniq: list[DiffOp] = []
        seen_terms = set()
        for P in pool:
            key = frozenset(P.terms.items())
            if key and key not in seen_terms:
                seen_terms.add(key)
                uniq.append(P)
        pool = uniq

        # Unknowns: one coefficient per pool member, whose column holds its
        # constraint values: every generator is annihilated, and each lowering
        # image stays in the current span.  A column that depends on the
        # earlier ones gives a kernel vector.
        columns = []
        for P in pool:
            column = {("g", i): v for i, g in enumerate(targets) if (v := apply_at(P, g))}
            for j in range(ring.x_count):
                column.update((("s", j, k), c) for k, c in span.reduce(P.sigma(j).terms).items())
            columns.append(column)
        kernel = Echelon(key=_tags_last)
        added = 0
        for idx, column in enumerate(columns):
            relation = _relation(kernel, column, idx)
            if relation is None:
                continue
            # Solve at the origin; the real center is attached at the end.
            L = DiffOp(ring, {})
            for t in sorted(relation):
                L = L + pool[t].scale(relation[t])
            if L.is_zero():
                continue
            if span.add(L.terms):
                found.append(L)
                added += 1
                if len(found) == mu:
                    break
        if added == 0:
            raise NotPrimaryError(
                f"the input is not primary at the center: the closed operators that "
                f"annihilate it span {len(found)} dimensions, short of the multiplicity {mu}"
            )

    ops = canonical_operator_basis(found, ring, center, pivot_keys=list(stair.monomials))
    basis = NoetherianBasis(ops, mu, center, "linear", G0)
    basis.validate()
    return basis


# -- inverse problem and membership ----------------------------------------------


def ideal_from_conditions(ops: Sequence[DiffOp], order: AnyOrder) -> GroebnerBasis:
    """Reduced Groebner basis of everything the operators annihilate.

    A Buchberger-Moeller walk (Marinari, Moeller and Mora, AAECC 1993): terms
    are visited in increasing order from the units e_1..e_r, and a term that a
    lead found so far divides is skipped.  The evaluation vector
    (L_1(m), ..., L_k(m)) of a term m either depends on those of the earlier
    staircase terms b, which gives the basis element m - sum c_b b with lead
    m, or joins them: m is in the staircase and its multiples m x_j become
    candidates.  At most k terms are independent, so no degree bound is
    needed, and the elements come out reduced and monic.
    """
    ops = [L for L in ops if not L.is_zero()]
    if not ops:
        raise ZeroPolynomialError("no operators given")
    ring = ops[0].ring
    if ring.t_count:
        raise NoethError("conditions over parameter coefficients are not supported")
    if not is_closed(ops):
        raise NotClosedError("the operator span is not stable under lowering")
    term_key = as_module_order(order).key(ring)
    candidates = [(term_key(m), m) for m in ((pos, ring.zero_exp()) for pos in range(1, ring.rank + 1))]
    heapify(candidates)
    seen = {m for _, m in candidates}
    kernel = Echelon(key=_tags_last)
    elements = []
    while candidates:
        _, m = heappop(candidates)
        if any(lead[0] == m[0] and exp_divides(lead[1], m[1]) for lead, _ in elements):
            continue
        mono = Polynomial.monomial(ring, m[1], 1, m[0])
        vector = {("op", i): v for i, L in enumerate(ops) if (v := apply_at(L, mono))}
        relation = _relation(kernel, vector, m)
        if relation is not None:
            elements.append((m, Polynomial(ring, relation)))
            continue
        for j in range(ring.nvars):
            up = (m[0], exp_add(m[1], ring.var_exp(j)))
            if up not in seen:
                seen.add(up)
                heappush(candidates, (term_key(up), up))
    # Leads were found in increasing order; buchberger lists them decreasing.
    return GroebnerBasis(ring, order, tuple(g for _, g in reversed(elements)), True)


def membership_by_operators(f: Polynomial, basis: NoetherianBasis) -> bool:
    """True when every operator annihilates f at the center."""
    return all(apply_at(L, f) == 0 for L in basis.operators)
