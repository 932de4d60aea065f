"""Dual operator bases for primary ideals and submodules with finite staircase.

Three constructions of the same span are provided, each called as f(G, center)
on a GroebnerBasis of the input and reaching the center through one
translate, which posdim's parameter-coefficient construction shares: a
forward pass reading normal-form coefficients, a backward pass anti-rewriting
corner monomials against the leads the basis has cached, and Mourrain's
integration method, one queue of candidate operators over one kernel of
annihilation and closure constraints.  All return a NoetherianBasis whose
operator list is in the canonical row form anchored at the residual
monomials, so results from different routes compare equal term by term.  The
inverse, ideal_from_conditions, recovers the reduced Groebner basis from the
span.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .diffop import (
    DiffOp,
    Echelon,
    _lowered,
    apply_at,
    closure,
    is_closed,
    pivots_first,
)
from .errors import (
    NoethError,
    NotClosedError,
    NotPrimaryError,
    ZeroPolynomialError,
)
from .groebner import GroebnerBasis, Staircase, _divide, buchberger, corner_monomials, staircase
from .orderings import AnyOrder, as_module_order
from .polynomial import Polynomial, add_into
from .ring import (
    Record,
    TermKey,
    as_center,
    exp_add,
    exp_deg,
    exp_divides,
    exp_sub,
    reading_key,
)


class NoetherianBasis(Record):
    """A canonical basis of the dual space of source at the origin.

    source is the translate G0 of the input, or for posdim its extension over
    Q(t); None for a hand-built basis.  validate certifies the basis: the
    operators annihilate source, there are multiplicity of them, each has a
    private key, at which every other operator is 0, and each lowering is the
    combination its entries at the private keys prescribe.  So they span the
    dual space, and source is primary at the origin (Mourrain, JPAA 1997).
    """

    __slots__ = _fields = ("operators", "multiplicity", "center", "method", "source")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, operators: tuple[DiffOp, ...], multiplicity: int, center: tuple, method: str, source):
        self._set("operators", operators)
        self._set("multiplicity", multiplicity)
        self._set("center", center)
        self._set("method", method)
        self._set("source", source)

    def __iter__(self):
        return iter(self.operators)

    def __len__(self):
        return len(self.operators)

    def validate(self) -> None:
        """Check the certificate above; NotPrimaryError when an operator does not annihilate source."""
        ops = self.operators
        for g in self.source or ():
            if any(sum(c * L.terms[k] for k, c in g.terms.items() if k in L.terms) for L in ops):
                raise NotPrimaryError(
                    "the input is not primary at the center: an operator does not annihilate the input"
                )
        if len(ops) != self.multiplicity:
            raise NoethError("operator count does not match the multiplicity")
        # at rank > 1 the first row may mix positions, as (1, -dx) does for e1 = -x e2
        if ops and all(any(alpha) for _, alpha in ops[0].terms):
            raise NoethError("the first operator must have a term of order zero")
        owners = Counter(k for L in ops for k in L.terms)
        private = {next((k for k in L.terms if owners[k] == 1), None): L.terms for L in ops}
        if None in private:
            raise NoethError("an operator has no key at which every other operator is 0")
        for L, j in ((L, j) for L in ops for j in range(L.ring.x_count)):
            lowered, combination = _lowered(L.terms, j), {}
            for k, row in ((k, private[k]) for k in lowered if k in private):
                c = lowered[k] if row[k] == 1 else lowered[k] / row[k]
                add_into(combination, row.items() if c == 1 else ((key, c * v) for key, v in row.items()))
            if combination != lowered:
                raise NoethError("operator span is not stable under differentiation lowering")


def translate(G, center):
    """The reduced basis of G moved so that center's x-block becomes the origin, and the center.

    The center is a point of the whole ring.  Parameter coordinates are not
    moved: the parameter-coefficient construction describes the ideal along
    x = c_x at every parameter value, in the input's coordinates.  Translates
    are cached on G by the moved point, and a reduced G is its own translate
    to the origin.
    """
    if not isinstance(G, GroebnerBasis):
        raise NoethError("expected a Groebner basis; run buchberger() first")
    ring = G.ring
    center = as_center(ring, center)
    moved = center[: ring.x_count] + (Fraction(0),) * ring.t_count
    if any(moved):
        G0 = G.translates.get(moved)
        if G0 is None:
            G0 = buchberger([g.substitute_affine(moved) for g in G.elements], G.order, ring)
            G.translates[moved] = G0
    elif G.reduced:
        G0 = G
    else:
        G0 = buchberger(list(G.elements), G.order, ring)
    return G0, center


def _prepare(G, center):
    """translate for the zero-dimensional constructions, whose center must be a zero of the input."""
    if isinstance(G, GroebnerBasis) and G.ring.t_count:
        raise NoethError("variables after the separator require the parameter-coefficient construction")
    G0, center = translate(G, center)
    # The center is a zero unless the values of G0 at the origin span the
    # whole free module; then so does the input near the center (Nakayama).
    # At rank 1 that is a nonzero value.
    constant = G0.ring.zero_exp()
    values = Echelon()
    for g in G0.elements:
        values.add({key: c for key, c in g.terms.items() if key[1] == constant})
    if len(values) == G0.ring.rank:
        raise NotPrimaryError("the input is not primary at the center: the center is not a zero of the input")
    return G0, center


def _multiplication_matrices(G0: GroebnerBasis, stair: Staircase) -> list[tuple[dict, object]]:
    """Multiplication by each variable on the quotient, in the staircase basis.

    Entry j is (columns, D_j) with M_j = columns / D_j: columns maps every
    residual monomial b to the sparse column D_j * NF(x_j * b), integers on
    rational input.  A product that stays in the staircase is its own normal
    form, the column {x_j * b: D_j}; only the border needs the division
    loop, and D_j is the lcm of the denominators of the border's normal
    forms, each in lowest terms.  Over a field of coefficients
    (RationalFunction) every denominator, and D_j, is 1.
    """
    ring = G0.ring
    reducers = G0._reducers
    residual = set(stair.monomials)
    matrices = []
    for j in range(ring.nvars):
        unit = ring.var_exp(j)
        forms = {}
        for pos, exp in stair.monomials:
            key = (pos, exp_add(exp, unit))
            forms[(pos, exp)] = ({key: 1}, 1) if key in residual else _monomial_normal_form(reducers, key)
        den = lcm(*[scale for _, scale in forms.values()])
        columns = {}
        for b, (terms, scale) in forms.items():
            columns[b] = terms if scale == den else {k: v * (den // scale) for k, v in terms.items()}
        matrices.append((columns, den))
    return matrices


def _monomial_normal_form(reducers, key) -> tuple[dict, object]:
    """NF of the monomial key as (terms, den) in lowest terms, standing for terms / den."""
    return _lowest_terms(*_divide({key: 1}, 1, reducers, reducers.integral))


def _lowest_terms(terms: dict, den) -> tuple[dict, object]:
    """(terms, den) for the vector terms / den, divided by the gcd of den and every entry.

    den is an integer; when it is 1 the entries may be field elements.
    """
    if den == 1:
        return terms, den
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: v // g for k, v in terms.items()}, den // g


def _times(matrix: tuple, vector: tuple) -> tuple[dict, object]:
    """The product M_j * v for sparse vectors v = terms / den over the staircase, in lowest terms."""
    columns, den = matrix
    terms, vden = vector
    out: dict = {}
    for b, c in terms.items():
        for key, v in columns[b].items():
            out[key] = out.get(key, 0) + c * v
    return _lowest_terms({key: v for key, v in out.items() if v}, den * vden)


def _nonzero_normal_forms(G0: GroebnerBasis, stair: Staircase) -> dict[TermKey, tuple]:
    """NF(x^alpha e_pos) for every monomial outside the input, by degree.

    Each normal form is a pair (terms, den), standing for terms / den with
    integer terms on rational input and den 1 over a field of coefficients.
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
    reducers = G0._reducers
    layer = {}
    for pos in range(1, ring.rank + 1):
        key = (pos, ring.zero_exp())
        nf = _monomial_normal_form(reducers, key)
        if nf[0]:
            layer[key] = nf
    mult = _multiplication_matrices(G0, stair)
    found: dict[TermKey, tuple] = {}
    degree = 0
    while layer:
        if degree == mu:
            raise NotPrimaryError(
                f"the input is not primary at the center: a monomial of degree {mu} "
                f"(the multiplicity) has a nonzero normal form"
            )
        found.update(layer)
        above: dict[TermKey, tuple] = {}
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
                if image[0]:
                    above[key] = image
        layer = above
        degree += 1
    return found


def dual_rows(G0: GroebnerBasis, stair: Staircase) -> list[dict]:
    """Operator terms, one dict per staircase monomial beta, in staircase order.

    The row at beta maps every monomial to the beta-coefficient of its normal
    form, keys in reading order.  This is where the walk's integers become
    Fractions, one per entry; field coefficients pass as they are.
    """
    nfs = _nonzero_normal_forms(G0, stair)
    rows: dict[TermKey, dict] = {beta: {} for beta in stair.monomials}
    for key in sorted(nfs, key=reading_key):
        terms, den = nfs[key]
        for beta, c in terms.items():
            rows[beta][key] = Fraction(c, den) if type(c) is int else c
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
    ops = tuple(DiffOp._of(G0.ring, row, center) for row in dual_rows(G0, stair))
    basis = NoetherianBasis(ops, stair.multiplicity, center, "forward", G0)
    basis.validate()
    return basis


# -- backward construction -----------------------------------------------------


def _accumulate_backward(corner, G0: GroebnerBasis, mu: int) -> dict:
    """Corner coefficient of every normal form, as terms keyed by monomial.

    The coefficient at key k is the corner-monomial coefficient of NF(x^k).
    Anti-rewriting is the transpose of a division step: rewriting sends the
    lead of a monic element g to -tail(g), so every tail term tc x^tau of g
    with tau dividing k moves c x^k up to (k / tau) LT(g) with coefficient
    -tc * c.  A target counts only for the first element whose lead divides
    it, the one the division itself uses, or targets shared by several
    relations would be counted once per relation.  Keys are popped in
    ascending term order; every move strictly increases the order, so the
    smallest pending key always carries its final value.  Keys of total
    degree >= mu normal-form to zero and are dropped.
    """
    reducers = G0._reducers
    term_key = reducers.term_key
    moves = []
    for (pos, lexp, *_), g in zip(reducers, G0.elements):
        moves.append((pos, lexp, [kc for kc in g.terms.items() if kc[0] != (pos, lexp)]))
    coeffs = {corner: Fraction(1)}
    pending = [(term_key(corner), corner)]
    total = {}
    while pending:
        key = heappop(pending)[1]
        c = coeffs.pop(key)
        if not c:
            continue
        total[key] = c
        pos, exp = key
        for i, (gpos, gexp, tail) in enumerate(moves):
            for (tpos, texp), tc in tail:
                if tpos != pos or not exp_divides(texp, exp):
                    continue
                up = exp_add(gexp, exp_sub(exp, texp))
                if exp_deg(up) >= mu or any(p == gpos and exp_divides(e, up) for p, e, _ in moves[:i]):
                    continue
                target = (gpos, up)
                if target in coeffs:
                    coeffs[target] += -tc * c
                else:
                    coeffs[target] = -tc * c
                    heappush(pending, (term_key(target), target))
    return total


def noetherian_backward(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Anti-rewriting construction seeded at the corner monomials.

    Each corner's operator collects the corner coefficients of the normal
    forms, accumulated against the leads of the basis's cached reducers; the
    lowering closure of those operators spans the dual space.  The closure
    is built once, with the residual monomials first in the column order, so
    its rows are already the canonical basis.
    """
    G0, center = _prepare(G, center)
    ring = G0.ring
    stair = staircase(G0)
    mu = stair.multiplicity
    corners = corner_monomials(stair, G0)
    span = Echelon(key=pivots_first(stair.monomials))
    ops = closure([DiffOp(ring, _accumulate_backward(corner, G0, mu), center) for corner in corners], span)
    # The corner sums drop every monomial of degree >= mu, which loses nothing
    # only on input primary at the center; validate refuses the rest.
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


# -- integration construction ----------------------------------------------------


def noetherian_linear(G: GroebnerBasis, center=None) -> NoetherianBasis:
    """Integration construction: one queue of candidates over one kernel.

    Candidates are the units and the restricted integrals of the operators
    found: x_j raises only the terms free of x_1, ..., x_(j-1), which reaches
    every closed operator (Mourrain, JPAA 1997).  A candidate P is one kernel
    column, its values on the basis translated to the center and its
    lowerings sigma_j P; a found operator F is one column per j, -F at the
    coordinates of sigma_j.  A relation among the columns is a combination
    of candidates that annihilates the input and lowers into the span of
    the found operators, so no column goes stale as the span grows.  The
    search is complete, and running out of candidates short of mu operators
    means the input is not primary at the center.  The span puts the
    residual monomials first, so its rows are already the canonical basis.
    """
    G0, center = _prepare(G, center)
    ring = G0.ring
    stair = staircase(G0)
    mu = stair.multiplicity
    span = Echelon(key=pivots_first(stair.monomials))
    kernel = Echelon(key=_tags_last)
    # Solve at the origin; the real center is attached at the end.
    origin = (Fraction(0),) * ring.nvars
    candidates: list[DiffOp] = []
    units = [DiffOp.identity(ring, pos, origin) for pos in range(1, ring.rank + 1)]
    queue: deque = deque(units)
    seen = set(units)
    while queue and len(span) < mu:
        item = queue.popleft()
        if isinstance(item, DiffOp):
            tag = (0, len(candidates))
            candidates.append(item)
            column = {("g", i): v for i, g in enumerate(G0.elements) if (v := apply_at(item, g))}
            for j in range(ring.x_count):
                column.update((("s", j, k), c) for k, c in _lowered(item.terms, j).items())
        else:
            tag, column = item
        relation = _relation(kernel, column, tag)
        if relation is None:
            continue
        L: dict = {}
        for (kind, idx, *_), c in relation.items():
            if kind == 0:
                add_into(L, ((k, v * c) for k, v in candidates[idx].terms.items()))
        if not span.add(L):
            continue
        # A found operator's columns go first: the relations they complete
        # among candidates already held need no new candidate.
        found = len(span)
        for j in range(ring.x_count):
            queue.appendleft(((1, found, j), {("s", j, k): -c for k, c in L.items()}))
            P = DiffOp._of(ring, {(pos, a): c for (pos, a), c in L.items() if not any(a[:j])}, origin).rho(j)
            if P and P not in seen:
                seen.add(P)
                queue.append(P)
    if len(span) < mu:
        raise NotPrimaryError(
            f"the input is not primary at the center: the closed operators that "
            f"annihilate it span {len(span)} dimensions, short of the multiplicity {mu}"
        )
    basis = NoetherianBasis(span.operators(ring, center), mu, center, "linear", G0)
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
    """True when every operator annihilates f at the center; no parameters, which apply_at fixes there."""
    if f.ring.t_count or any(type(c) is not Fraction for L in basis.operators for c in L.terms.values()):
        raise NoethError("membership over parameters: use member_positive")
    return all(apply_at(L, f) == 0 for L in basis.operators)
