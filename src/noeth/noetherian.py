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
    apply_all,
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
    operators annihilate source.generators (the input generators moved to
    the origin, which translate keeps with G0), there are multiplicity of
    them, each has a private key, at which every other operator is 0, and
    each lowering is the combination its entries at the private keys
    prescribe.  A span closed under lowering that annihilates generators
    annihilates their ideal, so they span the dual space and the input is
    primary at the origin (Mourrain, JPAA 1997), even if buchberger lost an
    element of G0.  An extra element (a larger ideal) still passes, since
    the multiplicity is counted on source's staircase.
    """

    __slots__ = _fields = ("operators", "multiplicity", "center", "method", "source")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, operators: tuple[DiffOp, ...], multiplicity: int, center: tuple, method: str, source):
        self._assign(operators, multiplicity, center, method, source)

    def __iter__(self):
        return iter(self.operators)

    def __len__(self):
        return len(self.operators)

    def at(self, center) -> "NoetherianBasis":
        """This basis with its operators acting at center; an operator's center is only where it acts."""
        center = as_center(self.operators[0].ring, center)
        ops = tuple(DiffOp._of(L.ring, L.terms, center) for L in self.operators)
        return NoetherianBasis(ops, self.multiplicity, center, self.method, self.source)

    def validate(self) -> None:
        """Check the certificate above; NotPrimaryError when an operator does not annihilate a generator."""
        ops = self.operators
        for g in () if self.source is None else self.source.generators:
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
    center = as_center(G.ring, center)
    if G.reduced and not any(center[: G.ring.x_count]):
        return G, center
    return _translate_generators(G.elements, G.order, G.ring, center, G.translates), center


def _moved_point(ring, center) -> tuple:
    """The point translate moves to the origin: the x-block of center, the parameters kept."""
    return as_center(ring, center)[: ring.x_count] + (Fraction(0),) * ring.t_count


def _translate_generators(gens, order: AnyOrder, ring, center, cache: dict, run=None) -> GroebnerBasis:
    """The reduced basis, by run or buchberger, of gens moved as translate moves them, kept in cache by moved point."""
    moved = _moved_point(ring, center)
    G0 = cache.get(moved)
    if G0 is None:
        gens = tuple(g.substitute_affine(moved) if any(moved) else g for g in gens)
        G0 = cache[moved] = (run or buchberger)(gens, order, ring)
        G0._set("generators", gens)  # what validate checks, so a basis that lost an element is caught
    return G0


def _refuse_parameters(ring) -> None:
    """Raise unless ring has no parameters, as the zero-dimensional constructions need."""
    if ring.t_count:
        raise NoethError("variables after the separator require the parameter-coefficient construction")


def _prepare(G, center):
    """translate for the zero-dimensional constructions, whose center must be a zero of the input."""
    if isinstance(G, GroebnerBasis):
        _refuse_parameters(G.ring)
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


def _raised(key: TermKey, j: int) -> TermKey:
    """The monomial key times x_j."""
    pos, exp = key
    return pos, exp[:j] + (exp[j] + 1,) + exp[j + 1 :]


def _nonzero_normal_forms(G0: GroebnerBasis, stair: Staircase) -> dict[TermKey, tuple]:
    """NF(x^alpha e_pos) for every monomial outside the input, by degree.

    Each normal form is a pair (terms, den) in lowest terms, standing for
    terms / den with integer terms on rational input and den 1 over a field
    of coefficients.  The walk reaches each monomial once, from the one with
    its last variable lowered, and carries only nonzero normal forms: a
    divisor of a monomial outside the input is outside it too.  A staircase
    monomial b is its own normal form, and its child x_j b is the column
    NF(x_j b).  NF(x_j m) for m outside the staircase is sum_b c_b NF(x_j b)
    over the terms c_b b of NF(m), over the lcm of the denominators of the
    columns it touches.  A column is the monomial itself inside the
    staircase, else one division per border monomial per walk, made when the
    walk first needs it: under lex a border normal form may hold staircase
    monomials of higher degree, whose columns the walk needs before it
    reaches their degree.  On primary input every nonzero normal form has
    degree below mu; one of degree mu means the maximal ideal is not
    nilpotent modulo the input.
    """
    ring = G0.ring
    mu = stair.multiplicity
    reducers = G0._reducers
    residual = set(stair.monomials)
    borders: dict[TermKey, tuple] = {}

    def normal_form(key):
        if key in residual:
            return {key: 1}, 1
        if key not in borders:
            borders[key] = _lowest_terms(*_divide({key: 1}, 1, reducers, reducers.integral))
        return borders[key]

    columns: list[dict] = [{} for _ in range(ring.nvars)]  # NF(x_j b) by staircase monomial b
    found: dict[TermKey, tuple] = {}
    walk = []
    for pos in range(1, ring.rank + 1):
        key = (pos, ring.zero_exp())
        nf = normal_form(key)
        if nf[0]:
            found[key] = nf
            walk.append((key, 0, 0))
    for key, last, degree in walk:  # grows while it is walked, degree by degree
        terms, den = found[key]
        inside = key in residual
        for j, column in enumerate(columns[last:], last):
            up = _raised(key, j)
            if inside:
                nf = column[key] = normal_form(up)
            else:
                images = []
                for b, c in terms.items():
                    col = column.get(b)
                    if col is None:
                        col = column[b] = normal_form(_raised(b, j))
                    images.append((c, col))
                common = lcm(*[cden for _, (_, cden) in images])
                out: dict = {}
                for c, (cterms, cden) in images:
                    if cden != common:
                        c *= common // cden
                    for k, v in cterms.items():
                        out[k] = out.get(k, 0) + c * v
                nf = _lowest_terms({k: v for k, v in out.items() if v}, den * common)
            if nf[0]:
                if degree + 1 == mu:
                    raise NotPrimaryError(
                        f"the input is not primary at the center: a monomial of degree {mu} "
                        f"(the multiplicity) has a nonzero normal form"
                    )
                found[up] = nf
                walk.append((up, j, degree + 1))
    return found


def dual_rows(G0: GroebnerBasis, stair: Staircase) -> list[dict]:
    """Operator terms, one dict per staircase monomial beta, in staircase order.

    The row at beta maps every monomial to the beta-coefficient of its normal
    form, keys in reading order, as one walk of _nonzero_normal_forms finds
    them.  This is where the walk's integers become Fractions, one per
    entry; field coefficients pass as they are.
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
    of the normal forms of all monomials, read off one degree walk that
    divides only the border monomials it reaches, each once; raises
    NotPrimaryError when the input is not primary at the center.
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
    corner_ops = [DiffOp._of(ring, _accumulate_backward(corner, G0, mu), center) for corner in corners]
    ops = closure(corner_ops, span, bound=mu)
    # The corner sums drop every monomial of degree >= mu, which loses nothing
    # only on input primary at the center; a closure of more than mu rows and
    # validate refuse the rest.
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
        vector = {("op", i): v for i, v in enumerate(apply_all(ops, mono)) if v}
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
    return all(v == 0 for v in apply_all(basis.operators, f))
