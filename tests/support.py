"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own staircase walk and
normal-form machinery where independence matters: multiplicity is recounted
by exhaustive box enumeration and by plain row reduction over the monomial
coefficient matrix.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import product
from math import comb, lcm
from pathlib import Path

from noeth import DiffOp, NoetherianBasis, Polynomial, RationalFunction, RingDescriptor, normal_form
from noeth.diffop import alpha_factorial
from noeth.orderings import leading_term
from noeth.ring import exp_add, exp_deg, exp_divides, exp_sub, reading_key

RX = RingDescriptor(("x",), 1)
RXY = RingDescriptor(("x", "y"), 2)
RXYZ = RingDescriptor(("x", "y", "z"), 3)
RXT = RingDescriptor(("x", "t"), 1, 1)
RXYT = RingDescriptor(("x", "y", "t"), 2, 1)
RM2 = RingDescriptor(("x", "y"), 2, 0, 2)

# Small problem files the CLI tests run and the error-contract test mutates.
STANDARD = "ring x, y;\norder deglex;\nideal x^2 - y, y^2, x*y;\n"
PARAMETER = "ring x, y | t;\norder lex;\nideal x^2, y^2, -x*t + y;\n"
MODULE_EP = (
    "ring x, y;\norder lex;\nmoduleorder top;\n"
    "component [x, 1], [y, x], [0, y] at 0, 0;\n"
    "component [x - 1, 1], [y, 0], [0, x - 1], [0, y] at 1, 0;\n"
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """perfbench/workloads.py as a module: the benchmark's seeded problem files and calls."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def variables(ring: RingDescriptor, position: int = 1):
    return [Polynomial.variable(ring, i, position) for i in range(ring.nvars)]


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_exponent(rng: random.Random, nvars: int, max_deg: int):
    exp = [0] * nvars
    for _ in range(rng.randint(0, max_deg)):
        exp[rng.randrange(nvars)] += 1
    return tuple(exp)


def random_polynomial(
    rng: random.Random,
    ring: RingDescriptor,
    max_terms: int = 5,
    max_deg: int = 4,
) -> Polynomial:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(1, ring.rank), random_exponent(rng, ring.nvars, max_deg))
        c = random_fraction(rng)
        if c:
            terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(ring, {k: c for k, c in terms.items() if c})


def random_nonzero(rng, ring, max_terms=5, max_deg=4) -> Polynomial:
    while True:
        f = random_polynomial(rng, ring, max_terms, max_deg)
        if not f.is_zero():
            return f


def random_origin_primary(rng: random.Random, ring: RingDescriptor, cap: int = 12):
    """Generators of a random ideal primary at the origin, staircase <= cap.

    The pure variable powers force the radical to be the full maximal ideal,
    which makes the ideal primary; every extra generator is kept constant-free
    so the origin stays on the variety.
    """
    n = ring.nvars
    while True:
        powers = [rng.randint(1, 3) for _ in range(n)]
        box = 1
        for p in powers:
            box *= p
        if 1 < box <= cap:
            break
    gens = []
    for i, p in enumerate(powers):
        exp = tuple(p if j == i else 0 for j in range(n))
        gens.append(Polynomial.monomial(ring, exp, 1))
    for _ in range(rng.randint(1, 2)):
        f = random_polynomial(rng, ring, max_terms=3, max_deg=max(powers))
        f = f - Polynomial.constant(ring, f.coefficient((1, ring.zero_exp())))
        if not f.is_zero():
            gens.append(f)
    return gens


def module_vector(first, second) -> Polynomial:
    """The element of RM2 with entries first and second, polynomials over RXY or 0."""
    terms = {}
    for pos, entry in ((1, first), (2, second)):
        if entry:
            terms.update(((pos, exp), c) for (_, exp), c in entry.terms.items())
    return Polynomial(RM2, terms)


def random_combination(rng: random.Random, gens, max_terms=3, max_deg=3) -> Polynomial:
    """A random element of the ideal/module generated by gens."""
    ring = gens[0].ring
    scalar_ring = ring.with_rank(1)
    total = Polynomial.zero(ring)
    for g in gens:
        h = random_polynomial(rng, scalar_ring, max_terms, max_deg)
        if not h.is_zero():
            total = total + h * g
    return total


def mu_by_box_count(G) -> int:
    """Recount the staircase by exhaustive enumeration over the bounding box.

    Uses only divisibility against the leading terms, no staircase walk: for a
    finite staircase every variable has a pure-power leading term per position,
    which bounds each exponent coordinate.
    """
    ring = G.ring
    lts = [leading_term(g, G.order)[0] for g in G.elements]
    count = 0
    for pos in range(1, ring.rank + 1):
        bounds = []
        for i in range(ring.nvars):
            pure = [
                e[i]
                for p, e in lts
                if p == pos and all(e[j] == 0 for j in range(ring.nvars) if j != i)
            ]
            if not pure:
                raise AssertionError(f"no pure power of variable {i} at position {pos}")
            bounds.append(min(pure))
        for exp in product(*[range(b) for b in bounds]):
            if not any(p == pos and exp_divides(e, exp) for p, e in lts):
                count += 1
    return count


def fraction_rank(rows) -> int:
    """Row rank over Q by plain Gaussian elimination (oracle-local)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def monomials_up_to(ring: RingDescriptor, degree: int):
    """All scalar monomial exponents of total degree <= degree."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], ring.nvars, degree)
    return sorted(out, key=lambda e: (exp_deg(e), e))


def mu_by_linear_algebra(gens, degree: int) -> int:
    """Quotient dimension via row reduction, no Groebner machinery at all.

    Counts monomials of degree <= d minus the rank of the span of all m*g of
    degree <= d; for zero-dimensional input this stabilizes at the
    multiplicity once d is past the staircase, which the caller must ensure
    (the two-step stabilization check below guards against a short budget).
    """
    ring = gens[0].ring

    def quotient_dim(d: int) -> int:
        monos = monomials_up_to(ring, d)
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in gens:
            gd = g.total_degree()
            for m in monomials_up_to(ring, d - gd):
                prod = g.mul_monomial(m)
                row = [Fraction(0)] * len(monos)
                for (_, e), c in prod.terms.items():
                    row[index[e]] = c
                rows.append(row)
        return len(monos) - fraction_rank(rows)

    a, b = quotient_dim(degree), quotient_dim(degree + 1)
    assert a == b, f"quotient dimension not stabilized at degree {degree}"
    return a


def reference_substitute_affine(f: Polynomial, point) -> Polynomial:
    """f(v + p) by binomial expansion over Fractions, one variable at a time.

    The field-arithmetic form of Polynomial.substitute_affine, which expands
    over the integers instead.
    """
    ring = f.ring
    point = [Fraction(p) for p in point]
    acc: dict = {}
    for (pos, exp), c in f.terms.items():
        partial = {ring.zero_exp(): c}
        for i, (e, p) in enumerate(zip(exp, point)):
            grown: dict = {}
            for m, v in partial.items():
                for k in range(e + 1):
                    up = m[:i] + (m[i] + k,) + m[i + 1 :]
                    grown[up] = grown.get(up, 0) + v * comb(e, k) * p ** (e - k)
            partial = grown
        for m, v in partial.items():
            acc[(pos, m)] = acc.get((pos, m), 0) + v
    return Polynomial(ring, acc)


def per_term_substitute_affine(f: Polynomial, point) -> Polynomial:
    """f(v + p) over the integers, each term's product expanded on its own.

    Polynomial.substitute_affine's former method, kept as a reference for its
    Taylor shift.  With p_i = a_i / D, lam the lcm of f's denominators and
    deg its total degree, a term c v^e adds lam * c * D^(deg - |e|) *
    prod_i (D v_i + a_i)^(e_i), expanded binomially, to D^deg * lam * f(v + p),
    which is divided back at the end.
    """
    ring = f.ring
    point = [Fraction(p) for p in point]
    den = lcm(*[p.denominator for p in point])
    nums = [p.numerator * (den // p.denominator) for p in point]
    lam = lcm(*[c.denominator for c in f.terms.values()])
    deg = max(f.total_degree(), 0)
    acc: dict = {}
    for (pos, exp), c in f.terms.items():
        partial = {ring.zero_exp(): c.numerator * (lam // c.denominator) * den ** (deg - exp_deg(exp))}
        for i, (e, a) in enumerate(zip(exp, nums)):
            grown: dict = {}
            for m, v in partial.items():
                for k in range(e + 1):
                    up = m[:i] + (k,) + m[i + 1 :]
                    grown[up] = grown.get(up, 0) + v * comb(e, k) * a ** (e - k) * den**k
            partial = grown
        for m, v in partial.items():
            acc[(pos, m)] = acc.get((pos, m), 0) + v
    return Polynomial(ring, {key: Fraction(v, lam * den**deg) for key, v in acc.items()})


def fix_parameters(f: Polynomial, t0) -> Polynomial:
    """f with its parameters fixed at the point t0, over the ring of its x-block."""
    ring = f.ring
    n = ring.x_count
    acc: dict = {}
    for (pos, exp), c in f.terms.items():
        for e, p in zip(exp[n:], t0):
            c = c * Fraction(p) ** e
        acc[(pos, exp[:n])] = acc.get((pos, exp[:n]), 0) + c
    return Polynomial(ring.x_subring(), acc)


def poly_derivative(f: Polynomial, i: int) -> Polynomial:
    """Partial derivative with respect to variable i."""
    terms: dict = {}
    for (pos, exp), c in f.terms.items():
        if exp[i]:
            down = tuple(e - 1 if j == i else e for j, e in enumerate(exp))
            key = (pos, down)
            terms[key] = terms.get(key, Fraction(0)) + c * exp[i]
    return Polynomial(f.ring, {k: c for k, c in terms.items() if c})


def exponential_shift_apply(gen: Polynomial, component_polys, shifts) -> Polynomial:
    """Apply gen as a differential operator to a polynomial-times-exponential.

    With u_j = p_j(x) e^(s.x), each partial d_i acts on the polynomial part
    as d_i + s_i; the symbolic frequency entries of `shifts` are polynomials
    over the component ring, so the result is exact.  Returns the polynomial
    factor of gen(d) u, which must be zero for a solution.
    """
    ring = component_polys[0].ring
    total = Polynomial.zero(ring)
    for (pos, exp), coeff in gen.terms.items():
        q = component_polys[pos - 1]
        for i, e in enumerate(exp):
            for _ in range(e):
                q = poly_derivative(q, i) + q * shifts[i]
        total = total + q.scale(coeff)
    return total


# -- from-scratch division loop over rational-function coefficients ------------
# An independent check of the coefficient-extension step: polynomials are raw
# dicts keyed by x-exponent tuples with RationalFunction values, ordered by
# plain tuple comparison (lex).


def reference_normal_form(f, elements, order):
    """Textbook division: the largest term of the dividend is either moved to
    the remainder or cancelled by subtracting a whole multiple of the first
    element whose leading term divides it, a new Polynomial at every step."""
    p = f
    remainder = Polynomial.zero(f.ring)
    while not p.is_zero():
        key, c = leading_term(p, order)
        for g in elements:
            gkey, gc = leading_term(g, order)
            if gkey[0] == key[0] and exp_divides(gkey[1], key[1]):
                shift = tuple(a - b for a, b in zip(key[1], gkey[1]))
                p = p - g.mul_monomial(shift, c / gc)
                break
        else:
            lead = Polynomial(f.ring, {key: c})
            remainder = remainder + lead
            p = p - lead
    return remainder


def reference_buchberger(gens, order):
    """Reduced monic Groebner basis by the textbook algorithm, as a set.

    Every pair of elements whose leads share a position is reduced, with no
    criterion and no pair ordering, by reference_normal_form; the basis is
    then minimalized and each element replaced by its monic remainder modulo
    the others.  Independent of the library's S-polynomials and reducers.
    """
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (fk, fc), (gk, gc) = leading_term(basis[i], order), leading_term(basis[j], order)
        if fk[0] != gk[0]:
            continue
        lcm = tuple(max(a, b) for a, b in zip(fk[1], gk[1]))
        up_f = tuple(a - b for a, b in zip(lcm, fk[1]))
        up_g = tuple(a - b for a, b in zip(lcm, gk[1]))
        s = basis[i].mul_monomial(up_f, 1 / fc) - basis[j].mul_monomial(up_g, 1 / gc)
        r = reference_normal_form(s, basis, order)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    leads = [leading_term(g, order)[0] for g in basis]
    minimal = []
    for i, (pos, exp) in enumerate(leads):
        # drop an element whose lead another lead divides; of equal leads keep the first
        if not any(
            other[0] == pos and exp_divides(other[1], exp) and (other != (pos, exp) or k < i)
            for k, other in enumerate(leads)
            if k != i
        ):
            minimal.append(basis[i])
    reduced = set()
    for g in minimal:
        r = reference_normal_form(g, [h for h in minimal if h is not g], order)
        reduced.add(r.scale(1 / leading_term(r, order)[1]))
    return reduced


def oracle_zero(ring):
    from noeth import RationalFunction

    return RationalFunction(Polynomial.zero(ring.t_subring()))


def oracle_from(poly):
    """Dict keyed by x-exponent with rational-function values."""
    from noeth import RationalFunction
    from noeth.posdim import group_by_x

    return {key[1]: RationalFunction(tp) for key, tp in group_by_x(poly).items()}


def oracle_nf(p, basis, zero):
    p = dict(p)
    result = {}
    while p:
        e = max(p)
        c = p.pop(e)
        hit = None
        for b in basis:
            lb = max(b)
            if all(u >= v for u, v in zip(e, lb)):
                hit = (b, lb)
                break
        if hit is None:
            result[e] = c
            continue
        b, lb = hit
        shift = tuple(u - v for u, v in zip(e, lb))
        fac = c / b[lb]
        for be, bv in b.items():
            k = tuple(u + s for u, s in zip(be, shift))
            if k == e:
                continue
            nv = p.get(k, zero) - fac * bv
            if nv.is_zero():
                p.pop(k, None)
            else:
                p[k] = nv
    return result


def oracle_buchberger(polys, zero):
    basis = [dict(p) for p in polys if p]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lf, lg = max(f), max(g)
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        s: dict = {}
        for src, lead in ((f, lf), (g, lg)):
            shift = tuple(a - b for a, b in zip(lcm, lead))
            for e, v in src.items():
                k = tuple(a + b for a, b in zip(e, shift))
                part = v / src[lead]
                s[k] = s.get(k, zero) + (part if src is f else zero - part)
                if s[k].is_zero():
                    del s[k]
        rem = oracle_nf(s, basis, zero)
        if rem:
            basis.append(rem)
            pairs.extend((len(basis) - 1, m) for m in range(len(basis) - 1))
    return basis


def oracle_multiplicity(basis):
    """Box count below the staircase of the oracle basis leading terms."""
    lts = [max(b) for b in basis]
    n = len(lts[0])
    box = []
    for i in range(n):
        pures = [lt[i] for lt in lts if all(e == 0 for j, e in enumerate(lt) if j != i)]
        box.append(min(pures))
    count = 0
    for exp in product(*(range(b) for b in box)):
        if not any(all(u >= v for u, v in zip(exp, lt)) for lt in lts):
            count += 1
    return count


# -- the forward walk over a field ---------------------------------------------
# The walk noetherian.dual_rows used to run, kept as the reference: all of the
# multiplication matrices M_1..M_n built first, their columns normal_form
# results with Fraction (or rational-function) coefficients, a product inside
# the staircase the column {x_j b: Fraction(1)}, and each layer of degree d+1
# the products M_j NF(m) of layer d, over monomials whose every predecessor
# has a nonzero normal form.  The library walks integer vectors over one
# denominator each, multiplies only normal forms outside the staircase and
# divides each border monomial once, when it first needs it.


def reference_dual_rows(G0, stair):
    """Rows of the forward construction, read off a field-arithmetic degree walk."""
    ring = G0.ring
    n = ring.nvars
    residual = set(stair.monomials)
    units = [ring.var_exp(j) for j in range(n)]
    mult = []
    for unit in units:
        columns = {}
        for pos, exp in stair.monomials:
            key = (pos, exp_add(exp, unit))
            if key in residual:
                columns[(pos, exp)] = {key: Fraction(1)}
            else:
                columns[(pos, exp)] = normal_form(Polynomial.monomial(ring, key[1], 1, pos), G0).terms
        mult.append(columns)

    def times(columns, vector):
        out = {}
        for b, c in vector.items():
            for key, v in columns[b].items():
                out[key] = out.get(key, 0) + c * v
        return {key: v for key, v in out.items() if v}

    layer = {}
    for pos in range(1, ring.rank + 1):
        nf = normal_form(Polynomial.constant(ring, 1, pos), G0).terms
        if nf:
            layer[(pos, ring.zero_exp())] = nf
    found = {}
    for _ in range(stair.multiplicity + 1):
        if not layer:
            break
        found.update(layer)
        above, seen = {}, set()
        for (pos, alpha), vector in layer.items():
            for j in range(n):
                key = (pos, exp_add(alpha, units[j]))
                if key in seen:
                    continue
                seen.add(key)
                up = key[1]
                if any(up[k] and (pos, exp_sub(up, units[k])) not in layer for k in range(n)):
                    continue
                image = times(mult[j], vector)
                if image:
                    above[key] = image
        layer = above
    assert not layer, "a monomial of degree mu has a nonzero normal form"
    rows = {beta: {} for beta in stair.monomials}
    for key in sorted(found, key=reading_key):
        for beta, c in found[key].items():
            rows[beta][key] = c
    return [rows[beta] for beta in stair.monomials]


def one_term_dropped(basis):
    """Copies of a NoetherianBasis, each with one term of one operator dropped and the same source."""
    ops = basis.operators
    for i, L in enumerate(ops):
        for key in L.terms:
            cut = DiffOp(L.ring, {k: c for k, c in L.terms.items() if k != key}, L.center)
            yield NoetherianBasis(ops[:i] + (cut,) + ops[i + 1 :], basis.multiplicity, basis.center, basis.method,
                                  basis.source)


def reference_scaled_monomial_text(c, mono: str, leading: bool) -> str:
    """One rendered term with its sign or joiner, as render wrote it with a Fraction writer and a ratfun writer.

    The reference for render's single coefficient writer: a constant
    rational function prints as its Fraction, any other one as
    reference_ratfun_text.
    """
    if isinstance(c, RationalFunction) and c.is_polynomial() and c.num.total_degree() <= 0:
        c = c.num.coefficient((1, c.num.ring.zero_exp()))
    if isinstance(c, RationalFunction):
        text = reference_ratfun_text(c)
        if text.startswith("-"):
            joined = f"{text[1:]} {mono}" if mono else text[1:]
            return f"-{joined}" if leading else f" - {joined}"
        joined = f"{text} {mono}" if mono else text
        return joined if leading else f" + {joined}"
    neg = c < 0
    mag = -c if neg else c
    if mono and mag == 1:
        body = mono
    elif mono:
        body = f"{mag} {mono}"
    else:
        body = str(mag)
    if leading:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


def _reference_monomial(names, exp) -> str:
    return " ".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e)


def _reference_sum(items, names) -> str:
    texts = [reference_scaled_monomial_text(c, _reference_monomial(names, exp), i == 0)
             for i, (exp, c) in enumerate(items)]
    return "".join(texts) or "0"


def reference_ratfun_text(c) -> str:
    """A rational function's text, a single-term numerator written term by term."""
    f = c.num
    num = _reference_sum([(exp, k) for (_, exp), k in f.sorted_terms()], f.ring.names)
    if c.is_polynomial():
        if len(f.terms) == 1:
            ((key, k),) = f.terms.items()
            mono = _reference_monomial(f.ring.names, key[1])
            if mono and k == 1:
                return mono
            if mono and k == -1:
                return f"-{mono}"
            if mono:
                return f"{k} {mono}"
            return str(k)
        return f"({num})"
    den = _reference_sum([(exp, k) for (_, exp), k in c.den.sorted_terms()], c.den.ring.names)
    left = num if len(f.terms) == 1 else f"({num})"
    right = den if len(c.den.terms) == 1 else f"({den})"
    return f"{left}/{right}"


def reference_coeff_string(c) -> str:
    return reference_ratfun_text(c) if isinstance(c, RationalFunction) else str(c)


def reference_operator_text(L, keys) -> str:
    """L's text with its terms in the order of keys, one signed sum per position in parentheses at rank > 1."""
    names = ["d" + name for name in L.ring.x_names]
    sums = []
    for pos in range(1, L.ring.rank + 1):
        items = [(alpha, L.terms[(p, alpha)] * Fraction(1, alpha_factorial(alpha))) for p, alpha in keys if p == pos]
        sums.append(_reference_sum(items, names))
    return sums[0] if L.ring.rank == 1 else "(" + ", ".join(sums) + ")"


def random_ratfun_operator(rng: random.Random, ring: RingDescriptor) -> DiffOp:
    """A DiffOp over ring whose coefficients are constant and non-constant rational functions.

    Numerators and denominators are random polynomials on the parameter
    block with one to three terms, so single-term, negative and
    parenthesized parts all occur.
    """
    tring = ring.t_subring()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(1, ring.rank), random_exponent(rng, ring.x_count, 3))
        kind = rng.randrange(4)
        if kind == 0:
            c = RationalFunction.from_fraction(random_fraction(rng), tring)
        else:
            c = RationalFunction(random_nonzero(rng, tring, 3, 2))
            if kind == 3:
                c = c / RationalFunction(random_nonzero(rng, tring, 3, 2))
        if c:
            terms[key] = c
    return DiffOp(ring, terms)
