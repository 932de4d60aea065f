"""Seeded problem files and CLI call lists for the three workloads.

Every problem is primary by construction and its multiplicity is known
before the program runs, so nothing is ever filtered or redrawn on outcome:

* a *monomial* ideal (a box of pure powers with some corners cut) has the
  staircase count as multiplicity;
* a *monic triangular* system ``x_i^a_i - c_i * x_{i+1}^k`` (and a pure
  power of the last variable) has multiplicity ``prod(a_i)`` and the origin
  as its only zero;
* a *unipotent triangular* change of coordinates ``x_i -> x_i + sum_{j>i}
  c_ij x_j`` is an automorphism fixing the origin, so it keeps
  primality and multiplicity while making every generator dense;
* a translation ``x -> x - p`` moves the primary point to ``p``;
* a rank-2 module ``I1 (+) I2`` mixed by the unimodular matrix
  ``[[1, h], [0, 1]]`` has multiplicity ``mu(I1) + mu(I2)``.

Polynomials here are plain dicts ``{exponent tuple: Fraction}``; the program
under test is never imported by this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

NAMES = ("x", "y", "z", "w")
ORDERS = ("deglex", "degrevlex", "lex")

# noether problems: a fixed catalogue of shapes (family, exponent box, corner
# cuts for "mono" or tail degree for "tri", shifted center), each solved under
# all three orders.  The seed draws cut positions, coefficients and centers,
# so seeds differ in the problems but hardly in how much work a pass holds.
# Every shape draws something from the seed, so no problem repeats in a list.
# Each shape is drawn NOETHER_REPEATS times per order: the per-call median
# moves less between seeds the more calls a pass holds.
NOETHER_REPEATS = 2
NOETHER_SHAPES = {
    ("sparse", 2): (
        ("mono", (3, 4), 1, False), ("tri", (2, 5), 1, True), ("mono", (5, 6), 2, False),
        ("tri", (4, 4), 2, False), ("mono", (5, 7), 2, True), ("tri", (3, 5), 2, False),
        ("mono", (6, 6), 1, False), ("tri", (3, 6), 2, True), ("mono", (4, 4), 0, True),
        ("tri", (3, 3), 1, False),
    ),
    ("sparse", 3): (
        ("mono", (2, 2, 2), 0, True), ("tri", (2, 2, 3), 1, True), ("mono", (3, 3, 2), 1, False),
        ("tri", (2, 3, 3), 2, False), ("mono", (3, 3, 3), 2, True), ("tri", (2, 2, 3), 2, False),
        ("mono", (4, 4, 2), 1, False), ("tri", (3, 3, 2), 2, False), ("mono", (2, 3, 4), 1, False),
        ("tri", (2, 2, 2), 1, True),
    ),
    ("dense", 2): (
        ("mono", (2, 3), 0, False), ("tri", (3, 3), 1, True), ("mono", (4, 4), 1, False),
        ("tri", (2, 6), 2, False), ("tri", (3, 3), 2, False), ("mono", (3, 4), 1, True),
        ("tri", (2, 4), 2, False), ("mono", (3, 3), 0, False),
    ),
    ("dense", 3): (
        ("mono", (2, 2, 1), 0, False), ("tri", (1, 2, 2), 1, False), ("mono", (2, 2, 3), 1, True),
        ("tri", (2, 2, 1), 2, False), ("mono", (3, 3, 1), 0, False), ("tri", (2, 1, 3), 1, True),
        ("mono", (2, 2, 2), 1, False), ("tri", (1, 2, 3), 2, False),
    ),
}
# rank-2 modules I1 (+) I2: (family, box, extra) of each summand
MODULE_SHAPES = (
    (("mono", (2, 2), 0), ("tri", (2, 1), 1)),
    (("tri", (2, 2), 1), ("mono", (1, 3), 0)),
    (("mono", (3, 2), 1), ("tri", (1, 2), 2)),
    (("tri", (3, 1), 2), ("mono", (2, 2), 0)),
)

# query-mix: each block holds the ten ideal-session shapes (nvars, order,
# family, box, extra as above, shifted), two parameter sessions and two
# ep-solution sessions, about 70/15/15 as sessions.
# Lex stays at three variables and small boxes to bound the Buchberger tail.
QUERY_BLOCKS = 8
IDEAL_SESSION_SHAPES = (
    (3, "deglex", "mono", (2, 2, 2), 0, True),
    (3, "degrevlex", "tri", (2, 2, 2), 1, False),
    (3, "lex", "mono", (2, 2, 2), 0, False),
    (3, "deglex", "tri", (1, 2, 3), 1, True),
    (3, "degrevlex", "mono", (2, 2, 3), 0, True),
    (3, "lex", "tri", (1, 2, 2), 1, False),
    (4, "deglex", "mono", (1, 2, 2, 2), 0, True),
    (4, "degrevlex", "tri", (1, 2, 2, 2), 1, False),
    (4, "deglex", "tri", (1, 1, 2, 2), 1, True),
    (4, "degrevlex", "mono", (1, 1, 2, 2), 0, False),
)
# parameter sessions: (x-box, order), two per block in rotation
POSDIM_SHAPES = (((2, 2), "lex"), ((1, 3), "product(lex, lex)"), ((3, 2), "product(deglex, lex)"))
# ep-solution sessions: (order, number of components), two per block in rotation
EP_SHAPES = (("deglex", 2), ("degrevlex", 3), ("lex", 2), ("deglex", 3), ("degrevlex", 2), ("lex", 3))


# -- polynomial arithmetic over Fraction ---------------------------------------


def p_add(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def p_pow(p, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = p_mul(out, p)
    return out


def p_compose(p, images, n):
    """Substitute variable i by the polynomial images[i]."""
    out = {}
    cache = {}
    for e, c in p.items():
        term = {(0,) * n: Fraction(c)}
        for i, k in enumerate(e):
            if k:
                if (i, k) not in cache:
                    cache[(i, k)] = p_pow(images[i], k, n)
                term = p_mul(term, cache[(i, k)])
        out = p_add(out, term)
    return out


def var(i, n, c=1):
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(c)}


def monomial(exp, c=1):
    return {tuple(exp): Fraction(c)}


def shift_images(point):
    """Images of x_i -> x_i - p_i (so that g(x) = h(x - p))."""
    n = len(point)
    images = []
    for i, p in enumerate(point):
        img = var(i, n)
        if p:
            img[(0,) * n] = -Fraction(p)
        images.append(img)
    return images


def format_poly(p, names):
    """Problem-file text, largest degree first."""
    if not p:
        return "0"
    keys = sorted(p, key=lambda e: (-sum(e), tuple(-a for a in e)))
    out = []
    for idx, e in enumerate(keys):
        c = p[e]
        mag = -c if c < 0 else c
        factors = [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(names, e) if k]
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if idx == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


# -- random pieces -------------------------------------------------------------


def small_coeff(rng):
    return Fraction(rng.choice((1, 2, 3, -1, -2, -3))) / rng.choice((1, 1, 1, 2, 3))


def unit_coeff(rng):
    return Fraction(rng.choice((1, 2, -1, -2)))


def random_point(rng, n):
    return tuple(Fraction(rng.choice((-2, -1, 1, 2))) / rng.choice((1, 1, 2)) for _ in range(n))


def staircase_count(gens, n):
    """Standard monomials of a monomial ideal holding a pure power per variable."""
    bounds = [min(g[i] for g in gens if all(g[j] == 0 for j in range(n) if j != i)) for i in range(n)]
    return sum(
        1
        for exp in product(*(range(b) for b in bounds))
        if not any(all(a >= b for a, b in zip(exp, g)) for g in gens)
    )


def monomial_ideal(rng, box, cuts):
    """Box of pure powers with corners cut; returns (gens, mu)."""
    n = len(box)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(box)]
    while len(gens) < n + cuts:
        # cuts near the outer corner keep the multiplicity close to the box
        cut = tuple(rng.randint(max(1, a - 2), a - 1) for a in box)
        if cut not in gens:
            gens.append(cut)
    return [monomial(g) for g in gens], staircase_count(gens, n)


def triangular_system(rng, box, tail_degree=None):
    """Monic triangular binomials x_i^a_i - c * x_{i+1}^k; mu = prod a_i."""
    n = len(box)
    gens = []
    mu = 1
    for i, a in enumerate(box):
        mu *= a
        g = monomial(tuple(a if j == i else 0 for j in range(n)))
        if i < n - 1:
            tail = [0] * n
            tail[i + 1] = tail_degree or rng.randint(1, 2)
            g = p_add(g, monomial(tail, unit_coeff(rng)), -1)
        gens.append(g)
    return gens, mu


def primary_ideal(rng, family, box, extra=0):
    """extra: corners cut for "mono", tail degree for "tri" (0: drawn)."""
    if family == "mono":
        return monomial_ideal(rng, box, extra)
    return triangular_system(rng, box, extra)


def small_primary(rng, n, top):
    """A small primary ideal at the origin, shape drawn by the seed."""
    box = tuple(rng.randint(1, top) for _ in range(n))
    family = rng.choice(("mono", "tri"))
    return primary_ideal(rng, family, box, rng.randint(0, 1) if min(box) > 2 else 0)


def unipotent_images(rng, n, lower=False):
    """x_i -> x_i + sum c_ij x_j over j > i (j < i when lower)."""
    images = []
    for i in range(n):
        img = var(i, n)
        for j in range(i) if lower else range(i + 1, n):
            img = p_add(img, var(j, n, unit_coeff(rng)))
        images.append(img)
    return images


def general_images(rng, n):
    """A unimodular linear change of coordinates (upper then lower unipotent).

    Unlike a triangular map it mixes every variable into every generator's
    leading term, so Buchberger has real S-pairs to reduce.
    """
    upper = unipotent_images(rng, n)
    lower = unipotent_images(rng, n, lower=True)
    return [p_compose(img, lower, n) for img in upper]


# -- problem files -------------------------------------------------------------


def header(n, order, params=0):
    names = ", ".join(NAMES[:n])
    if params:
        names += " | " + ", ".join(("t", "s")[:params])
    return f"ring {names};\norder {order};\n"


def noether_problems(seed):
    """The shared problem list of noether-forward and noether-backward.

    Each problem is a dict with the file text, the multiplicity, the center and
    the generators expanded at the center (``at_origin``: one list of module
    entries per generator), which the checker uses to apply operators without
    trusting the program.
    """
    rng = random.Random(f"noether-{seed}")
    problems = []
    seen = set()

    def distinct(draw, *args):
        # shapes with few seed-drawn choices can repeat; a redraw keeps every
        # problem of the list distinct, so no cache could serve one from another
        prob = draw(rng, *args)
        for _ in range(100):
            if prob["text"] not in seen:
                break
            prob = draw(rng, *args)
        else:
            raise ValueError(f"too few distinct problems of shape {args}")
        seen.add(prob["text"])
        problems.append(prob)

    for (kind, n), shapes in NOETHER_SHAPES.items():
        for order in ORDERS * NOETHER_REPEATS:
            for shape in shapes:
                distinct(_ideal_problem, kind, n, order, *shape)
    for order in ORDERS * NOETHER_REPEATS:
        for first, second in MODULE_SHAPES:
            distinct(_module_problem, order, first, second)
    rng.shuffle(problems)
    for i, prob in enumerate(problems):
        prob["name"] = f"p{i:03d}"
        prob["json"] = i % 2 == 1
    return problems


def _ideal_problem(rng, kind, n, order, family, box, extra, shifted):
    gens, mu = primary_ideal(rng, family, box, extra)
    if kind == "dense":
        images = unipotent_images(rng, n)
        gens = [p_compose(g, images, n) for g in gens]
    center = random_point(rng, n) if shifted else (Fraction(0),) * n
    names = NAMES[:n]
    shifted = [p_compose(g, shift_images(center), n) for g in gens] if any(center) else gens
    text = header(n, order) + "ideal " + ", ".join(format_poly(g, names) for g in shifted) + ";\n"
    if any(center):
        text += "center " + ", ".join(str(c) for c in center) + ";\n"
    return {
        "kind": kind,
        "nvars": n,
        "order": order,
        "rank": 1,
        "mu": mu,
        "center": [str(c) for c in center],
        "at_origin": [[g] for g in gens],
        "text": text,
    }


def _module_problem(rng, order, first, second):
    n = 2
    g1, mu1 = primary_ideal(rng, *first)
    g2, mu2 = primary_ideal(rng, *second)
    h = p_add(monomial((0, 0), unit_coeff(rng)), var(rng.randrange(n), n, unit_coeff(rng)))
    vectors = [[g, {}] for g in g1] + [[p_mul(h, g), g] for g in g2]
    names = NAMES[:n]
    body = ", ".join("[" + ", ".join(format_poly(v, names) for v in vec) + "]" for vec in vectors)
    text = header(n, order) + f"moduleorder {rng.choice(('top', 'pot'))};\nmodule {body};\n"
    return {
        "kind": "module",
        "nvars": n,
        "order": order,
        "rank": 2,
        "mu": mu1 + mu2,
        "center": ["0"] * n,
        "at_origin": vectors,
        "text": text,
    }


def noether_calls(problems, workdir, method):
    calls = []
    for prob in problems:
        argv = ["noether"]
        if method != "forward":
            argv += ["--method", method]
        argv.append(f"{workdir}/{prob['name']}.noeth")
        if prob["json"]:
            argv.append("--json")
        calls.append({"argv": argv, "problem": prob["name"]})
    return calls


# -- query-mix sessions --------------------------------------------------------


def random_poly(rng, n, terms=3, max_deg=4):
    p = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        p = p_add(p, monomial(e, small_coeff(rng)))
    return p or monomial([1] + [0] * (n - 1))


def combination(rng, gens, n):
    """A random element of the ideal spanned by gens (never zero)."""
    total = {}
    while not total:
        for g in gens:
            if rng.random() < 0.7:
                total = p_add(total, p_mul(random_poly(rng, n, rng.randint(1, 2), 2), g))
    return total


def query_sessions(seed):
    rng = random.Random(f"query-mix-{seed}")
    sessions = []
    for block in range(QUERY_BLOCKS):
        sessions += [_ideal_session(rng, *shape) for shape in IDEAL_SESSION_SHAPES]
        sessions += [_posdim_session(rng, *POSDIM_SHAPES[(2 * block + i) % len(POSDIM_SHAPES)]) for i in range(2)]
        sessions += [_ep_session(rng, *EP_SHAPES[(2 * block + i) % len(EP_SHAPES)]) for i in range(2)]
    rng.shuffle(sessions)
    member_flip = 0
    for i, sess in enumerate(sessions):
        sess["name"] = f"s{i:03d}"
        for q in sess["queries"]:
            q["json"] = rng.random() < 0.5
            if q["cmd"] == "member" and q["constructed"] is None:
                q["constructed"] = member_flip % 2 == 0
                member_flip += 1
        _fill_members(rng, sess)
    return sessions


def _ideal_session(rng, n, order, family, box, extra, shifted):
    gens, mu = primary_ideal(rng, family, box, extra)
    images = general_images(rng, n)
    gens = [p_compose(g, images, n) for g in gens]
    if shifted:
        gens = [p_compose(g, shift_images(random_point(rng, n)), n) for g in gens]
    names = NAMES[:n]
    text = header(n, order) + "ideal " + ", ".join(format_poly(g, names) for g in gens) + ";\n"
    queries = [{"cmd": "gb"}]
    queries += [{"cmd": "nf", "poly": random_poly(rng, n, rng.randint(2, 4))} for _ in range(3)]
    queries += [{"cmd": "member", "constructed": None} for _ in range(3)]
    return {"kind": "ideal", "nvars": n, "order": order, "gens": gens, "mu": mu, "text": text, "queries": queries}


def _posdim_session(rng, box, order):
    """Ideals over k(t)[x, y] that are x-primary at the origin, in normal position.

    The generators come from a monomial ideal by x -> x + c t y, an
    automorphism over k[t]; every generator keeps a positive x-degree in every
    term, so f + t^k is never a member when f is.
    """
    n = 2
    gens, mu = primary_ideal(rng, "mono", box, 0)
    full = n + 1
    lifted = [{e + (0,): c for e, c in g.items()} for g in gens]
    x_img = p_add(var(0, full), monomial((0, 1, 1), unit_coeff(rng)))
    gens = [p_compose(g, [x_img, var(1, full), var(2, full)], full) for g in lifted]
    names = NAMES[:n] + ("t",)
    text = header(n, order, params=1) + "ideal " + ", ".join(format_poly(g, names) for g in gens) + ";\n"
    queries = [{"cmd": "noether-posdim", "mu": mu}]
    queries += [{"cmd": "member", "constructed": None} for _ in range(2)]
    return {"kind": "posdim", "nvars": full, "order": order, "gens": gens, "mu": mu, "text": text, "queries": queries}


def _ep_session(rng, order, count):
    n = 2
    centers = []
    while len(centers) < count:
        p = random_point(rng, n) if centers else (Fraction(0),) * n
        if p not in centers:
            centers.append(p)
    clauses = []
    total = 0
    for p in centers:
        gens, mu = small_primary(rng, n, 2)
        total += mu
        shifted = [p_compose(g, shift_images(p), n) for g in gens] if any(p) else gens
        clauses.append(
            "component " + ", ".join(format_poly(g, NAMES[:n]) for g in shifted)
            + " at " + ", ".join(str(c) for c in p) + ";\n"
        )
    text = header(n, order) + "".join(clauses)
    return {"kind": "ep", "nvars": n, "order": order, "text": text, "queries": [{"cmd": "ep-solution", "mu": total}]}


def _fill_members(rng, sess):
    n = sess["nvars"]
    for q in sess["queries"]:
        if q["cmd"] != "member":
            continue
        if q["constructed"]:
            q["poly"] = combination(rng, sess["gens"], n)
        elif sess["kind"] == "posdim":
            # x-degree zero part t^k is nonzero, so this is certainly no member
            q["poly"] = p_add(combination(rng, sess["gens"], n), monomial((0, 0, rng.randint(0, 2))))
        else:
            q["poly"] = random_poly(rng, n, rng.randint(2, 4))


def query_calls(sessions, workdir):
    calls = []
    for sess in sessions:
        path = f"{workdir}/{sess['name']}.noeth"
        names = NAMES[: sess["nvars"]] if sess["kind"] != "posdim" else ("x", "y", "t")
        for qi, q in enumerate(sess["queries"]):
            argv = [q["cmd"]]
            if "poly" in q:
                expr = format_poly(q["poly"], names)
                # a leading minus would read as an option flag
                argv.append(f"({expr})" if expr.startswith("-") else expr)
            argv.append(path)
            if q["json"]:
                argv.append("--json")
            calls.append({"argv": argv, "problem": sess["name"], "query": qi})
    return calls


# -- workload assembly ---------------------------------------------------------

WORKLOADS = ("noether-forward", "noether-backward", "query-mix")


def build(workload, seed, workdir, quick=False):
    """(files {name: text}, calls, problems by name) for one workload and seed.

    quick keeps a handful of problems (every session kind for query-mix).
    """
    if workload in ("noether-forward", "noether-backward"):
        problems = noether_problems(seed)
        if quick:
            problems = problems[:8]
        calls = noether_calls(problems, workdir, workload.split("-")[1])
    elif workload == "query-mix":
        problems = query_sessions(seed)
        if quick:
            problems = [s for kind in ("ideal", "posdim", "ep") for s in problems if s["kind"] == kind][::6]
        calls = query_calls(problems, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {p["name"] + ".noeth": p["text"] for p in problems}
    return files, calls, {p["name"]: p for p in problems}
