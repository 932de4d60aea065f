"""Output checks, run outside the timed region.

The checks use only what the generator knows by construction (generators,
multiplicity, center, constructed ideal members) and their own exact
arithmetic: operators are applied through the Taylor coefficients of the
generators at the center, lowering closure is tested by row reduction, and
Groebner bases are tested by a division loop written here, not the program's.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

from workloads import NAMES, p_add


class CheckError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


# -- parsing the program's output ----------------------------------------------


def parse_rendered(text, names):
    """Parse rendered text such as '1/2 x^2 y - 3 z + 1' into {exp: Fraction}."""
    index = {nm: i for i, nm in enumerate(names)}
    poly = {}
    text = text.strip()
    if text == "0":
        return poly
    sign, coeff, exp, seen = 1, Fraction(1), [0] * len(names), False

    def flush():
        if seen:
            e = tuple(exp)
            poly[e] = poly.get(e, 0) + sign * coeff

    for tok in text.split():
        if tok in ("+", "-"):
            flush()
            sign, coeff, exp, seen = (1 if tok == "+" else -1), Fraction(1), [0] * len(names), False
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if tok[0].isdigit():
            coeff = Fraction(tok)
        else:
            name, _, k = tok.partition("^")
            require(name in index, f"unknown symbol {name!r} in {text!r}")
            exp[index[name]] += int(k or 1)
        seen = True
    flush()
    return {e: c for e, c in poly.items() if c}


def _alpha_factorial(alpha):
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def parse_operators_text(lines, nvars, rank):
    """Rendered operators to {(pos, alpha): divided-power coefficient}."""
    dnames = tuple("d" + nm for nm in NAMES[:nvars])
    ops = []
    for line in lines:
        if rank == 1:
            comps = [line]
        else:
            require(line.startswith("(") and line.endswith(")"), f"bad module operator {line!r}")
            comps = line[1:-1].split(", ")
            require(len(comps) == rank, f"bad module operator {line!r}")
        op = {}
        for pos, comp in enumerate(comps, 1):
            for alpha, c in parse_rendered(comp, dnames).items():
                op[(pos, alpha)] = c * _alpha_factorial(alpha)
        ops.append(op)
    return ops


def parse_operators_json(terms_list):
    return [
        {(t["pos"], tuple(t["alpha"])): Fraction(t["coeff"]) for t in op["terms"]}
        for op in terms_list
    ]


def parse_poly_json(doc):
    out = {}
    for t in doc["terms"]:
        require(t["pos"] == 1, "unexpected module entry")
        out[tuple(t["exp"])] = Fraction(t["coeff"])
    return out


# -- exact linear algebra on sparse rows ---------------------------------------


class Echelon:
    """Incrementally reduced row echelon form over sparse dict rows."""

    def __init__(self):
        self.rows = []  # (pivot key, row with row[pivot] == 1)

    def reduce(self, vec):
        v = dict(vec)
        for key, row in self.rows:
            c = v.get(key)
            if c:
                for k, r in row.items():
                    val = v.get(k, 0) - c * r
                    if val:
                        v[k] = val
                    else:
                        v.pop(k, None)
        return v

    def add(self, vec):
        """Insert vec; False when it was already in the span."""
        v = self.reduce(vec)
        if not v:
            return False
        key = min(v)
        inv = 1 / v[key]
        v = {k: c * inv for k, c in v.items()}
        for pk, row in self.rows:
            c = row.get(key)
            if c:
                for k, r in v.items():
                    val = row.get(k, 0) - c * r
                    if val:
                        row[k] = val
                    else:
                        row.pop(k, None)
        self.rows.append((key, v))
        return True


def check_operators(ops, problem):
    """Annihilation of every generator, count = multiplicity, independence, closure."""
    mu = problem["mu"]
    require(len(ops) == mu, f"{len(ops)} operators for multiplicity {mu}")
    for op in ops:
        for gen in problem["at_origin"]:
            total = sum((c * gen[pos - 1].get(alpha, 0) for (pos, alpha), c in op.items()), Fraction(0))
            require(total == 0, "an operator does not annihilate a generator at the center")
    span = Echelon()
    for op in ops:
        require(span.add(op), "operators are linearly dependent")
    n = problem["nvars"]
    for op in ops:
        for j in range(n):
            lowered = {
                (pos, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]): c
                for (pos, alpha), c in op.items()
                if alpha[j]
            }
            require(not span.reduce(lowered), "the span is not closed under lowering")


# -- division by a printed Groebner basis --------------------------------------


def order_key(order):
    if order == "lex":
        return lambda e: e
    if order == "deglex":
        return lambda e: (sum(e), e)
    if order == "degrevlex":
        return lambda e: (sum(e), tuple(-a for a in reversed(e)))
    raise ValueError(order)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_by(f, basis, key):
    """Full remainder of f by basis (any reduction order gives 0 for members)."""
    leads = []
    for g in basis:
        lt = max(g, key=key)
        leads.append((lt, g[lt], g))
    p = dict(f)
    rem = {}
    while p:
        e = max(p, key=key)
        c = p[e]
        for lt, lc, g in leads:
            if divides(lt, e):
                shift = tuple(a - b for a, b in zip(e, lt))
                q = {tuple(a + b for a, b in zip(ge, shift)): -c / lc * gc for ge, gc in g.items()}
                p = p_add(p, q)
                break
        else:
            rem[e] = c
            del p[e]
    return rem


def staircase_size(leads, n, cap=100000):
    bounds = []
    for i in range(n):
        pure = [lt[i] for lt in leads if all(lt[j] == 0 for j in range(n) if j != i)]
        require(pure, "the printed basis has no pure power of a variable")
        bounds.append(min(pure))
    count = 0
    stack = [(0,) * n]
    seen = set(stack)
    while stack:
        e = stack.pop()
        if any(divides(lt, e) for lt in leads):
            continue
        count += 1
        require(count <= cap, "staircase too large")
        for i in range(n):
            up = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if up[i] < bounds[i] and up not in seen:
                seen.add(up)
                stack.append(up)
    return count


# -- per-call checks -----------------------------------------------------------


def _doc_or_lines(out, json_mode):
    if json_mode:
        doc = json.loads(out)
        require("error" not in doc, f"error document: {doc.get('error')}")
        return doc, None
    return None, out.splitlines()


def check_noether(out, problem, method):
    doc, lines = _doc_or_lines(out, problem["json"])
    if doc is not None:
        require(doc["method"] == method, "wrong method in the JSON document")
        require(doc["multiplicity"] == problem["mu"], "wrong multiplicity")
        require(doc["center"] == problem["center"], "wrong center")
        ops = parse_operators_json(doc["operators"])
    else:
        ops = parse_operators_text(lines, problem["nvars"], problem["rank"])
    check_operators(ops, problem)


class SessionState:
    """What a query-mix session has learned from its own gb call."""

    def __init__(self):
        self.basis = None


def check_query(call, out, session, state):
    query = session["queries"][call["query"]]
    json_mode = query["json"]
    doc, lines = _doc_or_lines(out, json_mode)
    cmd = query["cmd"]
    n = session["nvars"]
    if cmd == "gb":
        names = NAMES[:n]
        basis = [parse_poly_json(g) for g in doc["basis"]] if doc else [parse_rendered(ln, names) for ln in lines]
        require(basis and all(basis), "empty basis")
        key = order_key(session["order"])
        for gen in session["gens"]:
            require(not reduce_by(gen, basis, key), "a generator does not reduce to zero under the printed basis")
        leads = [max(g, key=key) for g in basis]
        require(all(g[lt] == 1 for g, lt in zip(basis, leads)), "basis element is not monic")
        require(staircase_size(leads, n) == session["mu"], "printed basis has the wrong multiplicity")
        state.basis = basis
    elif cmd == "nf":
        require(state.basis is not None, "nf before a checked gb")
        result = parse_poly_json(doc["result"]) if doc else parse_rendered(lines[0], NAMES[:n])
        key = order_key(session["order"])
        leads = [max(g, key=key) for g in state.basis]
        require(not any(divides(lt, e) for e in result for lt in leads), "nf result is not reduced")
        diff = p_add(query["poly"], result, -1)
        require(not reduce_by(diff, state.basis, key), "nf result differs from the input modulo the ideal")
    elif cmd == "member":
        verdict = doc["member"] if doc else {"true": True, "false": False}[lines[0]]
        if query["constructed"]:
            require(verdict is True, "a constructed member was rejected")
        elif session["kind"] == "posdim":
            require(verdict is False, "a certain non-member was accepted")
        else:
            require(state.basis is not None, "member before a checked gb")
            expected = not reduce_by(query["poly"], state.basis, order_key(session["order"]))
            require(verdict == expected, "membership verdict disagrees with the printed basis")
    elif cmd == "noether-posdim":
        count = len(doc["operators"]) if doc else len(lines)
        require(count == query["mu"], f"{count} operators for multiplicity {query['mu']}")
        if doc:
            require(doc["multiplicity"] == query["mu"], "wrong multiplicity")
    elif cmd == "ep-solution":
        if doc:
            constants = [s["constant"] for s in doc["summands"]]
        else:
            constants = re.findall(r"\bC\d+\b", out)
        require(constants == [f"C{i}" for i in range(1, query["mu"] + 1)], "wrong number of solution summands")
    else:
        raise CheckError(f"no check for {cmd}")


def operator_text(out, json_mode):
    """The operator part of a noether output, equal across methods."""
    if json_mode:
        return json.dumps(json.loads(out)["operators"], sort_keys=True)
    return out


def check_pass(workload, calls, results, problems):
    """Indices of failed calls (non-zero exit or failed check) and the first reasons."""
    failed = []
    reasons = []
    states = {}
    method = workload.split("-")[1] if workload.startswith("noether") else None
    for i, (call, res) in enumerate(zip(calls, results)):
        try:
            require(res["code"] == 0, f"exit code {res['code']}: {res['err'].strip()[:200]}")
            problem = problems[call["problem"]]
            if method:
                check_noether(res["out"], problem, method)
            else:
                check_query(call, res["out"], problem, states.setdefault(call["problem"], SessionState()))
        except (CheckError, KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
            failed.append(i)
            if len(reasons) < 5:
                reasons.append(f"{' '.join(call['argv'])}: {type(exc).__name__}: {exc}")
    return failed, reasons
