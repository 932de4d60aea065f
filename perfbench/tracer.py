"""Spans around calls into the layers of ``noeth``, recorded from outside.

``install`` wraps the public functions listed in SPANNED (the ones the
per-layer metrics read) in every ``noeth`` namespace that binds them (module
globals, dispatch dicts such as ``cli.METHODS``, and class attributes), so a
call made through ``noeth.noetherian.normal_form`` is seen like one made
through ``noeth.groebner.normal_form``.  COUNTED functions only bump a counter: they
are called hundreds of thousands of times per pass and a span each would
drown the measurement.

Spans stay in memory until ``metrics`` and ``dump`` run after the pass.  A
span records its layer, start, end, parent span and the CLI call it belongs
to; self time is a span's duration minus the time of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli", "problem", "render", "groebner", "noetherian", "diffop",
    "linalg", "posdim", "ratfun", "epsolution", "orderings", "polynomial",
)

SPANNED = {
    "cli": ("main",),
    "problem": ("parse_problem", "parse_polynomial"),
    "render": ("render_polynomial", "render_operator", "render_module_term", "polynomial_json",
               "operator_json", "ring_json", "emit_json"),
    "groebner": ("buchberger", "normal_form", "s_polynomial", "staircase"),
    "noetherian": ("noetherian_forward", "noetherian_backward", "noetherian_linear",
                   "NoetherianBasis.validate"),
    "diffop": ("closure", "is_closed", "canonical_operator_basis", "span_equal_operators"),
    "linalg": ("rref",),
    "posdim": ("noetherian_positive", "member_positive"),
    "ratfun": ("poly_gcd",),
    "epsolution": ("build_solution",),
}
COUNTED = {"orderings": ("leading_term",), "polynomial": ("Polynomial.__init__",)}

CONSTRUCTIONS = ("noetherian.noetherian_forward", "noetherian.noetherian_backward", "noetherian.noetherian_linear")


class Tracer:
    def __init__(self):
        self.names = []  # per span: qualified function name
        self.start = []
        self.end = []
        self.parent = []
        self.call = []
        self.child_time = []
        self.outermost = []  # no enclosing span of the same function
        self.layer_outermost = []  # no enclosing span of the same layer
        self.outcome = {}  # span index -> recorded outcome
        self.counts = Counter()
        self.stack = []
        self.active = Counter()
        self.active_layer = Counter()
        self.last_child = {}
        self.gb_seen = set()
        self.current_call = -1

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, layer, fn, observe):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(parent)
            self.call.append(self.current_call)
            self.child_time.append(0.0)
            self.outermost.append(self.active[name] == 0)
            self.layer_outermost.append(self.active_layer[layer] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            if observe is not None:
                observe(self, idx, parent, args, kwargs, None, False)
            self.active[name] += 1
            self.active_layer[layer] += 1
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                self.active_layer[layer] -= 1
                self.start[idx] = t0
                self.end[idx] = t1
                if parent >= 0:
                    self.child_time[parent] += t1 - t0
                    self.last_child[parent] = name
            if observe is not None:
                observe(self, idx, parent, args, kwargs, result, True)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"noeth.{layer}") for layer in LAYERS}
        importlib.import_module("noeth")
        replacements = {}  # id(original) -> wrapper
        owners = []
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for layer, names in table.items():
                for qual in names:
                    owner, attr = modules[layer], qual
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        owner = getattr(owner, cls_name)
                    fn = getattr(owner, attr)
                    name = f"{layer}.{qual}"
                    if spanned:
                        wrapper = self._span(name, layer, fn, OBSERVERS.get(name))
                    else:
                        wrapper = self._counter(name, fn)
                    replacements[id(fn)] = wrapper
                    if "." in qual:
                        owners.append((owner, attr, wrapper))
        for owner, attr, wrapper in owners:
            setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "noeth" and not modname.startswith("noeth."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            value[key] = replacements[id(entry)]

    # -- results ---------------------------------------------------------------

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.call[i], self.parent[i], self.start[i], self.end[i]]) + "\n")

    def metrics(self, wall):
        incl = defaultdict(float)  # function -> time in its outermost spans
        calls = Counter()
        layer_incl = defaultdict(float)
        layer_self = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            if self.outermost[i]:
                incl[name] += dur
            if self.layer_outermost[i]:
                layer_incl[layer] += dur
            layer_self[layer] += dur - self.child_time[i]
        outcomes = defaultdict(Counter)
        for i, value in self.outcome.items():
            outcomes[self.names[i]][value] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        nf = "groebner.normal_form"
        spair = outcomes[nf]["spair-nonzero"] + outcomes[nf]["spair-zero"]
        span_eq = "diffop.span_equal_operators"
        gb_calls = calls["groebner.buchberger"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": layer_self["cli"],
            "problem.parse_calls": calls["problem.parse_problem"] + calls["problem.parse_polynomial"],
            "problem.parse_s": layer_incl["problem"],
            "render.render_s": layer_incl["render"],
            "polynomial.new_calls": self.counts["polynomial.Polynomial.__init__"],
            "orderings.leading_term_calls": self.counts["orderings.leading_term"],
            "groebner.nf_calls": calls[nf],
            "groebner.nf_s": incl[nf],
            "groebner.nf_share": ratio(incl[nf], wall),
            "groebner.nf_nonzero_ratio": ratio(
                outcomes[nf]["nonzero"] + outcomes[nf]["spair-nonzero"], calls[nf]
            ),
            "groebner.buchberger_calls": gb_calls,
            "groebner.buchberger_s": incl["groebner.buchberger"],
            "groebner.buchberger_share": ratio(incl["groebner.buchberger"], wall),
            "groebner.spoly_calls": calls["groebner.s_polynomial"],
            "groebner.spair_useful_ratio": ratio(outcomes[nf]["spair-nonzero"], spair),
            "groebner.repeat_gb_share": ratio(outcomes["groebner.buchberger"]["repeat"], gb_calls),
            "groebner.staircase_s": incl["groebner.staircase"],
            "noetherian.construct_s": sum(incl[c] for c in CONSTRUCTIONS),
            "noetherian.validate_s": incl["noetherian.NoetherianBasis.validate"],
            "diffop.closure_calls": calls["diffop.closure"],
            "diffop.closure_share": ratio(incl["diffop.closure"], wall),
            "diffop.span_equal_calls": calls[span_eq],
            "diffop.span_grow_ratio": ratio(outcomes[span_eq]["grew"], calls[span_eq]),
            "diffop.is_closed_s": incl["diffop.is_closed"],
            "diffop.canonical_calls": calls["diffop.canonical_operator_basis"],
            "diffop.canonical_share": ratio(incl["diffop.canonical_operator_basis"], wall),
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_cells": sum(v for i, v in self.outcome.items() if self.names[i] == "linalg.rref"),
            "linalg.rref_s": incl["linalg.rref"],
            "linalg.rref_share": ratio(incl["linalg.rref"], wall),
            "posdim.positive_calls": calls["posdim.noetherian_positive"],
            "posdim.positive_share": ratio(incl["posdim.noetherian_positive"], wall),
            "posdim.member_calls": calls["posdim.member_positive"],
            "posdim.member_share": ratio(incl["posdim.member_positive"], wall),
            "ratfun.gcd_calls": calls["ratfun.poly_gcd"],
            "ratfun.gcd_share": ratio(incl["ratfun.poly_gcd"], wall),
            "epsolution.build_calls": calls["epsolution.build_solution"],
            "epsolution.build_share": ratio(incl["epsolution.build_solution"], wall),
        }


# -- outcome observers: called before (done=False) and after (done=True) ------


def _observe_nf(tracer, idx, parent, args, kwargs, result, done):
    if not done:
        # an S-pair reduction is the normal form buchberger takes right after
        # forming an S-polynomial
        tracer.outcome[idx] = "spair" if tracer.last_child.get(parent) == "groebner.s_polynomial" else ""
        return
    kind = tracer.outcome[idx]
    nonzero = not result.is_zero()
    tracer.outcome[idx] = (kind + "-" if kind else "") + ("nonzero" if nonzero else "zero")


def _observe_buchberger(tracer, idx, parent, args, kwargs, result, done):
    if done:
        return
    bound = dict(zip(("gens", "order", "ring"), args), **kwargs)
    gens = bound["gens"]
    if not isinstance(gens, (list, tuple)):
        tracer.outcome[idx] = "first"  # an iterator: reading it would consume the input
        return
    key = (repr(bound["order"]), bound.get("ring"), tuple(gens))
    tracer.outcome[idx] = "repeat" if key in tracer.gb_seen else "first"
    tracer.gb_seen.add(key)


def _observe_span_equal(tracer, idx, parent, args, kwargs, result, done):
    if done:
        tracer.outcome[idx] = "same" if result else "grew"


def _observe_rref(tracer, idx, parent, args, kwargs, result, done):
    if not done:
        rows = args[0]
        tracer.outcome[idx] = len(rows) * (len(rows[0]) if rows else 0)


OBSERVERS = {
    "groebner.normal_form": _observe_nf,
    "groebner.buchberger": _observe_buchberger,
    "diffop.span_equal_operators": _observe_span_equal,
    "linalg.rref": _observe_rref,
}
