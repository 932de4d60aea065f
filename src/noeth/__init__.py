"""Exact dual differential operators for primary polynomial ideals and modules.

The library computes, over the rationals, the finite family of differential
operators whose vanishing at a point characterizes membership in a primary
zero-dimensional ideal or submodule, extends the construction to positive
dimension through rational-function coefficients in a parameter block, and
renders symbolic exponential-polynomial solution families for the associated
constant-coefficient PDE systems.

``import noeth`` loads none of the submodules: each public name is imported
from the submodule that defines it on its first use (PEP 562).
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "DiffOp": "diffop",
    "apply_at": "diffop",
    "closure": "diffop",
    "dual_of_polynomial": "diffop",
    "is_closed": "diffop",
    "build_solution": "epsolution",
    "render_solution": "epsolution",
    "solution_json": "epsolution",
    "InfiniteStaircaseError": "errors",
    "NoethError": "errors",
    "NormalPositionError": "errors",
    "NotClosedError": "errors",
    "NotEliminationOrderError": "errors",
    "NotPrimaryError": "errors",
    "ParseError": "errors",
    "ResourceLimitError": "errors",
    "RingMismatchError": "errors",
    "ZeroPolynomialError": "errors",
    "GroebnerBasis": "groebner",
    "Staircase": "groebner",
    "buchberger": "groebner",
    "corner_monomials": "groebner",
    "eliminate": "groebner",
    "is_member": "groebner",
    "normal_form": "groebner",
    "staircase": "groebner",
    "NoetherianBasis": "noetherian",
    "ideal_from_conditions": "noetherian",
    "membership_by_operators": "noetherian",
    "noetherian_backward": "noetherian",
    "noetherian_forward": "noetherian",
    "noetherian_linear": "noetherian",
    "POT": "orderings",
    "TOP": "orderings",
    "DegLex": "orderings",
    "DegRevLex": "orderings",
    "Lex": "orderings",
    "ModuleOrder": "orderings",
    "ProductOrder": "orderings",
    "Polynomial": "polynomial",
    "poly_mul": "polynomial",
    "member_positive": "posdim",
    "noetherian_positive": "posdim",
    "ProblemSpec": "problem",
    "parse_polynomial": "problem",
    "parse_problem": "problem",
    "RationalFunction": "ratfun",
    "poly_gcd": "ratfun",
    "poly_lcm": "ratfun",
    "render_module_term": "render",
    "render_operator": "render",
    "render_polynomial": "render",
    "RingDescriptor": "ring",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib: importlib costs start-up modules of its own
    value = globals()[name] = getattr(__import__(_EXPORTS[name], globals(), None, (name,), 1), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
