"""Exact dual differential operators for primary polynomial ideals and modules.

The library computes, over the rationals, the finite family of differential
operators whose vanishing at a point characterizes membership in a primary
zero-dimensional ideal or submodule, extends the construction to positive
dimension through rational-function coefficients in a parameter block, and
renders symbolic exponential-polynomial solution families for the associated
constant-coefficient PDE systems.
"""

from __future__ import annotations

from .diffop import (
    DiffOp,
    apply_at,
    canonical_operator_basis,
    closure,
    dual_of_polynomial,
    is_closed,
    span_equal_operators,
)
from .epsolution import SolutionFamily, build_solution, render_solution, solution_json
from .errors import (
    InfiniteStaircaseError,
    NoethError,
    NormalPositionError,
    NotClosedError,
    NotEliminationOrderError,
    NotPrimaryError,
    ParseError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .groebner import (
    GroebnerBasis,
    Staircase,
    buchberger,
    corner_monomials,
    eliminate,
    is_member,
    normal_form,
    s_polynomial,
    staircase,
)
from .noetherian import (
    NoetherianBasis,
    backward_step,
    ideal_from_conditions,
    membership_by_operators,
    noetherian_backward,
    noetherian_forward,
    noetherian_linear,
)
from .orderings import (
    POT,
    TOP,
    DegLex,
    DegRevLex,
    Lex,
    ModuleOrder,
    ProductOrder,
)
from .polynomial import Polynomial, poly_mul
from .posdim import (
    NormalPositionReport,
    check_normal_position,
    cleanup_operators,
    extend_to_rational_coeffs,
    member_positive,
    multiplicity_extended,
    noetherian_positive,
)
from .problem import ProblemSpec, parse_polynomial, parse_problem
from .ratfun import RationalFunction, poly_gcd, poly_lcm
from .render import render_module_term, render_operator, render_polynomial
from .ring import RingDescriptor

__version__ = "0.1.0"

__all__ = [
    "DiffOp",
    "DegLex",
    "DegRevLex",
    "GroebnerBasis",
    "InfiniteStaircaseError",
    "Lex",
    "ModuleOrder",
    "NoethError",
    "NoetherianBasis",
    "NormalPositionError",
    "NormalPositionReport",
    "NotClosedError",
    "NotEliminationOrderError",
    "NotPrimaryError",
    "ParseError",
    "Polynomial",
    "POT",
    "ProblemSpec",
    "ProductOrder",
    "RationalFunction",
    "RingDescriptor",
    "RingMismatchError",
    "SolutionFamily",
    "Staircase",
    "TOP",
    "ZeroPolynomialError",
    "apply_at",
    "backward_step",
    "buchberger",
    "build_solution",
    "canonical_operator_basis",
    "check_normal_position",
    "cleanup_operators",
    "closure",
    "corner_monomials",
    "dual_of_polynomial",
    "eliminate",
    "extend_to_rational_coeffs",
    "ideal_from_conditions",
    "is_closed",
    "is_member",
    "member_positive",
    "membership_by_operators",
    "multiplicity_extended",
    "noetherian_backward",
    "noetherian_forward",
    "noetherian_linear",
    "noetherian_positive",
    "normal_form",
    "parse_polynomial",
    "parse_problem",
    "poly_gcd",
    "poly_lcm",
    "poly_mul",
    "render_module_term",
    "render_operator",
    "render_polynomial",
    "render_solution",
    "s_polynomial",
    "solution_json",
    "span_equal_operators",
    "staircase",
]
