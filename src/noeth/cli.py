"""Command-line interface.

    noeth <command> [flags] <file>

Commands: gb, nf <poly>, mult, staircase, corners, noether, noether-posdim,
member <poly>, ep-solution.  Output is plain text by default and structured
JSON with --json.  Exit codes: 0 success, 1 domain error, 2 parse error.

Every command reads its problem through ``load_problem``, a memo keyed by the
file's text that holds the MEMO_SIZE most recently used problems.  Repeated
calls of ``main`` in one process on the same text share one parse and one
Groebner basis per center; a file that changes is a new key, and errors are
raised again rather than kept.  Each command's argument parser is likewise
built once per process.  A one-shot ``noeth`` process computes as before.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .epsolution import build_solution, render_solution, solution_json
from .errors import NoethError, ParseError
from .groebner import buchberger, corner_monomials, is_member, normal_form, staircase
from .noetherian import (
    _refuse_parameters,
    _translate_generators,
    noetherian_backward,
    noetherian_forward,
    noetherian_linear,
)
from .posdim import _require_posdim_input, member_positive, noetherian_positive
from .problem import ProblemSpec, parse_polynomial, parse_problem
from .render import (
    emit_json,
    operators_fragment,
    polynomial_fragment,
    render_module_term,
    render_operator,
    render_polynomial,
    ring_json,
)

METHODS = {
    "forward": noetherian_forward,
    "backward": noetherian_backward,
    "linear": noetherian_linear,
}

# Problems kept by load_problem: a session of queries on a few files stays
# warm, and the memory held stays that of a few bases.
MEMO_SIZE = 16


class Problem:
    """A parsed problem file and what the commands derive from it, each built once.

    The derived values are computed on first use; one that raises is not
    kept, so the next use raises again.  ``buchberger`` and
    ``noetherian_positive`` are looked up as module globals at that point,
    so a wrapper set on this module sees every call.  The constructions run
    on the translate of the generators to each center, placed back there.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.translates = {}  # generators -> {moved point: reduced basis}

    @property
    def basis(self):
        """The reduced Groebner basis of the generators under the declared order."""
        return self.translate(self.spec.generators, None)

    def translate(self, generators, center):
        """The reduced basis of generators moved as noetherian.translate moves a basis of them."""
        if not generators:
            raise NoethError("the problem file declares no ideal or module generators")
        spec, cache = self.spec, self.translates.setdefault(generators, {})
        return _translate_generators(generators, spec.effective_order, spec.ring, center, cache, buchberger)

    def build(self, construction, generators, center):
        """construction run at the origin on the translate to center, its basis placed at center."""
        basis = construction(self.translate(generators, center))
        return basis if center is None else basis.at(center)

    @functools.cached_property
    def positive(self):
        """The parameter-coefficient operator basis at the center (parameter rings)."""
        _require_posdim_input(self.spec.ring, self.spec.effective_order)  # before the translate's Buchberger
        return self.build(noetherian_positive, self.spec.generators, self.spec.center)


@functools.lru_cache(maxsize=MEMO_SIZE)
def load_problem(text: str) -> Problem:
    """The Problem of a problem file's text, shared by calls on the same text."""
    return Problem(parse_problem(text))


def _doc(command: str, spec: ProblemSpec, **fields) -> dict:
    """The JSON document of a command: the command, ring and order, then fields in order.

    Each command builds only the output that --json selects: this document,
    or the lines of text.
    """
    doc = {
        "command": command,
        "ring": ring_json(spec.ring),
        "order": spec.order.name,
    }
    if spec.ring.rank > 1:
        doc["module_order"] = spec.module_precedence
    doc.update(fields)
    return doc


def _noether_basis(problem: Problem, method: str, check_all: bool):
    spec = problem.spec
    _refuse_parameters(spec.ring)  # before the translate's Buchberger, which the refusal does not need
    basis = problem.build(METHODS[method], spec.generators, spec.center)
    if check_all:
        # each construction returns the canonical row form: equal spans are equal tuples
        for name, build in METHODS.items():
            if name != method and problem.build(build, spec.generators, spec.center).operators != basis.operators:
                raise NoethError(f"method disagreement: {method} and {name} spans differ")
    return basis


def cmd_gb(problem, args):
    G = problem.basis
    if args.json:
        return _doc("gb", problem.spec, basis=[polynomial_fragment(g, G.order) for g in G.elements])
    return [render_polynomial(g, G.order) for g in G.elements]


def cmd_nf(problem, args):
    f = parse_polynomial(args.expression, problem.spec.ring)
    G = problem.basis
    result = normal_form(f, G)
    if args.json:
        return _doc("nf", problem.spec, result=polynomial_fragment(result, G.order))
    return [render_polynomial(result, G.order)]


def cmd_mult(problem, args):
    stair = staircase(problem.basis)
    if args.json:
        return _doc("mult", problem.spec, multiplicity=stair.multiplicity)
    return [str(stair.multiplicity)]


def _terms_output(command, spec, args, keys):
    if args.json:
        return _doc(command, spec, **{command: [{"pos": p, "exp": list(e)} for p, e in keys]})
    return [render_module_term(spec.ring, key) for key in keys]


def cmd_staircase(problem, args):
    return _terms_output("staircase", problem.spec, args, staircase(problem.basis).monomials)


def cmd_corners(problem, args):
    G = problem.basis
    return _terms_output("corners", problem.spec, args, corner_monomials(staircase(G), G))


def _operators_output(command, spec, args, basis, **fields):
    order = spec.effective_order
    if not args.json:
        return [render_operator(L, order) for L in basis.operators]
    center = [str(c) for c in basis.center]
    operators = operators_fragment(basis.operators, order)
    return _doc(command, spec, **fields, multiplicity=basis.multiplicity, center=center, operators=operators)


def cmd_noether(problem, args):
    basis = _noether_basis(problem, args.method, args.check_all)
    return _operators_output("noether", problem.spec, args, basis, method=basis.method)


def cmd_noether_posdim(problem, args):
    return _operators_output("noether-posdim", problem.spec, args, problem.positive)


def cmd_member(problem, args):
    spec = problem.spec
    f = parse_polynomial(args.expression, spec.ring)
    if spec.ring.t_count:
        verdict = member_positive(f, problem.positive)
    else:
        verdict = is_member(f, problem.basis)
    if args.json:
        return _doc("member", spec, member=verdict)
    return ["true" if verdict else "false"]


def cmd_ep_solution(problem, args):
    spec = problem.spec
    if not spec.components:
        raise NoethError("ep-solution needs component clauses (a primary decomposition)")
    build = noetherian_positive if spec.ring.t_count else noetherian_forward
    if spec.ring.t_count:
        _require_posdim_input(spec.ring, spec.effective_order)  # before the first component's Buchberger
    parts = [(comp.center, problem.build(build, comp.generators, comp.center)) for comp in spec.components]
    family = build_solution(spec.ring, parts)
    if args.json:
        return _doc("ep-solution", spec, summands=solution_json(family))
    return [render_solution(family)]


COMMANDS = {
    "gb": cmd_gb,
    "nf": cmd_nf,
    "mult": cmd_mult,
    "staircase": cmd_staircase,
    "corners": cmd_corners,
    "noether": cmd_noether,
    "noether-posdim": cmd_noether_posdim,
    "member": cmd_member,
    "ep-solution": cmd_ep_solution,
}


def _add_command_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    if name in ("nf", "member"):
        parser.add_argument("expression", help="polynomial (or [f1, ..., fs] vector)")
    if name == "noether":
        parser.add_argument(
            "--method",
            choices=list(METHODS),
            default="forward",
        )
        parser.add_argument(
            "--check-all",
            action="store_true",
            help="run all three constructions and verify span equality",
        )
    parser.add_argument("file", help="problem file")
    parser.add_argument("--json", action="store_true", help="emit JSON")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noeth",
        description="Dual differential operators for primary ideals and modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_command_arguments(sub.add_parser(name), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built once per process.

    Sharing it is safe: parsing returns a fresh Namespace, no default is
    mutable, and help reads COLUMNS when it is formatted, not here.
    """
    parser = argparse.ArgumentParser(prog=f"noeth {name}")
    _add_command_arguments(parser, name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the full subparser tree would, with one parser per command if possible.

    The tree's subparser for the command gets exactly argv[1:], so a
    parser for that command alone gives the same result, help and errors.
    Anything else (no command, top-level help, an unknown command, arguments
    left over) goes to the full tree, which prints its usage or error.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        args, rest = _command_parser(name).parse_known_args(argv[1:])
        if not rest:
            args.command = name
            return args
    return build_arg_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        output = COMMANDS[args.command](load_problem(text), args)
    except ParseError as exc:
        if args.json:
            print(emit_json({"error": str(exc), "line": exc.line, "column": exc.column}))
        else:
            print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NoethError as exc:
        if args.json:
            print(emit_json({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(emit_json(output))
    elif output:
        sys.stdout.write("\n".join(output) + "\n")
    return 0
