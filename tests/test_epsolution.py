"""Exponential-polynomial solution families for constant-coefficient systems."""

from __future__ import annotations

from fractions import Fraction

from noeth import (
    Polynomial,
    RingDescriptor,
    buchberger,
    build_solution,
    noetherian_forward,
    noetherian_positive,
    parse_problem,
    render_solution,
)
from noeth.epsolution import solution_json
from support import exponential_shift_apply

MODULE_TEXT = (
    "ring x, y;\n"
    "order lex;\n"
    "moduleorder top;\n"
    "component [x, 1], [y, x], [0, y] at 0, 0;\n"
    "component [x - 1, 1], [y, 0], [0, x - 1], [0, y] at 1, 0;\n"
)

SCALAR_TEXT = (
    "ring x, y; order deglex;\n"
    "component x^2, y at 0, 0;\n"
    "component (x - 1)^2, y at 1, 0;\n"
)

POSDIM_TEXT = "ring x, y | t;\norder lex;\ncomponent x^2, y^2, -x*t + y at 0, 0, 0;\n"


def module_family():
    spec = parse_problem(MODULE_TEXT)
    parts = []
    for comp in spec.components:
        G = buchberger(comp.generators, spec.effective_order, spec.ring)
        parts.append((comp.center, noetherian_forward(G, comp.center)))
    return spec, build_solution(spec.ring, parts)


def posdim_family():
    spec = parse_problem(POSDIM_TEXT)
    comp = spec.components[0]
    basis = noetherian_positive(buchberger(comp.generators, spec.effective_order, spec.ring))
    return spec, build_solution(spec.ring, [(comp.center, basis)])


def test_module_family_render():
    _, family = module_family()
    assert render_solution(family) == (
        "f = C1 (1, 0)\n"
        "  + C2 (-x, 1)\n"
        "  + C3 (y + 1/2 x^2, -x)\n"
        "  + C4 (1, 0) e^(x)\n"
        "  + C5 (-x, 1) e^(x)"
    )


def test_module_family_structure():
    _, family = module_family()
    origin = (Fraction(0), Fraction(0))
    shifted = (Fraction(1), Fraction(0))
    assert family.structure() == {
        (1, (0, 0), origin),
        (1, (1, 0), origin),
        (1, (0, 1), origin),
        (1, (2, 0), origin),
        (2, (0, 0), origin),
        (2, (1, 0), origin),
        (1, (0, 0), shifted),
        (1, (1, 0), shifted),
        (2, (0, 0), shifted),
    }
    assert [s.constant for s in family.summands] == ["C1", "C2", "C3", "C4", "C5"]
    assert [s.component for s in family.summands] == [1, 1, 1, 2, 2]
    assert not any(s.integral for s in family.summands)


def test_module_family_json():
    _, family = module_family()
    assert solution_json(family)[:2] == [
        {
            "constant": "C1",
            "component": 1,
            "center": ["0", "0"],
            "integral": False,
            "terms": [{"pos": 1, "alpha": [0, 0], "scalar": "1"}],
        },
        {
            "constant": "C2",
            "component": 1,
            "center": ["0", "0"],
            "integral": False,
            "terms": [
                {"pos": 2, "alpha": [0, 0], "scalar": "1"},
                {"pos": 1, "alpha": [1, 0], "scalar": "-1"},
            ],
        },
    ]
    last = solution_json(family)[-1]
    assert last == {
        "constant": "C5",
        "component": 2,
        "center": ["1", "0"],
        "integral": False,
        "terms": [
            {"pos": 2, "alpha": [0, 0], "scalar": "1"},
            {"pos": 1, "alpha": [1, 0], "scalar": "-1"},
        ],
    }


def scalar_ring_of(ring):
    return ring.with_rank(1)


def test_module_summands_solve_the_system():
    spec, family = module_family()
    scalar = scalar_ring_of(spec.ring)
    for s in family.summands:
        polys = []
        for pos in range(1, spec.ring.rank + 1):
            terms = {
                (1, t.alpha): t.scalar for t in s.terms if t.position == pos
            }
            polys.append(Polynomial(scalar, terms))
        shifts = [Polynomial.constant(scalar, c) for c in s.center]
        for gen in spec.components[s.component - 1].generators:
            assert exponential_shift_apply(gen, polys, shifts).is_zero()


def test_scalar_family_render_and_solve():
    spec = parse_problem(SCALAR_TEXT)
    parts = []
    for comp in spec.components:
        G = buchberger(comp.generators, spec.effective_order, spec.ring)
        parts.append((comp.center, noetherian_forward(G, comp.center)))
    family = build_solution(spec.ring, parts)
    assert render_solution(family) == (
        "f = C1\n  + C2 x\n  + C3 e^(x)\n  + C4 x e^(x)"
    )
    for s in family.summands:
        poly = Polynomial(spec.ring, {(1, t.alpha): t.scalar for t in s.terms})
        shifts = [Polynomial.constant(spec.ring, c) for c in s.center]
        for gen in spec.components[s.component - 1].generators:
            assert exponential_shift_apply(gen, [poly], shifts).is_zero()


def test_posdim_family_render_and_json():
    _, family = posdim_family()
    assert render_solution(family) == (
        "f = Int[ 1 e^(t t_) dnu1(t_) ]\n"
        "  + Int[ (x + y t_) e^(t t_) dnu2(t_) ]"
    )
    assert [s.constant for s in family.summands] == ["nu1", "nu2"]
    assert all(s.integral for s in family.summands)
    docs = solution_json(family)
    assert docs[1]["terms"] == [
        {"pos": 1, "alpha": [1, 0], "scalar": "1"},
        {"pos": 1, "alpha": [0, 1], "scalar": "t"},
    ]
    zero3 = (Fraction(0), Fraction(0), Fraction(0))
    assert family.structure() == {
        (1, (0, 0), zero3),
        (1, (1, 0), zero3),
        (1, (0, 1), zero3),
    }


def test_posdim_summands_solve_for_every_frequency():
    spec, family = posdim_family()
    # symbolic frequency s: u = p(x, y, s) e^(s t) must satisfy the system
    oracle_ring = RingDescriptor(("x", "y", "t", "s"), 4)
    s_var = Polynomial.variable(oracle_ring, "s")
    zero = Polynomial.zero(oracle_ring)
    shifts = [zero, zero, s_var]
    for s in family.summands:
        terms: dict = {}
        for t in s.terms:
            if isinstance(t.scalar, Polynomial):
                for (_, texp), c in t.scalar.terms.items():
                    terms[(1, t.alpha + (0,) + texp)] = c
            else:
                terms[(1, t.alpha + (0, 0))] = t.scalar
        poly = Polynomial(oracle_ring, terms)
        for gen in spec.components[s.component - 1].generators:
            assert exponential_shift_apply(gen, [poly], shifts).is_zero()
