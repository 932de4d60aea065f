"""The value types are immutable records that behave as frozen dataclasses did.

One table covers every record class: construction by position and by
keyword with the defaults, equality and hashing by class and field values,
the dataclass-style repr (the texts were taken from the dataclass versions),
and refusal to set or delete a field.  NoetherianBasis is equal only to
itself.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from noeth import (
    DegLex,
    DegRevLex,
    DiffOp,
    GroebnerBasis,
    Lex,
    ModuleOrder,
    NoetherianBasis,
    Polynomial,
    ProductOrder,
    RingDescriptor,
    buchberger,
    noetherian_forward,
)
from noeth.epsolution import SolutionFamily, SolutionSummand, SolutionTerm
from noeth.groebner import Staircase
from noeth.problem import Component, ProblemSpec
from test_bench_tracer import pinned_tracer

R = RingDescriptor(("x", "y"), 2)
X = Polynomial.variable(R, "x")
ONE = DiffOp(R, {(1, (0, 0)): 1})
ORIGIN = (Fraction(0), Fraction(0))
R_REPR = "RingDescriptor(names=('x', 'y'), x_count=2, t_count=0, rank=1)"

# class, positional arguments, keyword arguments that give the same record, repr
RECORDS = [
    (RingDescriptor, (("x", "y"), 2), {"names": ("x", "y"), "x_count": 2}, R_REPR),
    (RingDescriptor, (("x", "t"), 1, 1, 2), {"names": ("x", "t"), "x_count": 1, "t_count": 1, "rank": 2},
     "RingDescriptor(names=('x', 't'), x_count=1, t_count=1, rank=2)"),
    (Lex, (), {}, "Lex()"),
    (DegLex, (), {}, "DegLex()"),
    (DegRevLex, (), {}, "DegRevLex()"),
    (ProductOrder, (Lex(), DegLex()), {"x_order": Lex(), "t_order": DegLex()},
     "ProductOrder(x_order=Lex(), t_order=DegLex())"),
    (ModuleOrder, (DegLex(),), {"base": DegLex()}, "ModuleOrder(base=DegLex(), precedence='top')"),
    (ModuleOrder, (Lex(), "pot"), {"base": Lex(), "precedence": "pot"},
     "ModuleOrder(base=Lex(), precedence='pot')"),
    (GroebnerBasis, (R, DegLex(), (X,)), {"ring": R, "order": DegLex(), "elements": (X,), "reduced": True},
     f"GroebnerBasis(ring={R_REPR}, order=DegLex(), elements=(Polynomial(1*x),), reduced=True)"),
    (Staircase, (R, ((1, (0, 0)),)), {"ring": R, "monomials": ((1, (0, 0)),)},
     f"Staircase(ring={R_REPR}, monomials=((1, (0, 0)),))"),
    (NoetherianBasis, ((ONE,), 1, ORIGIN, "forward", None),
     {"operators": (ONE,), "multiplicity": 1, "center": ORIGIN, "method": "forward", "source": None},
     "NoetherianBasis(operators=(DiffOp(1*1),), multiplicity=1, center=(Fraction(0, 1), Fraction(0, 1)), "
     "method='forward', source=None)"),
    (Component, ((X,), (Fraction(1), Fraction(0))), {"generators": (X,), "center": (Fraction(1), Fraction(0))},
     "Component(generators=(Polynomial(1*x),), center=(Fraction(1, 1), Fraction(0, 1)))"),
    (ProblemSpec, (R, DegLex()), {"ring": R, "order": DegLex(), "module_precedence": "top", "generators": (),
                                  "center": None, "components": ()},
     f"ProblemSpec(ring={R_REPR}, order=DegLex(), module_precedence='top', generators=(), center=None, "
     "components=())"),
    (SolutionTerm, (1, (0, 0), Fraction(1, 2)), {"position": 1, "alpha": (0, 0), "scalar": Fraction(1, 2)},
     "SolutionTerm(position=1, alpha=(0, 0), scalar=Fraction(1, 2))"),
    (SolutionSummand, ("c1", 1, (Fraction(0),), False, ()),
     {"constant": "c1", "component": 1, "center": (Fraction(0),), "integral": False, "terms": ()},
     "SolutionSummand(constant='c1', component=1, center=(Fraction(0, 1),), integral=False, terms=())"),
    (SolutionFamily, (R, ()), {"ring": R, "summands": ()},
     f"SolutionFamily(ring={R_REPR}, summands=())"),
]


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_a_record_behaves_as_its_frozen_dataclass_did(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert repr(a) == repr(b) == text
    if cls is NoetherianBasis:
        assert a == a and a != b and len({a, b}) == 2
    else:
        assert a == b and hash(a) == hash(b)
    assert a != args and a != object()
    for name in kwargs:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.extra = 1


def test_records_of_different_classes_or_fields_differ():
    assert Lex() != DegLex() and DegLex() != DegRevLex() and Lex() == Lex()
    assert ModuleOrder(Lex()) != ModuleOrder(Lex(), "pot") and ModuleOrder(Lex()) != ModuleOrder(DegLex())
    assert RingDescriptor(("x",), 1) != RingDescriptor(("x",), 1, 0, 2)
    assert len({Lex(), Lex(), DegLex(), ModuleOrder(Lex()), ModuleOrder(Lex(), "top")}) == 3


def test_rings_and_orders_copy_and_pickle():
    for value in (R, ProductOrder(Lex(), DegRevLex()), ModuleOrder(DegLex(), "pot"), DegLex()):
        assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


def test_record_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="invalid ring shape"):
        RingDescriptor(("x",), 1, 0, 0)
    with pytest.raises(ValueError, match="variable count does not match names"):
        RingDescriptor(("x", "y"), 1)
    with pytest.raises(ValueError, match="duplicate variable names"):
        RingDescriptor(("x", "x"), 2)
    with pytest.raises(ValueError, match="nested product orders are not supported"):
        ProductOrder(ProductOrder(Lex(), Lex()), Lex())
    with pytest.raises(ValueError, match="unknown precedence 'over'"):
        ModuleOrder(Lex(), "over")


def test_a_groebner_basis_caches_its_reducers_and_translates():
    G = buchberger([X**2, Polynomial.variable(R, "y") ** 2], DegLex(), R)
    assert G._reducers is G._reducers
    G.translates[ORIGIN] = G
    assert G.translates is G.translates and G.translates[ORIGIN] is G


def test_the_tracer_wraps_validate_through_the_class_dict(monkeypatch):
    tracer = pinned_tracer(monkeypatch)
    try:
        tracer.install()
        basis = noetherian_forward(buchberger([X**2, Polynomial.variable(R, "y")], DegLex(), R))
    finally:
        monkeypatch.undo()
    assert len(basis) == 2
    assert tracer.names.count("noetherian.NoetherianBasis.validate") == 1
