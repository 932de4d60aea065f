"""The dense reference elimination, and kernels by tagged reduction on Echelon."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import noeth
from noeth import Polynomial, RationalFunction, RingDescriptor
from noeth.diffop import Echelon
from noeth.linalg import rref
from noeth.noetherian import _relation, _tags_last
from support import random_fraction


def F(*ints):
    return [Fraction(i) for i in ints]


def test_rref_golden():
    rows, pivots = rref([F(0, 2, 4), F(1, 1, 1)])
    assert pivots == [0, 1]
    assert rows == [F(1, 0, -1), F(0, 1, 2)]


def test_rref_is_idempotent_and_rank_consistent():
    rng = random.Random(83)
    for _ in range(40):
        rows = [[random_fraction(rng) for _ in range(5)] for _ in range(4)]
        reduced, pivots = rref(rows)
        again, pivots2 = rref(reduced)
        assert again == reduced and pivots2 == pivots
        assert len(pivots) == len(reduced)


def test_span_equal_under_row_operations():
    rng = random.Random(89)
    for _ in range(30):
        rows = [[random_fraction(rng) for _ in range(4)] for _ in range(3)]
        shuffled = rows[::-1]
        scaled = [[c * 3 for c in r] for r in rows]
        mixed = [rows[0], [a + b for a, b in zip(rows[0], rows[1])], rows[2]]
        # the reduced rows are a canonical form of the row space
        for other in (shuffled, scaled, mixed):
            assert rref(other) == rref(rows)
    assert rref([F(1, 0)]) != rref([F(0, 1)])
    assert rref([F(1, 0)]) != rref([F(1, 0), F(0, 1)])


def relations_of(vectors):
    """Relations returned by the tagged reduction of the vectors, in order."""
    kernel = Echelon(key=_tags_last)
    out = []
    for idx, vec in enumerate(vectors):
        relation = _relation(kernel, {("v", k): c for k, c in enumerate(vec) if c}, idx)
        if relation is not None:
            out.append(relation)
    return out


def test_tagged_reduction_relations_span_the_kernel():
    rng = random.Random(97)
    for _ in range(40):
        width = rng.randint(1, 5)
        vectors = [[random_fraction(rng) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append([random_fraction(rng) * u + v for u, v in zip(a, b)])
        rng.shuffle(vectors)
        relations = relations_of(vectors)
        for relation in relations:
            for k in range(width):
                assert sum(c * vectors[t][k] for t, c in relation.items()) == 0
        assert len(relations) == len(vectors) - len(rref(vectors)[0])
        # each relation carries its own vector with coefficient 1 and only
        # earlier ones besides, so the relations are independent
        lasts = [max(relation) for relation in relations]
        assert len(set(lasts)) == len(lasts)
        assert all(relation[last] == 1 for relation, last in zip(relations, lasts))


def test_rref_over_rational_functions():
    RT = RingDescriptor(("t",), 1)
    t = RationalFunction(Polynomial.variable(RT, "t"))
    one = RationalFunction.from_fraction(1, RT)
    reduced, pivots = rref([[t, t * t]])
    assert pivots == [0] and reduced == [[one, t]]
    reduced, pivots = rref([[one, t], [t, t * t + one]])
    assert pivots == [0, 1] and reduced == [[one, t - t], [t - t, one]]


def test_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert len(rref([F(0, 0)])[0]) == 0
    assert relations_of([F(0, 0), F(1, 2), F(0, 0)]) == [{0: 1}, {2: 1}]


def test_no_library_module_imports_linalg():
    importers = []
    for path in sorted(Path(noeth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "linalg" for name in names):
                importers.append(path.name)
    assert importers == []
