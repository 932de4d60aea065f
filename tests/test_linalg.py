"""Exact row reduction and kernel bases."""

from __future__ import annotations

import random
from fractions import Fraction

from noeth import Polynomial, RationalFunction, RingDescriptor
from noeth.linalg import nullspace, rref
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


def test_nullspace_over_fractions():
    rng = random.Random(97)
    for _ in range(30):
        rows = [[random_fraction(rng) for _ in range(5)] for _ in range(3)]
        basis = nullspace(rows, 5, Fraction(0), Fraction(1))
        assert len(basis) == 5 - len(rref(rows)[0])
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # basis vectors are independent: each has a 1 in a distinct free column
        assert len(rref(basis)[0]) == len(basis)


def test_nullspace_over_rational_functions():
    RT = RingDescriptor(("t",), 1)
    t = RationalFunction(Polynomial.variable(RT, "t"))
    one = RationalFunction.from_fraction(1, RT)
    zero = RationalFunction.from_fraction(0, RT)
    # kernel of [1, t] is spanned by (-t, 1)
    basis = nullspace([[one, t]], 2, zero, one)
    assert len(basis) == 1
    assert basis[0] == [-t, one]
    reduced, pivots = rref([[t, t * t]])
    assert pivots == [0] and reduced == [[one, t]]


def test_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert len(rref([F(0, 0)])[0]) == 0
    basis = nullspace([], 3, Fraction(0), Fraction(1))
    assert len(basis) == 3
