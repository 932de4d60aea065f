"""Ring descriptors and exponent helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from noeth import DegLex, DiffOp, Polynomial, buchberger, noetherian_forward
from noeth.errors import RingMismatchError
from noeth.ring import (
    RingDescriptor,
    check_same_variables,
    exp_add,
    exp_deg,
    exp_divides,
    exp_lcm,
    exp_sub,
    reading_key,
    t_part,
    x_part,
)
from support import RX, RXY, RXYT, random_exponent


def test_descriptor_shape_validation():
    with pytest.raises(ValueError):
        RingDescriptor(("x", "y"), 1)
    with pytest.raises(ValueError):
        RingDescriptor(("x", "x"), 2)
    with pytest.raises(ValueError):
        RingDescriptor(("x",), 1, 0, 0)
    with pytest.raises(ValueError):
        RingDescriptor(("x",), -1, 2)


def test_blocks_and_subrings():
    assert RXYT.nvars == 3
    assert RXYT.x_names == ("x", "y")
    assert RXYT.t_names == ("t",)
    assert RXYT.zero_exp() == (0, 0, 0)
    assert RXYT.var_exp(2) == (0, 0, 1)
    assert RXYT.var_index("t") == 2
    xsub = RXYT.x_subring()
    assert xsub.names == ("x", "y") and xsub.t_count == 0
    tsub = RXYT.t_subring()
    assert tsub.names == ("t",) and tsub.rank == 1
    assert RXY.with_rank(3).rank == 3
    assert RXY.with_rank(3).same_variables(RXY)


def test_same_variables_ignores_rank_but_not_split():
    assert RXY.same_variables(RXY.with_rank(2))
    split = RingDescriptor(("x", "y"), 1, 1)
    assert not RXY.same_variables(split)
    with pytest.raises(RingMismatchError):
        check_same_variables(RXY, split)


def test_exponent_arithmetic_goldens():
    assert exp_add((1, 2), (0, 3)) == (1, 5)
    assert exp_sub((4, 2), (1, 2)) == (3, 0)
    assert exp_lcm((2, 0), (1, 3)) == (2, 3)
    assert exp_deg((3, 1)) == 4
    assert exp_divides((1, 0), (2, 5))
    assert not exp_divides((1, 3), (2, 2))


def test_divides_matches_subtraction_sign():
    rng = random.Random(11)
    for _ in range(200):
        a = random_exponent(rng, 3, 4)
        b = random_exponent(rng, 3, 4)
        assert exp_divides(a, b) == all(e >= 0 for e in exp_sub(b, a))
        assert exp_divides(a, exp_lcm(a, b))
        assert exp_divides(b, exp_lcm(a, b))


def test_block_projections():
    e = (2, 1, 5)
    assert x_part(RXYT, e) == (2, 1)
    assert t_part(RXYT, e) == (5,)


def test_reading_key_orders_by_degree_then_position_then_lex_largest():
    keys = [(1, (0, 1)), (1, (1, 0)), (2, (0, 0)), (1, (0, 0)), (1, (1, 1)), (1, (2, 0))]
    ordered = sorted(keys, key=reading_key)
    assert ordered == [
        (1, (0, 0)),
        (2, (0, 0)),
        (1, (1, 0)),
        (1, (0, 1)),
        (1, (2, 0)),
        (1, (1, 1)),
    ]


def test_inexact_inputs_are_refused_where_they_enter():
    with pytest.raises(RingMismatchError, match="0.5"):
        Polynomial(RX, {(1, (1,)): 0.5})
    with pytest.raises(RingMismatchError, match="0.5"):
        DiffOp(RXY, {(1, (0, 0)): 1}, center=(0.5, 0))
    x = Polynomial.variable(RX, "x")
    G = buchberger([(x - Fraction(1, 2)) ** 2], DegLex())
    with pytest.raises(RingMismatchError, match="0.5"):
        noetherian_forward(G, center=(0.5,))
    assert noetherian_forward(G, center=(Fraction(1, 2),)).multiplicity == 2
