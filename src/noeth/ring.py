"""Ring descriptors and exponent-vector helpers.

A ring is described by an ordered variable list split into a leading block of
x_count "differential" variables and a trailing block of t_count parameter
variables, plus a free-module rank (rank 1 = plain polynomial ring).  Exponent
vectors are plain int tuples of length x_count + t_count; a module term is a
(position, exponent) pair with 1-based position.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number
from operator import add, le, sub

from .errors import RingMismatchError

Exponent = tuple[int, ...]
TermKey = tuple[int, Exponent]  # (position, exponent)


class Frozen:
    """Immutable slot-only value: the one way a value type is built and frozen.

    A subclass keeps its fields in slots and names them in _fields, in
    __init__ order.  __init__ checks its arguments and sets the fields once
    through _assign; _of(*values) sets them with no check at all, the trusted
    path for values already known to be well-formed.  Setting or deleting an
    attribute raises, and copy and pickle rebuild a value through __init__.
    """

    __slots__ = ()
    _fields = ()
    _set = object.__setattr__  # the one writer past the refusal below: _assign and cached hashes

    def _assign(self, *values):
        for name, value in zip(self._fields, values):
            self._set(name, value)

    @classmethod
    def _of(cls, *values):
        value = object.__new__(cls)
        value._assign(*values)
        return value

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Record(Frozen):
    """Frozen value that behaves like a frozen dataclass but is cheaper to import.

    _assign also keeps the tuple of field values as _key, by which records of
    one class compare and hash; the repr reads like a dataclass's.
    """

    __slots__ = ("_key",)

    def _assign(self, *values):
        Frozen._assign(self, *values)
        self._set("_key", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class RingDescriptor(Record):
    __slots__ = _fields = ("names", "x_count", "t_count", "rank")

    def __init__(self, names: tuple[str, ...], x_count: int, t_count: int = 0, rank: int = 1):
        if x_count < 0 or t_count < 0 or rank < 1:
            raise ValueError("invalid ring shape")
        if x_count + t_count != len(names):
            raise ValueError("variable count does not match names")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self._assign(names, x_count, t_count, rank)

    @property
    def nvars(self) -> int:
        return self.x_count + self.t_count

    @property
    def x_names(self) -> tuple[str, ...]:
        return self.names[: self.x_count]

    @property
    def t_names(self) -> tuple[str, ...]:
        return self.names[self.x_count :]

    def zero_exp(self) -> Exponent:
        return (0,) * self.nvars

    def var_exp(self, i: int, e: int = 1) -> Exponent:
        """The exponent of x_i^e."""
        return tuple(e if j == i else 0 for j in range(self.nvars))

    def var_index(self, name: str) -> int:
        return self.names.index(name)

    def same_variables(self, other: "RingDescriptor") -> bool:
        return (
            self.names == other.names
            and self.x_count == other.x_count
            and self.t_count == other.t_count
        )

    def with_rank(self, rank: int) -> "RingDescriptor":
        return RingDescriptor(self.names, self.x_count, self.t_count, rank)

    def x_subring(self) -> "RingDescriptor":
        """Ring on the x-block alone, keeping the module rank."""
        return RingDescriptor(self.x_names, self.x_count, 0, self.rank)

    def t_subring(self) -> "RingDescriptor":
        """Plain rank-1 ring on the parameter block."""
        return RingDescriptor(self.t_names, self.t_count, 0, 1)


def check_same_variables(a: RingDescriptor, b: RingDescriptor) -> None:
    if not a.same_variables(b):
        raise RingMismatchError(f"rings disagree: {a.names} vs {b.names}")


def as_coeff(c):
    """An exact coefficient: ints become Fractions, other numbers are refused.

    Values that are not numbers, such as RationalFunction coefficients, pass
    through unchanged.
    """
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Number):
        raise RingMismatchError(f"{c!r} is not an exact rational; use int or Fraction")
    return c


def as_center(ring: RingDescriptor, center) -> tuple:
    """A point of the ring as a tuple of exact rationals; None is the origin."""
    if center is None:
        return (Fraction(0),) * ring.nvars
    center = tuple(map(as_coeff, center))
    if len(center) != ring.nvars:
        raise RingMismatchError("center length does not match variable count")
    return center


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True when the monomial with exponent a divides the one with exponent b."""
    return all(map(le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def exp_deg(a: Exponent) -> int:
    return sum(a)


def x_part(ring: RingDescriptor, e: Exponent) -> Exponent:
    return e[: ring.x_count]


def t_part(ring: RingDescriptor, e: Exponent) -> Exponent:
    return e[ring.x_count :]


def reading_key(key: TermKey):
    """Graded listing order for monomials and operator terms.

    Degree ascending, then position ascending, then the lexicographically
    largest exponent first (so x comes before y within a degree).
    """
    pos, exp = key
    return (exp_deg(exp), pos, tuple(-e for e in exp))
