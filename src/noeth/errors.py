"""Exception types shared across the package.

Everything user-facing derives from NoethError so the CLI can map domain
failures to a single exit status; ParseError carries source coordinates.
"""

from __future__ import annotations


class NoethError(Exception):
    """Base class for domain errors (violated preconditions, bad input)."""


class RingMismatchError(NoethError):
    """Operands live over incompatible rings."""


class ZeroPolynomialError(NoethError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class InfiniteStaircaseError(NoethError):
    """The residual monomials are not finite (missing pure power in some variable)."""


class NotEliminationOrderError(NoethError):
    """The ordering cannot certify membership of leading terms in the parameter block."""


class NormalPositionError(NoethError):
    """The ideal is not in normal position; the message names the precondition that failed."""


class NotClosedError(NoethError):
    """An operator family is not stable under the lowering morphisms."""


class ResourceLimitError(NoethError):
    """The work needed exceeds a documented cap, such as groebner.STAIRCASE_CAP."""


class NotPrimaryError(NoethError):
    """The input is not primary at the center: the maximal ideal there is not nilpotent modulo it."""


class ParseError(Exception):
    """Problem-file syntax error with 1-based source position."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
