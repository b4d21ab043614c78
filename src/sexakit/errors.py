"""Exception types shared across the package.

Grouped the way the CLI maps them to exit codes: input/grammar problems
(exit 2) versus violated mathematical preconditions (exit 3).
"""

from __future__ import annotations


class SexakitError(Exception):
    """Base class for every error raised by this package."""


# -- input / grammar ---------------------------------------------------------

class MalformedLiteral(SexakitError, ValueError):
    """Text does not match the sexagesimal literal grammar."""


class ExpressionError(SexakitError, ValueError):
    """Infix expression does not match the calculator grammar."""


class CorpusParseError(SexakitError):
    """A corpus file is structurally invalid."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class BadLiteral(CorpusParseError):
    """A corpus field holds a malformed sexagesimal literal."""


class UnknownProcedure(CorpusParseError):
    """A corpus problem names a procedure this engine does not implement."""


class UnknownProblem(SexakitError, KeyError):
    """A requested problem id is not in the loaded corpus."""

    # KeyError's str quotes its argument; print the message as it is.
    __str__ = Exception.__str__


# -- mathematical preconditions ----------------------------------------------

class ZeroInput(SexakitError, ZeroDivisionError):
    """Zero where a nonzero value is required (reciprocal, regularity test)."""


class ZeroDivisor(SexakitError, ZeroDivisionError):
    """Division by zero."""


def _prime(noun: str, prime: int | None) -> str:
    # The prime search is bounded: None means every prime factor lies
    # above the bound, so name the bound, never an unproven prime.
    if prime is not None:
        return f"{noun} {prime}"
    from .sexa import _PRIME_SEARCH_LIMIT
    return f"a {noun} above {_PRIME_SEARCH_LIMIT}"


class NonTerminating(SexakitError):
    """Value has no finite base-60 expansion.

    ``value`` is a ``Sexa``; the message writes it as ``str`` does, in
    base 60 when it terminates and as p/q otherwise.  ``prime`` is the
    smallest prime other than 2, 3, 5 in the denominator, or None when
    that prime lies above the bounded search.
    """

    def __init__(self, value, prime: int | None):
        self.value = value
        self.prime = prime
        super().__init__(
            f"{value} has no finite base-60 expansion "
            f"(denominator contains {_prime('prime', prime)})")


class IrregularDivisor(SexakitError):
    """Divisor is not regular, so it has no finite reciprocal.

    ``value`` is a ``Sexa``, written as in ``NonTerminating``.  ``prime``
    is the smallest prime factor other than 2, 3, 5, or None when that
    prime lies above the bounded search.
    """

    def __init__(self, value, prime: int | None):
        self.value = value
        self.prime = prime
        super().__init__(
            f"{value} is not a regular number "
            f"({_prime('prime factor', prime)}); it has no finite reciprocal")


class NoFiniteQuotient(SexakitError):
    """An exact quotient exists but cannot be written in base 60."""


class NotAPerfectSquare(SexakitError):
    """Square root requested of a value that is not a rational square."""


class NegativeRadicand(SexakitError):
    """Square root requested of a negative value."""


class DimensionMismatch(SexakitError):
    """Quantities combined in a way the dimension algebra does not allow."""


class NonPositiveDimension(SexakitError):
    """A canal dimension that must be positive is zero or negative."""


class InconsistentConstraint(SexakitError):
    """Derived canal breadths violate the assumed ordering (upper >= lower)."""


class MalformedProblem(SexakitError):
    """Problem coefficients violate the procedure's invariants."""


class ProcedureError(SexakitError):
    """A replayed procedure failed; carries the stage where it broke."""

    def __init__(self, problem_id: str, stage: str, cause: Exception):
        self.problem_id = problem_id
        self.stage = stage
        self.cause = cause
        super().__init__(f"{problem_id}: {stage}: {cause}")
