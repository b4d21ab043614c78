"""Exception types shared across the package.

Grouped the way the CLI maps them to exit codes: ``InputError`` is the
one class behind exit 2 (malformed input: a literal, an expression, a
corpus file, a problem id), and every other ``SexakitError`` is a
violated mathematical precondition, exit 3.
"""

from __future__ import annotations


class SexakitError(Exception):
    """Base class for every error raised by this package."""


# -- input / grammar: exit 2 -------------------------------------------------

class InputError(SexakitError):
    """Malformed input; the CLI exits 2 for it, 3 for any other error."""


class MalformedLiteral(InputError, ValueError):
    """Text does not match the sexagesimal literal grammar."""


class ExpressionError(InputError, ValueError):
    """Infix expression does not match the calculator grammar."""


class CorpusParseError(InputError):
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


class UnknownProblem(InputError, KeyError):
    """A requested problem id is not in the loaded corpus."""

    # KeyError's str quotes its argument; print the message as it is.
    __str__ = Exception.__str__


# -- mathematical preconditions: exit 3 --------------------------------------

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


def _written(value) -> str:
    # str() writes a value with no base-60 literal as p/q, and refuses a
    # term past the str(int) limit: write such a value by its size, so
    # that the error being built keeps its own type.
    try:
        return f"{value}"
    except UnwritableValue as exc:
        return f"a value with a term of about {exc.digits} decimal digits"


class NonTerminating(SexakitError):
    """Value has no finite base-60 expansion.

    ``value`` is a ``Sexa``; the message writes it as ``str`` does, in
    base 60 when it terminates and as p/q otherwise, or by its size when
    a p/q term is too long to write.  ``prime`` is the smallest prime
    other than 2, 3, 5 in the denominator, or None when that prime lies
    above the bounded search.
    """

    def __init__(self, value, prime: int | None):
        self.value = value
        self.prime = prime
        super().__init__(
            f"{_written(value)} has no finite base-60 expansion "
            f"(denominator contains {_prime('prime', prime)})")


class IrregularDivisor(SexakitError):
    """Divisor is not regular, so it has no finite reciprocal.

    ``value`` is a ``Sexa``, written as in ``NonTerminating``.  ``prime``
    is the smallest prime factor of either term other than 2, 3, 5, or
    None when that prime lies above the bounded search.
    """

    def __init__(self, value, prime: int | None):
        self.value = value
        self.prime = prime
        super().__init__(
            f"{_written(value)} is not a regular number "
            f"({_prime('prime factor', prime)}); it has no finite reciprocal")


class UnwritableValue(SexakitError):
    """A value has no base-60 literal, and its p/q text has a term longer
    than the interpreter converts to decimal (``sys.get_int_max_str_digits``).

    ``digits`` is the longer term's length in decimal digits, about.
    """

    def __init__(self, digits: int):
        self.digits = digits
        super().__init__(
            f"value has no finite base-60 expansion and a term of about "
            f"{digits} decimal digits, too long to write as p/q")


class NoFiniteQuotient(SexakitError):
    """An exact quotient exists but cannot be written in base 60.

    ``value`` is the quotient, written as in ``NonTerminating``.
    """

    def __init__(self, value):
        self.value = value
        super().__init__(f"{_written(value)} has no finite base-60 form")


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


class EquationNotSatisfied(SexakitError):
    """An answer substituted back into its problem's equation fails it."""


class ProcedureError(SexakitError):
    """A replayed procedure failed; carries the stage where it broke.

    ``corpus._stage`` is the only code that raises it: solvers raise the
    plain error, and the stage wraps it once with the problem id.
    ``line`` is the tablet line of the first expected step the replay had
    not produced when the stage failed, or None when it had them all.
    """

    def __init__(self, problem_id: str, stage: str, cause: Exception,
                 line: str | None):
        self.problem_id = problem_id
        self.stage = stage
        self.cause = cause
        self.line = line
        super().__init__(f"{problem_id}: {stage}: {cause}")
