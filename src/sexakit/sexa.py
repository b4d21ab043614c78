"""Exact arithmetic over base-60 (sexagesimal) numbers.

``Sexa`` is an exact rational; constructing one from a string parses the
sexagesimal literal grammar used throughout this package:

    ["-"] group ("," group)* [";" group ("," group)*]

Each group is one or two decimal digits valued 0..59 and ";" is the radix
point, so ``"1,9;22,30"`` is 1*60 + 9 + 22/60 + 30/3600.  ":" is accepted
as a radix-point synonym because tablet transliterations print it that way
(e.g. "14:3,45").  A value renders to a finite literal only when its
reduced denominator is 60-smooth (prime factors among 2, 3, 5); ``render``
refuses anything else with ``NonTerminating`` unless the caller explicitly
asks for the p/q fallback.

A nonzero rational is *regular* when both its reduced numerator and
denominator are 60-smooth; exactly those numbers have finite reciprocals,
which is why the scribal operations (``reciprocal``, and every division
implemented as multiplication by a reciprocal) insist on them.

Everything here is immutable and pure; values are safe to share between
threads.

Cost model, for a value of n digit groups.  ``parse`` folds every group
into one integer.  ``render``, the one path from a value to its literal
(``str``, ``format`` and ``repr`` call it), peels five digits per
big-integer division, then joins the integer and the fractional groups
into the text once each.  Stripping 2, 3 and 5 (``is_regular``,
``reciprocal``) takes one shift and O(log e) divisions per prime power
p**e.  So the Python-level work is at most one step per group, but each
step's big-integer arithmetic is linear in the length of the number: all
three keep a quadratic term, and doubling n at a few thousand groups
costs 3x to 4x.  Rejecting an irregular number is the exception: naming
the prime in ``IrregularDivisor``/``NonTerminating`` trial-divides the
non-smooth part m by the integers coprime to 30, up to its smallest
prime p, up to sqrt(m) when m is prime, or up to ``_PRIME_SEARCH_LIMIT``
(10**6), whichever comes first: at most about 270 000 divisions, each
linear in the length of m.  Past the limit the error names no prime
(``.prime`` is None).

Small values (a few groups, as in a tablet replay) cost bookkeeping more
than arithmetic, so every result is built once, with no second
normalization.  ``Fraction``'s operators already return lowest terms,
and ``_reduced`` sets the result's two slots directly instead of running
the gcd again.  Negation, ``abs``, ``reciprocal`` (which swaps the
terms), ``sqrt_exact`` (roots of coprime squares are coprime), ``parse``
(one gcd) and ``Sexa(fraction)`` build their results the same way, and
``Sexa(sexa)`` is its argument.  The functions that take a ``SexaLike``
use a ``Fraction`` argument as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import (
    IrregularDivisor,
    MalformedLiteral,
    NegativeRadicand,
    NonTerminating,
    NotAPerfectSquare,
    ZeroInput,
)

__all__ = [
    "Sexa",
    "parse",
    "render",
    "halve",
    "square",
    "sqrt_exact",
    "reciprocal",
    "is_regular",
]

SexaLike = Union["Sexa", Fraction, int]

#: Gaps between successive integers coprime to 30, starting from 7.
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)
#: Five base-60 digits, below 2**30: one CPython digit per division.
_CHUNK = 60 ** 5
#: Largest trial divisor used to name the prime in an error: every prime
#: up to it is found, and no search runs past it (about 270 000 divisions).
_PRIME_SEARCH_LIMIT = 10 ** 6


def _reduced(n: int, d: int) -> Sexa:
    """The Sexa n/d, for n/d already in lowest terms with d > 0.

    Sets ``Fraction``'s two slots directly, skipping the gcd and the type
    checks of ``Fraction.__new__``.  Callers own the lowest-terms promise.
    """
    value = object.__new__(Sexa)
    value._numerator = n
    value._denominator = d
    return value


def _as_fraction(x: SexaLike) -> Fraction:
    """x as it is when it is a Fraction (a Sexa is one), else Fraction(x)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _wrap(value):
    if type(value) is Fraction:
        # Fraction's operators return lowest terms: reuse them as they are.
        return _reduced(value._numerator, value._denominator)
    if value is NotImplemented:
        return NotImplemented
    if isinstance(value, float):
        # Fraction falls back to float for mixed arithmetic; never allow it.
        raise TypeError("Sexa arithmetic does not mix with floats")
    return Sexa(value)


class Sexa(Fraction):
    """Exact signed rational with canonical sexagesimal rendering.

    ``Sexa("21,9;8,26,15")`` parses a literal; ``Sexa(9, 64)`` builds the
    fraction 9/64 directly.  Arithmetic stays exact and closed over Sexa.
    Floats are rejected outright: this type never approximates.
    """

    __slots__ = ()

    def __new__(cls, value: SexaLike | str = 0, denominator=None):
        if denominator is None:
            if type(value) is Sexa:
                return value            # immutable: share, don't copy
            if isinstance(value, Fraction):
                return _reduced(value._numerator, value._denominator)
            if isinstance(value, str):
                return parse(value)
            if isinstance(value, float):
                raise TypeError("Sexa cannot be built from a float; "
                                "use a literal string or integer ratio")
        return super().__new__(cls, value, denominator)

    # Closed arithmetic: every result is a Sexa again.
    def __add__(self, other):
        return _wrap(Fraction.__add__(self, other))

    def __radd__(self, other):
        return _wrap(Fraction.__radd__(self, other))

    def __sub__(self, other):
        return _wrap(Fraction.__sub__(self, other))

    def __rsub__(self, other):
        return _wrap(Fraction.__rsub__(self, other))

    def __mul__(self, other):
        return _wrap(Fraction.__mul__(self, other))

    def __rmul__(self, other):
        return _wrap(Fraction.__rmul__(self, other))

    def __truediv__(self, other):
        return _wrap(Fraction.__truediv__(self, other))

    def __rtruediv__(self, other):
        return _wrap(Fraction.__rtruediv__(self, other))

    def __pow__(self, other):
        return _wrap(Fraction.__pow__(self, other))

    def __rpow__(self, other):
        # Fraction.__rpow__ hands a rational base back to ``**``, which
        # would come here again: raise the base to this power directly.
        if isinstance(other, (int, Fraction)):
            return _wrap(Fraction.__pow__(Fraction(other), self))
        return _wrap(Fraction.__rpow__(self, other))

    def __neg__(self):
        return _reduced(-self._numerator, self._denominator)

    def __pos__(self):
        return self

    def __abs__(self):
        return _reduced(abs(self._numerator), self._denominator)

    def __reduce__(self):
        # Python 3.10's Fraction pickles through str(), which for a value
        # like 1/7 is "1/7": not a literal that Sexa(str) parses back.
        return (Sexa, (self._numerator, self._denominator))

    def __str__(self) -> str:
        return render(self, fraction_fallback=True)

    def __format__(self, spec: str) -> str:
        # From Python 3.13 on, Fraction formats an empty spec as p/q.
        return str(self) if not spec else super().__format__(spec)

    def __repr__(self) -> str:
        try:
            return f"Sexa({render(self)!r})"
        except NonTerminating:
            return f"Sexa({self.numerator}, {self.denominator})"


def _split_groups(part: str, text: str) -> list[int]:
    groups = []
    for raw in part.split(","):
        if raw == "":
            raise MalformedLiteral(f"{text!r}: empty digit group")
        if not raw.isascii() or not raw.isdigit():
            raise MalformedLiteral(f"{text!r}: bad digit group {raw!r}")
        if len(raw) > 2:
            raise MalformedLiteral(
                f"{text!r}: digit group {raw!r} is longer than two digits")
        value = int(raw)
        if value > 59:
            raise MalformedLiteral(
                f"{text!r}: digit {value} out of range 0..59")
        groups.append(value)
    return groups


def parse(text: str) -> Sexa:
    """Parse a sexagesimal literal into an exact rational.

    Lenient about non-canonical spellings (leading zero groups, trailing
    fractional zeros, ":" for ";"); strict about the grammar itself.
    """
    if not isinstance(text, str):
        raise MalformedLiteral(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    negative = s.startswith("-")
    if negative:
        s = s[1:]
    if not s:
        raise MalformedLiteral(f"{text!r}: empty literal")
    s = s.replace(":", ";")
    head, sep, tail = s.partition(";")
    if ";" in tail:
        raise MalformedLiteral(f"{text!r}: more than one radix point")
    int_groups = _split_groups(head, text)
    frac_groups = _split_groups(tail, text) if sep else []
    value = 0
    for d in int_groups + frac_groups:
        value = value * 60 + d
    if negative:
        value = -value
    scale = 60 ** len(frac_groups)
    g = math.gcd(value, scale)
    return _reduced(value // g, scale // g)


def _strip_smooth(n: int) -> tuple[int, dict[int, int]]:
    """Divide every factor 2, 3, 5 out of n > 0; return (leftover, exponents).

    Twos go in one shift.  Threes and fives go by repeated squaring of the
    divisor, so p**e costs O(log e) divisions, not e.
    """
    twos = (n & -n).bit_length() - 1
    n >>= twos
    exponents = {2: twos}
    for p in (3, 5):
        count = 0
        while n % p == 0:
            power, k = p, 1
            while n % (power * power) == 0:
                power, k = power * power, k * 2
            n //= power
            count += k
        exponents[p] = count
    return n, exponents


def _smallest_prime_factor(n: int) -> int | None:
    """The smallest prime factor of n > 1, found by trial division.

    The search stops once its divisors pass ``_PRIME_SEARCH_LIMIT`` (at
    the end of that turn of the wheel); then n has only prime factors
    above the limit, and the result is None.
    """
    for p in (2, 3, 5):
        if n % p == 0:
            return p
    f = 7
    while f <= _PRIME_SEARCH_LIMIT:
        for gap in _WHEEL_GAPS:
            if f * f > n:
                return n
            if n % f == 0:
                return f
            f += gap
    return None


def _expansion_exponent(den: int) -> tuple[int, int]:
    """(leftover, k): den without its factors 2, 3, 5, and the smallest k
    with den | 60**k, which exists only when leftover == 1.

    Minimality is what guarantees the canonical no-trailing-zero property
    of the fractional part.
    """
    leftover, exp = _strip_smooth(den)
    return leftover, max((exp[2] + 1) // 2, exp[3], exp[5])


def _digits(f: Fraction, k: int) -> str:
    """Canonical literal of f, for the smallest k with f's denominator
    dividing 60**k (``_expansion_exponent``).

    The form is canonical by construction: a minimal k leaves no trailing
    zero in the fractional part, and padding only up to k + 1 digits
    leaves no leading zero in the integer part.
    """
    scaled = abs(f.numerator) * (60 ** k // f.denominator)
    digits = []
    while scaled >= _CHUNK:
        scaled, chunk = divmod(scaled, _CHUNK)
        for _ in range(5):
            chunk, d = divmod(chunk, 60)
            digits.append(d)
    while scaled:
        scaled, d = divmod(scaled, 60)
        digits.append(d)
    while len(digits) < k + 1:
        digits.append(0)
    digits.reverse()
    point = len(digits) - k
    text = ",".join(map(str, digits[:point]))
    if k:
        text += ";" + ",".join(map(str, digits[point:]))
    return "-" + text if f.numerator < 0 else text


def render(x: SexaLike, fraction_fallback: bool = False) -> str:
    """Canonical sexagesimal literal for x.

    Values without a finite expansion raise NonTerminating; pass
    ``fraction_fallback=True`` to get "p/q" text instead.
    """
    f = _as_fraction(x)
    leftover, k = _expansion_exponent(f.denominator)
    if leftover != 1:
        if fraction_fallback:
            return f"{f.numerator}/{f.denominator}"
        raise NonTerminating(Sexa(f), _smallest_prime_factor(leftover))
    return _digits(f, k)


def halve(x: SexaLike) -> Sexa:
    return Sexa(x) * Sexa(1, 2)


def square(x: SexaLike) -> Sexa:
    x = Sexa(x)
    return x * x


def is_regular(x: SexaLike) -> bool:
    """True iff |x| = 2^a * 3^b * 5^c for integers a, b, c (possibly < 0).

    Equivalently, both the reduced numerator and denominator are 60-smooth,
    so x and 1/x both have finite sexagesimal expansions.
    """
    f = _as_fraction(x)
    if f == 0:
        raise ZeroInput("0 has no regularity status (no reciprocal)")
    return (_strip_smooth(abs(f.numerator))[0] == 1
            and _strip_smooth(f.denominator)[0] == 1)


def reciprocal(x: SexaLike) -> Sexa:
    """The scribe's igi-x: exact 1/x, defined only for regular x."""
    f = _as_fraction(x)
    if f == 0:
        raise ZeroInput("0 has no reciprocal")
    for part in (abs(f.numerator), f.denominator):
        leftover, _ = _strip_smooth(part)
        if leftover != 1:
            raise IrregularDivisor(Sexa(f), _smallest_prime_factor(leftover))
    n, d = f.numerator, f.denominator
    return _reduced(d, n) if n > 0 else _reduced(-d, -n)


def sqrt_exact(x: SexaLike) -> Sexa:
    """The nonnegative y with y*y == x, refusing anything inexact."""
    f = _as_fraction(x)
    if f < 0:
        raise NegativeRadicand(f"square root of negative value {Sexa(f)}")
    num, den = f.numerator, f.denominator
    root_num = math.isqrt(num)
    root_den = math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise NotAPerfectSquare(f"{Sexa(f)} is not the square of a rational")
    return _reduced(root_num, root_den)
