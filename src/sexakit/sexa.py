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

Cost model, for a value of n digit groups.  ``parse`` checks the whole
literal with one compiled regex match and folds every group into one
integer; only a literal the regex refuses is walked group by group, to
name its first fault.  ``render``, the one path from a value to its
literal (``str``, ``format`` and ``repr`` call it), peels five digits
per big-integer division, then joins the integer and the fractional
groups into the text once each.  Its output language is one regex too,
``_CANONICAL``: a literal that matches it is already the text ``render``
would write for its value, so a caller holding such a literal (a corpus
expectation) can print it without rendering.  Stripping 2, 3 and 5
(``is_regular``, ``reciprocal``) takes one shift and O(log e) divisions
per prime power p**e.  So the Python-level work is at most one step per
group, but each step's big-integer arithmetic is linear in the length of
the number: all three keep a quadratic term, and doubling n at a few
thousand groups costs 3x to 4x.  Rejecting an irregular number is the
exception: naming the prime in ``IrregularDivisor``/``NonTerminating``
trial-divides the non-smooth part m by the integers coprime to 30, up to
its smallest prime p, up to sqrt(m) when m is prime, or up to
``_PRIME_SEARCH_LIMIT`` (10**6), whichever comes first: at most about
270 000 divisions, each linear in the length of m.  Past the limit the
error names no prime (``.prime`` is None).

Small values (a few groups, as in a tablet replay) cost bookkeeping more
than arithmetic, so ``Sexa`` does its own.  When the other operand is a
Sexa, a Fraction or an int (bool included), ``+ - * /``, their reflected
forms and ``== < <= > >=`` read its two terms directly (a ``type(x) is``
test first, then ``isinstance``) and compute on integers, reducing as
``Fraction``'s operators do: cross gcds for a product or quotient, one
gcd of the denominators and one more for a sum or difference.
``_reduced`` then sets the result's two slots directly, with no second
normalization and no throwaway ``Fraction``.  Any other operand goes to
``Fraction``'s own method, so a float raises ``TypeError`` in arithmetic
and compares as it does with a ``Fraction``, and an unknown type gets
``NotImplemented``.  Negation, ``abs``, ``reciprocal`` (which swaps the
terms), ``sqrt_exact`` (roots of coprime squares are coprime), ``parse``
(one gcd) and ``Sexa(fraction)`` build their results the same way, and
``Sexa(sexa)`` is its argument.  The functions that take a ``SexaLike``
use a ``Fraction`` argument as it is.  Nothing is cached between calls.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import (
    IrregularDivisor,
    MalformedLiteral,
    NegativeRadicand,
    NonTerminating,
    NotAPerfectSquare,
    UnwritableValue,
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
    return x if type(x) is Sexa or isinstance(x, Fraction) else Fraction(x)


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


# Kernels on the terms of two values in lowest terms, na/da and nb/db
# with da, db > 0.  Each reduces as Fraction's own operators do (Knuth,
# TAOCP 4.5.1), so its result is in lowest terms.

def _add(na: int, da: int, nb: int, db: int) -> Sexa:
    g = math.gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    return _reduced(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> Sexa:
    return _add(na, da, -nb, db)


def _mul(na: int, da: int, nb: int, db: int) -> Sexa:
    g1 = math.gcd(na, db)
    g2 = math.gcd(nb, da)
    return _reduced((na // g1) * (nb // g2), (db // g1) * (da // g2))


def _div(na: int, da: int, nb: int, db: int) -> Sexa:
    if nb == 0:
        raise ZeroDivisionError("division by zero")
    if nb < 0:
        na, nb = -na, -nb
    return _mul(na, da, db, nb)


def _eq(na: int, da: int, nb: int, db: int) -> bool:
    return na == nb and da == db


def _lt(na: int, da: int, nb: int, db: int) -> bool:
    return na * db < nb * da


def _le(na: int, da: int, nb: int, db: int) -> bool:
    return na * db <= nb * da


def _operators(kernel, fraction_forward, fraction_reverse, wrap=_wrap):
    """The methods for ``a op b`` with a Sexa on the left and on the right.

    With a Sexa, Fraction or int (bool included) as the other operand,
    both compute ``kernel`` on the two values' terms.  Any other operand
    goes to the Fraction method, and its result through ``wrap``.
    """
    def forward(a, b):
        t = type(b)
        if t is Sexa or t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        if isinstance(b, (int, Fraction)):
            return kernel(a._numerator, a._denominator,
                          b.numerator, b.denominator)
        return wrap(fraction_forward(a, b))

    def reverse(b, a):
        t = type(a)
        if t is Sexa or t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        if isinstance(a, (int, Fraction)):
            return kernel(a.numerator, a.denominator,
                          b._numerator, b._denominator)
        return wrap(fraction_reverse(b, a))

    for method, fraction_method in ((forward, fraction_forward),
                                    (reverse, fraction_reverse)):
        method.__name__ = fraction_method.__name__
        method.__qualname__ = f"Sexa.{method.__name__}"
    return forward, reverse


def _unwrapped(value):
    """A comparison's result, as Fraction's comparison gave it."""
    return value


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
    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__)

    # b > a is a < b: the reflected form of < is >, and of <= is >=.
    __lt__, __gt__ = _operators(_lt, Fraction.__lt__, Fraction.__gt__,
                                _unwrapped)
    __le__, __ge__ = _operators(_le, Fraction.__le__, Fraction.__ge__,
                                _unwrapped)
    __eq__ = _operators(_eq, Fraction.__eq__, Fraction.__eq__, _unwrapped)[0]
    # A class body that defines __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

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
            text = render(self, fraction_fallback=True)
        except UnwritableValue as exc:
            return f"<Sexa: {exc}>"
        if "/" in text:                 # p/q: no base-60 literal
            return f"Sexa({text.replace('/', ', ')})"
        return f"Sexa({text!r})"


#: One digit group as ``parse`` reads it: 0..59 in one or two ASCII digits.
_GROUP = "[0-5]?[0-9]"
#: The grammar ``parse`` accepts, after ``strip``: sign, integer groups,
#: and the fractional groups after ";" or ":".
_LITERAL = re.compile(
    rf"(-?)({_GROUP}(?:,{_GROUP})*)(?:[;:]({_GROUP}(?:,{_GROUP})*))?")
#: A digit as ``render`` writes it (no leading zero), and a nonzero one.
_DIGIT, _NONZERO = "[1-5]?[0-9]", "(?:[1-5][0-9]|[1-9])"
#: The language ``render`` writes: no ":", no leading zero group or digit,
#: no trailing fractional zero, no "-0".  For a literal it matches,
#: ``render(parse(t)) == t``.
_CANONICAL = re.compile(
    rf"0|-?(?:{_NONZERO}(?:,{_DIGIT})*|0(?=;))(?:;(?:{_DIGIT},)*{_NONZERO})?")


def _malformed(text: str, s: str) -> MalformedLiteral:
    """The error for a stripped literal s that ``_LITERAL`` refused: the
    first fault met walking its sign, radix points and digit groups."""
    s = s.removeprefix("-")
    if not s:
        return MalformedLiteral(f"{text!r}: empty literal")
    head, sep, tail = s.replace(":", ";").partition(";")
    if ";" in tail:
        return MalformedLiteral(f"{text!r}: more than one radix point")
    for raw in (head + "," + tail if sep else head).split(","):
        if raw == "":
            return MalformedLiteral(f"{text!r}: empty digit group")
        if not raw.isascii() or not raw.isdigit():
            return MalformedLiteral(f"{text!r}: bad digit group {raw!r}")
        if len(raw) > 2:
            return MalformedLiteral(
                f"{text!r}: digit group {raw!r} is longer than two digits")
        if int(raw) > 59:
            return MalformedLiteral(
                f"{text!r}: digit {int(raw)} out of range 0..59")
    return MalformedLiteral(f"{text!r}: not a sexagesimal literal")


def parse(text: str) -> Sexa:
    """Parse a sexagesimal literal into an exact rational.

    Lenient about non-canonical spellings (leading zero groups, trailing
    fractional zeros, ":" for ";"); strict about the grammar itself.
    """
    if not isinstance(text, str):
        raise MalformedLiteral(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    m = _LITERAL.fullmatch(s)
    if m is None:
        raise _malformed(text, s)
    sign, head, tail = m.groups()
    value = 0
    for d in map(int, (head + "," + tail if tail else head).split(",")):
        value = value * 60 + d
    if sign:
        value = -value
    scale = 60 ** (tail.count(",") + 1) if tail else 1
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
    ``fraction_fallback=True`` to get "p/q" text instead (or
    ``UnwritableValue`` when a term is too long for that text).
    """
    f = _as_fraction(x)
    leftover, k = _expansion_exponent(f.denominator)
    if leftover != 1:
        if not fraction_fallback:
            raise NonTerminating(Sexa(f), _smallest_prime_factor(leftover))
        try:
            return f"{f.numerator}/{f.denominator}"
        except ValueError:      # str(int) refuses more than 4300 digits
            # bits * log10(2) decimal digits, log10(2) = 0.30103...
            bits = max(abs(f.numerator).bit_length(),
                       f.denominator.bit_length())
            raise UnwritableValue(bits * 30103 // 100000 + 1) from None
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
