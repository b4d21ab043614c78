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

Every value here is immutable and every function pure (the tables kept
between calls hold constants, see below); values are safe to share
between threads.

Cost model, for a value of n digit groups.  ``parse`` reads a literal
in one pass, with no regex: it strips it, takes off one leading "-",
splits it at its one radix point and its groups at ",", and reads each
group's value from ``_GROUP_VALUES`` into one byte.  A group that is not
a key there (an empty group, a second radix point, any other text)
makes the literal malformed, and only then is it walked group by group
to name its first fault.  Up to eight digits are folded one by one.
Longer digits are folded eight at a time inside one integer that holds
a digit in each byte (``_octets``): three word-parallel rounds over the
whole integer join neighbouring lanes of 1, 2 and 4 bytes as
high*60**w + low.  The eight-digit words are then folded in rounds
that pair neighbours as a*base + b and square the base, until at most
eight values are left to fold one by one.  A fractional part of k
groups is reduced by one gcd of the value with 60**k.  ``render``,
the one path from a value to its literal (``str``, ``format`` and
``repr`` call it), splits the scaled value into its integer and
fractional parts and writes each from the low end, four digits per
division by 60**4 (one CPython digit), as two entries of
``_DIGIT_PAIRS``; a part longer than 512 digits is first split in halves
at 60**(m//2), and each half written the same way.  Its output language
is one regex, ``_CANONICAL``: a literal that matches it is already
the text ``render`` would write for its value, so a caller holding such
a literal (a corpus expectation) can print it without rendering.  The
fold and the split make each big-integer product or quotient one of two
numbers of about one size.  So the time of ``parse`` of an integer
literal grows about 2.5-3x per doubling of its random groups (Karatsuba
products).  The gcd is quadratic: a literal of as many fractional
groups grows about 4x per doubling.  ``render`` still grows about 3.8x
per doubling, because the long division of 3.11 is schoolbook (about
3x on 3.12 and 3.13).  Wall-clock timings drift with the machine
and the interpreter, so they are kept with their hardware in ROADMAP.md
(item 4), not here.  ``render`` strips 2, 3 and 5 with ``_smooth``,
which gives (rough, k), the number without those factors and the least
k with its 60-smooth part dividing 60**k: the number of fractional
digits to write, which only the valuations give.  It takes one shift
and O(log e) divisions per prime power p**e, each linear in the length
of the number, so it keeps a quadratic term.  ``is_regular``,
``reciprocal`` and recognition's quotient test need only the rough
part, from ``_rough``: one shift for the twos, two remainders for an
odd part m with no factor 3 or 5, else, for m of b bits, one modular
power ``pow(15, b, m)`` and one gcd, a few products of the length of
m.  Past ``_POWER_BITS`` (1600 bits) ``_smooth`` answers instead, since
there its valuations can be the faster (measured on 3.11-3.13, see
CHANGES.md).
Rejecting an irregular number is the exception: naming the prime in
``IrregularDivisor``/``NonTerminating`` searches the rough part m for
its smallest prime p, up to sqrt(m) when m is prime, or up to
``_LAST_CANDIDATE`` (1000021, just past ``_PRIME_SEARCH_LIMIT``,
10**6), whichever comes first.  It takes one gcd of m with the product
of the primes in each block [lo, hi) of integers (30, 60, 120, ...
integers from 7, then 3840 at a time): at most 267 gcds, each of m and
a product of at most about 6 100 bits, then at most one walk of the odd
integers of one block that divides the shared factor, not m.  An m
below 1000021**2 that no prime up to 1000021 divides is prime and is
named itself; any other m past the search names no prime (``.prime``
is None).

Small values (a few groups, as in a tablet replay) cost bookkeeping more
than arithmetic, so ``Sexa`` does its own.  When the other operand's
type is exactly Sexa, Fraction or int, ``+ - * /``, their reflected
forms and ``== < <= > >=`` read its two terms directly (after one
``type(x) is`` test each) and compute on integers, reducing as
``Fraction``'s operators do: cross gcds for a product or quotient, one
gcd of the denominators and one more for a sum or difference.
``_reduced`` then sets the result's two slots directly, with no second
normalization and no throwaway ``Fraction``.  Any other operand (a bool,
a subclass) goes to ``Fraction``'s own method with the Sexa as a plain
``Fraction`` (a float comparison there calls ``from_float``, which
``Sexa`` refuses).  Its result goes through ``_wrap``, as do those of
``%``, ``//``, ``divmod``, ``**``, ``round`` and ``limit_denominator``:
a Fraction comes back as a Sexa, a float raises ``TypeError``, and a
bool, an int or ``NotImplemented`` is as Fraction gave it.  A power
with a non-integer rational exponent, which Fraction would take in
floats, raises ``TypeError`` before it runs.  Negation,
``abs``, ``reciprocal`` (which swaps the terms), ``sqrt_exact`` (roots
of coprime squares are coprime), ``parse`` (one gcd) and
``Sexa(fraction)`` build their results the same way, and ``Sexa(sexa)``
is its argument.  The functions that take a ``SexaLike`` build their
argument with ``Sexa()``, so each refuses a float, parses a literal
string and refuses a NaN or infinite ``Decimal`` with
``MalformedLiteral``, as ``Sexa.from_decimal`` does.

Four tables are kept between calls.  Three are built at import:
``_GROUP_VALUES``, the value of each of the 70 group spellings the
grammar accepts ("0".."59" and "00".."09"), ``_DIGIT_PAIRS``, the 3600
texts "0,0" to "59,59" (about 220 KiB), and ``_SIEVING_PRIMES``, the 168
primes up to 1000.  The fourth, ``_BLOCK_PRODUCTS``, is empty at import.
It holds the product of the primes in each block, found by a segmented
sieve of the block by ``_SIEVING_PRIMES``.  A block's product is built
the first time a search reaches that block, so a search that stops at p
builds only the blocks up to p.  All 267 products together take about
180 KB.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import struct
from decimal import Decimal
from fractions import Fraction

from . import _EXPORTS
from .errors import (
    IrregularDivisor,
    MalformedLiteral,
    NegativeRadicand,
    NonTerminating,
    NotAPerfectSquare,
    UnwritableValue,
    ZeroInput,
    _written,
)

__all__ = list(_EXPORTS["sexa"])

#: Every prime up to this limit is named in an error.  The search stops
#: at ``_LAST_CANDIDATE``, where the wheel search it replaced stopped.
_PRIME_SEARCH_LIMIT = 10 ** 6
_LAST_CANDIDATE = 1000021
#: The prime search's blocks [lo, hi), each with lo*lo >= hi: 30, 60,
#: 120, ... integers wide from 7, then 3840 at a time.  The last one
#: ends at 1000027, as the wheel search's did: no prime lies between
#: ``_LAST_CANDIDATE`` and it.
_BLOCKS = tuple(itertools.pairwise(
    (7, 37, 97, 217, 457, 937, 1897, 3817,
     *range(7657, _LAST_CANDIDATE, 3840), _LAST_CANDIDATE + 6)))
#: The product of the primes in each block, keyed by its lo: a constant
#: of the search, built the first time a search reaches its block.  This
#: is the only table that changes after import.
_BLOCK_PRODUCTS: dict[int, int] = {}


def _sieve(lo: int, hi: int, primes: list[int]) -> list[int]:
    """The primes in [lo, hi), for lo >= 2, by a sieve of Eratosthenes of
    that segment alone: ``primes`` holds, ascending, every prime p with
    p*p < hi."""
    n = hi - lo
    sieve = bytearray([1]) * n
    for p in primes:
        if p * p >= hi:
            break
        # Strike the multiples of p from p*p on (a smaller one has a
        # smaller prime factor), the first at or after lo.
        i = max(p * p - lo, -lo % p)
        sieve[i::p] = bytes(len(range(i, n, p)))
    return list(itertools.compress(range(lo, hi), sieve))


#: The primes up to 1000, which sieve every block: each composite below
#: the last block's hi, 1000027 < 1009**2, has a prime factor among them.
_SIEVING_PRIMES = _sieve(2, 1001, _sieve(2, 32, [2, 3, 5]))


def _reduced(n: int, d: int) -> Sexa:
    """The Sexa n/d, for n/d already in lowest terms with d > 0.

    Sets ``Fraction``'s two slots directly, skipping the gcd and the type
    checks of ``Fraction.__new__``.  Callers own the lowest-terms promise.
    """
    value = object.__new__(Sexa)
    value._numerator = n
    value._denominator = d
    return value


def _wrap(value):
    """A Fraction method's result as Sexa's gives it: a Fraction as a
    Sexa, a tuple (divmod's) item by item, a float or complex (Fraction's
    fallback for mixed arithmetic) refused, anything else as it is."""
    if isinstance(value, Fraction):
        return _reduced(value._numerator, value._denominator)
    if isinstance(value, tuple):
        return tuple(map(_wrap, value))
    if isinstance(value, (float, complex)):
        raise TypeError("Sexa arithmetic does not mix with floats")
    return value


def _closed(method):
    """Fraction's ``method`` as Sexa's: its result through ``_wrap``."""
    def closed(*args, **kwargs):
        return _wrap(method(*args, **kwargs))
    closed.__name__ = method.__name__
    closed.__qualname__ = f"Sexa.{method.__name__}"
    return closed


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


def _operators(kernel, fraction_forward, fraction_reverse):
    """The methods for ``a op b`` with a Sexa on the left and on the right.

    When the other operand's type is exactly Sexa, Fraction or int, both
    compute ``kernel`` on the two values' terms.  Any other operand (a
    bool or a subclass too) goes to the Fraction method, with the Sexa
    as a plain Fraction, and its result through ``_wrap``.
    """
    def forward(a, b):
        t = type(b)
        if t is Sexa or t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return _wrap(fraction_forward(Fraction(a), b))

    def reverse(b, a):
        t = type(a)
        if t is Sexa or t is Fraction:
            return kernel(a._numerator, a._denominator,
                          b._numerator, b._denominator)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        return _wrap(fraction_reverse(Fraction(b), a))

    for method, fraction_method in ((forward, fraction_forward),
                                    (reverse, fraction_reverse)):
        method.__name__ = fraction_method.__name__
        method.__qualname__ = f"Sexa.{method.__name__}"
    return forward, reverse


class Sexa(Fraction):
    """Exact signed rational with canonical sexagesimal rendering.

    ``Sexa("21,9;8,26,15")`` parses a literal; ``Sexa(9, 64)`` builds the
    fraction 9/64 directly.  Arithmetic stays exact: ``+ - * / % **``,
    their reflected forms, negation, ``abs``, ``divmod``'s remainder,
    ``round(x, n)`` and ``limit_denominator`` give a Sexa again, and
    ``//`` and ``round(x)`` an int.  A float is refused there, by
    ``Sexa(1.5)`` and by ``from_float``, and so is a non-integer power
    (``sqrt_exact`` takes the scribal root): this type never
    approximates.  So Fraction's float comparison, which calls
    ``from_float``, is handed the value as a plain ``Fraction``.
    ``from_decimal`` refuses a NaN or infinity, as ``Sexa()`` does.
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
            if isinstance(value, Decimal) and not value.is_finite():
                raise MalformedLiteral(f"{value!r}: not a finite number")
        return super().__new__(cls, value, denominator)

    # Closed arithmetic: every result is a Sexa again.
    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__)

    # b > a is a < b: the reflected form of < is >, and of <= is >=.
    __lt__, __gt__ = _operators(_lt, Fraction.__lt__, Fraction.__gt__)
    __le__, __ge__ = _operators(_le, Fraction.__le__, Fraction.__ge__)
    __eq__ = _operators(_eq, Fraction.__eq__, Fraction.__eq__)[0]
    # A class body that defines __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

    # The rest of Fraction's arithmetic, closed the same way.  Floor
    # division and round() with no digits give an int, as Fraction's do.
    (__mod__, __rmod__, __divmod__, __rdivmod__, __floordiv__,
     __rfloordiv__, __round__, limit_denominator) = map(_closed, (
        Fraction.__mod__, Fraction.__rmod__, Fraction.__divmod__,
        Fraction.__rdivmod__, Fraction.__floordiv__, Fraction.__rfloordiv__,
        Fraction.__round__, Fraction.limit_denominator))

    def __pow__(self, other):
        # Fraction takes a power with a non-integer rational exponent in
        # floats, so that is refused before it runs.
        if isinstance(other, Fraction) and other._denominator != 1:
            raise TypeError("a non-integer power is not exact; "
                            "sqrt_exact takes the scribal root")
        return _wrap(Fraction.__pow__(self, other))

    def __rpow__(self, other):
        # Fraction.__rpow__ hands a rational base back to ``**``, which
        # would come here again: raise the base to this power directly.
        if isinstance(other, (int, Fraction)):
            return Sexa.__pow__(Fraction(other), self)
        return _wrap(Fraction.__rpow__(self, other))

    @classmethod
    def from_float(cls, f):
        if isinstance(f, float):
            return cls(f)               # refused, as Sexa(1.5) is
        return super().from_float(f)

    @classmethod
    def from_decimal(cls, dec):
        if isinstance(dec, Decimal):
            return cls(dec)             # refuses a NaN, as Sexa() does
        return super().from_decimal(dec)

    def __neg__(self):
        return _reduced(-self._numerator, self._denominator)

    def __pos__(self):
        return self

    def __abs__(self):
        return _reduced(abs(self._numerator), self._denominator)

    def __str__(self) -> str:
        return render(self, fraction_fallback=True)

    # An empty spec is str(); any other spec is refused, as Fraction's
    # spec handling differs between versions and can round.
    __format__ = object.__format__

    def __repr__(self) -> str:
        try:
            text = render(self, fraction_fallback=True)
        except UnwritableValue as exc:
            return f"<Sexa: {exc}>"
        if "/" in text:                 # p/q: no base-60 literal
            return f"Sexa({text.replace('/', ', ')})"
        return f"Sexa({text!r})"


SexaLike = Sexa | Fraction | int

#: A digit as ``render`` writes it (no leading zero), and a nonzero one.
_DIGIT, _NONZERO = "[1-5]?[0-9]", "(?:[1-5][0-9]|[1-9])"
#: The language ``render`` writes: no ":", no leading zero group or digit,
#: no trailing fractional zero, no "-0".  For a literal it matches,
#: ``render(parse(t)) == t``.
_CANONICAL = re.compile(
    rf"0|-?(?:{_NONZERO}(?:,{_DIGIT})*|0(?=;))(?:;(?:{_DIGIT},)*{_NONZERO})?")
#: The value of each digit group ``parse`` accepts, one or two ASCII
#: digits valued 0..59: "0".."59" and "00".."09", and no other text.
_GROUP_VALUES = {**{f"{d:02}": d for d in range(10)},
                 **{str(d): d for d in range(60)}}
#: The text of each pair of digits a*60 + b, "0,0" to "59,59", as
#: ``render`` writes it.
_DIGIT_PAIRS = tuple(map(",".join, itertools.product(map(str, range(60)),
                                                     repeat=2)))


def _malformed(text: str, s: str) -> MalformedLiteral:
    """The error for a stripped literal s that ``parse`` refused: an
    empty literal, a second radix point, or else the fault of its first
    digit group that ``_GROUP_VALUES`` lacks."""
    s = s.removeprefix("-")
    if not s:
        return MalformedLiteral(f"{text!r}: empty literal")
    head, sep, tail = s.replace(":", ";").partition(";")
    if ";" in tail:
        return MalformedLiteral(f"{text!r}: more than one radix point")
    groups = (head + "," + tail if sep else head).split(",")
    raw = next(g for g in groups if g not in _GROUP_VALUES)
    if raw == "":
        return MalformedLiteral(f"{text!r}: empty digit group")
    if not raw.isascii() or not raw.isdigit():
        return MalformedLiteral(f"{text!r}: bad digit group {raw!r}")
    if len(raw) > 2:
        return MalformedLiteral(
            f"{text!r}: digit group {raw!r} is longer than two digits")
    # One or two ASCII digits that are not a key: "60" to "99".
    return MalformedLiteral(f"{text!r}: digit {int(raw)} out of range 0..59")


def parse(text: str) -> Sexa:
    """Parse a sexagesimal literal into an exact rational.

    Lenient about non-canonical spellings (leading zero groups, trailing
    fractional zeros, ":" for ";"); strict about the grammar itself.
    """
    if not isinstance(text, str):
        raise MalformedLiteral(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    negative = s.startswith("-")
    body = s[1:] if negative else s
    head, point, tail = body.replace(":", ";").partition(";")
    groups = head.split(",")
    scale = 1
    if point:
        fraction = tail.split(",")
        scale = 60 ** len(fraction)
        groups += fraction
    try:
        # A second radix point, a sign or a blank left in a group, and
        # an empty group are each a key missing here.
        digits = bytes(map(_GROUP_VALUES.__getitem__, groups))
    except KeyError:
        raise _malformed(text, s) from None
    values, base = digits, 60
    if len(digits) > 8:
        values, base = _octets(digits), 60 ** 8
        # Fold adjacent values in pairs, a*base + b, squaring the base
        # each round: every product is of two numbers of one size, so
        # the big-integer work is that of a few balanced products, not
        # one pass over the whole number per group.
        while len(values) > 8:
            if len(values) & 1:
                values.insert(0, 0)
            values = list(map(operator.add, map(base.__mul__, values[::2]),
                              values[1::2]))
            base *= base
    value = 0
    for d in values:
        value = value * base + d
    if negative:
        value = -value
    g = math.gcd(value, scale)
    return _reduced(value // g, scale // g)


#: The lanes of ``_octets``' three rounds: their width w in bytes, and
#: eight bytes of the mask that keeps the low lane of each pair of lanes.
_LANES = ((1, b"\0\xff" * 4), (2, b"\0\0\xff\xff" * 2),
          (4, b"\0\0\0\0\xff\xff\xff\xff"))


def _octets(digits: bytes) -> list[int]:
    """Base-60 digits (one a byte, most significant first) as the values
    of their eight-digit words, most significant first; the first word
    takes the digits left over, behind zeros.

    One integer holds every digit in its own byte, and zero bytes in
    front fill it to whole eight-byte words.  Each round joins every
    pair of w-byte lanes as high*60**w + low, in a few big-integer
    operations on the whole integer.  A joined value is below
    60**(2w) < 256**(2w), so no carry crosses into the next pair.  After
    lanes of 1, 2 and 4 bytes each word holds its eight digits' value,
    which ``struct`` reads out big-endian, whatever the host's order.
    """
    size = -(-len(digits) // 8) * 8
    x = int.from_bytes(digits, "big")
    for w, pattern in _LANES:
        mask = int.from_bytes(pattern * (size // 8), "big")
        x = ((x >> 8 * w) & mask) * 60 ** w + (x & mask)
    return list(struct.unpack(f">{size // 8}Q", x.to_bytes(size, "big")))


def _smooth(n: int) -> tuple[int, int]:
    """(rough, k) for n > 0: rough is n without its factors 2, 3 and 5,
    and k is the least k with n // rough dividing 60**k.

    Twos go in one shift.  Threes and fives go by repeated squaring of the
    divisor, so p**e costs O(log e) divisions, not e.  For n // rough =
    2**a * 3**b * 5**c, k is max(ceil(a/2), b, c): 60 = 2**2 * 3 * 5.
    """
    twos = (n & -n).bit_length() - 1
    n >>= twos
    k = (twos + 1) // 2
    for p in (3, 5):
        count = 0
        while n % p == 0:
            power, e = p, 1
            while n % (power * power) == 0:
                power, e = power * power, e * 2
            n //= power
            count += e
        k = max(k, count)
    return n, k


#: The longest odd part, in bits, that ``_rough`` strips by a modular
#: power.  Over odd parts that are powers of 3, of 5, products of both,
#: and such products times 7, the power was the faster on 3.11, 3.12 and
#: 3.13 up to here, and slower first on powers of 3, from 3**1024 (1624
#: bits) on; CHANGES.md has the table.
_POWER_BITS = 1600


def _rough(n: int) -> int:
    """n > 0 without its factors 2, 3 and 5: ``_smooth(n)[0]``, without
    the valuations.

    The twos go in one shift.  An odd part m with neither 3 nor 5 as a
    factor is its own rough part.  Else let m = 3**i * 5**j * r, of b
    bits.  3**i and 5**j are at most m < 2**b, so both divide 15**b and
    so its residue mod m, which is prime to r as 15**b is: the gcd of m
    and that residue is 3**i * 5**j.  One modular power and one gcd
    decide it, a few products of the length of m.  An m longer than
    ``_POWER_BITS`` goes to ``_smooth``, whose valuations can be the
    faster there.
    """
    odd = n >> ((n & -n).bit_length() - 1)
    if odd % 3 and odd % 5:
        return odd
    bits = odd.bit_length()
    if bits > _POWER_BITS:
        return _smooth(odd)[0]
    return odd // math.gcd(odd, pow(15, bits, odd))


def _smallest_prime_factor(n: int) -> int | None:
    """The smallest prime factor of n > 1 coprime to 30 (a rough part
    from ``_rough`` or ``_smooth``), found by a blockwise search.

    One gcd of n with the product of the primes in each block in turn.
    The first block that shares a factor with n holds n's smallest prime
    p.  That shared factor g has no prime below the block's lo (an
    earlier block would have shared it), so g is p itself when g <
    lo*lo; else g is walked odd integer by odd integer.  The search
    stops with n at the first block with lo*lo > n (then n is prime).
    Past ``_LAST_CANDIDATE`` it gives n when n < _LAST_CANDIDATE**2 (n
    is prime), else None: then n has only prime factors above
    ``_PRIME_SEARCH_LIMIT``.
    """
    for lo, hi in _BLOCKS:
        if lo * lo > n:
            return n
        product = _BLOCK_PRODUCTS.get(lo)
        if product is None:
            # Racing threads build the same value: whichever stores
            # first wins, and every caller gets an equal product.
            product = _BLOCK_PRODUCTS.setdefault(
                lo, math.prod(_sieve(lo, hi, _SIEVING_PRIMES)))
        g = math.gcd(n, product)
        if g > 1:
            if g < lo * lo:
                return g
            # g is the odd product of the block's primes that divide n.
            # A composite c < hi has a prime factor below sqrt(hi) <= lo,
            # which g lacks, so the first odd c that divides g is the
            # least of them.
            for c in range(lo | 1, hi, 2):
                if g % c == 0:
                    return c
    return n if n < _LAST_CANDIDATE * _LAST_CANDIDATE else None


def _groups(n: int, m: int) -> str:
    """The m base-60 digits of 0 <= n < 60**m, zero-padded, as render
    writes them ("0,5,30" for m = 3 and n = 330).

    Up to 512 digits, n is cut from the low end into chunks of four
    digits (60**4 < 2**30: one CPython digit per division), each written
    as two entries of ``_DIGIT_PAIRS``.  A longer n is split at
    60**(m//2) and each half written the same way.
    """
    if m > 512:
        half = m // 2
        high, low = divmod(n, 60 ** half)
        return _groups(high, m - half) + "," + _groups(low, half)
    pairs = []
    for _ in range((m + 3) // 4):
        n, chunk = divmod(n, 60 ** 4)
        high, low = divmod(chunk, 3600)
        pairs.append(_DIGIT_PAIRS[low])
        pairs.append(_DIGIT_PAIRS[high])
    pairs.reverse()
    # The chunks wrote 0 to 3 zero digits too many, "0," each.
    return ",".join(pairs)[-m % 4 * 2:]


def _digits(f: Fraction, k: int) -> str:
    """Canonical literal of f, for the smallest k with f's denominator
    dividing 60**k (the k of ``_smooth``).

    The form is canonical by construction: a minimal k leaves no trailing
    zero in the fractional part, written in exactly k digits, and the
    integer part is written without its leading zero groups.
    """
    power = 60 ** k
    whole, frac = divmod(abs(f.numerator) * (power // f.denominator), power)
    # 60**m > whole for m >= bits / log2(60), and log2(60) > 5.9068.
    m = whole.bit_length() * 10000 // 59068 + 1
    # Past its leading zero groups, "0,", the text starts with a digit
    # 1..9: no other digit is written with a leading 0.
    text = _groups(whole, m).lstrip("0,") or "0"
    if k:
        text += ";" + _groups(frac, k)
    return "-" + text if f.numerator < 0 else text


def render(x: SexaLike, fraction_fallback: bool = False) -> str:
    """Canonical sexagesimal literal for x.

    Values without a finite expansion raise NonTerminating; pass
    ``fraction_fallback=True`` to get "p/q" text instead (or
    ``UnwritableValue`` when a term is too long for that text).
    """
    f = Sexa(x)
    rough, k = _smooth(f.denominator)
    if rough != 1:
        if not fraction_fallback:
            raise NonTerminating(f, _smallest_prime_factor(rough))
        try:
            return f"{f.numerator}/{f.denominator}"
        except ValueError:      # str(int) refuses more than 4300 digits
            # bits * log10(2) decimal digits, log10(2) = 0.30103...
            bits = max(abs(f.numerator).bit_length(),
                       f.denominator.bit_length())
            raise UnwritableValue(bits * 30103 // 100000 + 1) from None
    return _digits(f, k)


#: 1/2, built once for ``halve`` and the canal formulas in ``geometry``.
_HALF = _reduced(1, 2)


def halve(x: SexaLike) -> Sexa:
    return Sexa(x) * _HALF


def square(x: SexaLike) -> Sexa:
    x = Sexa(x)
    return x * x


def is_regular(x: SexaLike) -> bool:
    """True iff |x| = 2^a * 3^b * 5^c for integers a, b, c (possibly < 0).

    Equivalently, both the reduced numerator and denominator are 60-smooth,
    so x and 1/x both have finite sexagesimal expansions.
    """
    f = Sexa(x)
    if f == 0:
        raise ZeroInput("0 has no regularity status (no reciprocal)")
    return _rough(abs(f.numerator) * f.denominator) == 1


def reciprocal(x: SexaLike) -> Sexa:
    """The scribe's igi-x: exact 1/x, defined only for regular x."""
    f = Sexa(x)
    if f == 0:
        raise ZeroInput("0 has no reciprocal")
    # One strip of the two terms' product: its rough part holds the
    # smallest prime factor of either.
    rough = _rough(abs(f.numerator) * f.denominator)
    if rough != 1:
        raise IrregularDivisor(f, _smallest_prime_factor(rough))
    n, d = f.numerator, f.denominator
    return _reduced(d, n) if n > 0 else _reduced(-d, -n)


def sqrt_exact(x: SexaLike) -> Sexa:
    """The nonnegative y with y*y == x, refusing anything inexact."""
    f = Sexa(x)
    if f < 0:
        raise NegativeRadicand(f"square root of negative value {_written(f)}")
    num, den = f.numerator, f.denominator
    root_num = math.isqrt(num)
    root_den = math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise NotAPerfectSquare(
            f"{_written(f)} is not the square of a rational")
    return _reduced(root_num, root_den)
