"""Reference base-60 arithmetic on plain ``fractions.Fraction``.

Every expected value the benchmark checks comes from here, never from
sexakit, so a wrong result in the program cannot also become the
reference.  Only the standard library is used.
"""

from __future__ import annotations

from fractions import Fraction

UNIT_SCALE = {"sar60": 3600, "susi": 60}


def strip(n: int, p: int) -> tuple[int, int]:
    """(exponent of p in n, n with every factor p removed); n > 0."""
    e = 0
    while n % p == 0:
        power, k = p, 1
        while n % (power * power) == 0:
            power, k = power * power, k * 2
        n //= power
        e += k
    return e, n


def smooth_part(n: int) -> tuple[dict[int, int], int]:
    """Exponents of 2, 3, 5 in n > 0 and the leftover with none of them."""
    exps = {}
    for p in (2, 3, 5):
        exps[p], n = strip(n, p)
    return exps, n


def is_regular(x: Fraction) -> bool:
    return (smooth_part(abs(x.numerator))[1] == 1
            and smooth_part(x.denominator)[1] == 1)


def smallest_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_prime(n: int) -> bool:
    return n > 1 and smallest_prime_factor(n) == n


def render(x: Fraction) -> str:
    """Canonical literal: no leading zero group, no trailing zero group."""
    exps, rest = smooth_part(x.denominator)
    if rest != 1:
        raise ValueError(f"{x} has no finite base-60 expansion")
    k = max(-(-exps[2] // 2), exps[3], exps[5])
    scaled = abs(x.numerator) * 60 ** k // x.denominator
    digits = []
    while scaled:
        scaled, d = divmod(scaled, 60)
        digits.append(d)
    digits += [0] * (k + 1 - len(digits))
    digits.reverse()
    head, tail = digits[:len(digits) - k], digits[len(digits) - k:]
    text = ",".join(map(str, head))
    if tail:
        text += ";" + ",".join(map(str, tail))
    return ("-" if x < 0 else "") + text


def parse(text: str) -> Fraction:
    negative = text.startswith("-")
    head, _, tail = text.lstrip("-").partition(";")
    n = 0
    for group in head.split(",") + (tail.split(",") if tail else []):
        n = n * 60 + int(group)
    value = Fraction(n, 60 ** (len(tail.split(",")) if tail else 0))
    return -value if negative else value


def groups(text: str) -> int:
    """Number of digit groups in a literal."""
    return text.count(",") + text.count(";") + 1


def quantity(value: Fraction, unit: str) -> str:
    """Text of an answer or given, as the corpus and the report print it."""
    return f"{render(value)} {unit}"


def normalized(value: Fraction, unit: str) -> tuple[Fraction, str]:
    """Input-only volume spellings scaled to volume-sar."""
    if unit in UNIT_SCALE:
        return value * UNIT_SCALE[unit], "volume-sar"
    return value, unit
