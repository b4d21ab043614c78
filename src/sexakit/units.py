"""Babylonian metrology: dimensioned quantities and their algebra.

Horizontal lengths are measured in nindan, depths in kùš (1 nindan =
12 kùš), areas in sar (nindan x nindan) and volumes in volume-sar
(nindan x nindan x kùš).  A canal cross-section mixes a nindan breadth
with a kùš depth; that product gets its own dimension ("nindan-kus") so
that cross-section x length lands exactly on volume-sar.  Worker gangs
are a dimension too, which keeps volume-per-worker divisions honest.

Large volumes on the tablets come in šár (3600 volume-sar, spelled
``sar60`` here) and šūši (60 volume-sar, spelled ``susi``); both are
input spellings only and normalize to volume-sar.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._record import Record, setfield
from .errors import DimensionMismatch, MalformedLiteral, ZeroDivisor
from .sexa import Sexa, SexaLike, parse, reciprocal, render

__all__ = [
    "Dimension",
    "Quantity",
    "KUS_PER_NINDAN",
    "qmul",
    "qdiv",
    "sar_to_volume_sar",
    "parse_quantity",
]

KUS_PER_NINDAN = Sexa(12)


class Dimension(Enum):
    """Metrological dimensions; the value is the unit's text spelling."""

    LENGTH_NINDAN = "nindan"
    LENGTH_KUS = "kus"
    AREA_SAR = "sar"
    VOLUME_SAR = "volume-sar"
    CROSS_SECTION = "nindan-kus"
    WORKER_COUNT = "workers"
    DIMENSIONLESS = "1"


_N = Dimension.LENGTH_NINDAN
_K = Dimension.LENGTH_KUS
_A = Dimension.AREA_SAR
_V = Dimension.VOLUME_SAR
_X = Dimension.CROSS_SECTION
_W = Dimension.WORKER_COUNT

# Closed multiplication table (commutative; dimensionless handled apart).
_MUL: dict[tuple[Dimension, Dimension], Dimension] = {}


def _rule(a: Dimension, b: Dimension, result: Dimension) -> None:
    _MUL[(a, b)] = result
    _MUL[(b, a)] = result


_rule(_N, _N, _A)
_rule(_A, _K, _V)
_rule(_N, _K, _X)
_rule(_X, _N, _V)
_rule(_W, _V, _V)       # volume-per-worker times workers is a volume

# Quotient table: (dividend, divisor) -> the one dimension whose product
# with the divisor's is the dividend's.  No pair has two.
_DIV = {(result, b): r for (b, r), result in _MUL.items()}

_UNIT_TO_DIM = {d.value: d for d in Dimension}
# The spellings of a volume and their scale into volume-sar; the CLI's
# --unit offers them in this order.
_VOLUME_ALIASES = {"volume-sar": Sexa(1), "sar60": Sexa(3600), "susi": Sexa(60)}


class Quantity(Record):
    """An exact magnitude tagged with a dimension."""

    __slots__ = ("magnitude", "dim")

    def __init__(self, magnitude: SexaLike, dim: Dimension):
        magnitude = Sexa(magnitude)
        if not isinstance(dim, Dimension):
            raise DimensionMismatch(f"not a dimension: {dim!r}")
        setfield(self, "magnitude", magnitude)
        setfield(self, "dim", dim)

    def __add__(self, other: "Quantity") -> "Quantity":
        if not isinstance(other, Quantity):
            return NotImplemented
        if self.dim is not other.dim:
            raise DimensionMismatch(
                f"cannot add {self.dim.value} to {other.dim.value}")
        return Quantity(self.magnitude + other.magnitude, self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return qmul(self, other)
        if isinstance(other, (int, Fraction)):
            return Quantity(self.magnitude * Sexa(other), self.dim)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{render(self.magnitude)} {self.dim.value}"


def qmul(a: Quantity, b: Quantity) -> Quantity:
    """Multiply two quantities under the closed dimension table."""
    if a.dim is Dimension.DIMENSIONLESS:
        return Quantity(a.magnitude * b.magnitude, b.dim)
    if b.dim is Dimension.DIMENSIONLESS:
        return Quantity(a.magnitude * b.magnitude, a.dim)
    result = _MUL.get((a.dim, b.dim))
    if result is None:
        raise DimensionMismatch(
            f"no product defined for {a.dim.value} x {b.dim.value}")
    return Quantity(a.magnitude * b.magnitude, result)


def qdiv(a: Quantity, b: Quantity) -> Quantity:
    """Scribal division of quantities: multiply by the divisor's reciprocal.

    The result dimension is the unique one whose product with the divisor's
    gives the dividend's (same-dimension division is dimensionless).
    Raises IrregularDivisor when the divisor magnitude is not regular.
    """
    if b.magnitude == 0:
        raise ZeroDivisor("division by a zero quantity")
    if a.dim is b.dim:
        out = Dimension.DIMENSIONLESS
    elif b.dim is Dimension.DIMENSIONLESS:
        out = a.dim
    else:
        out = _DIV.get((a.dim, b.dim))
        if out is None:
            raise DimensionMismatch(
                f"no quotient defined for {a.dim.value} / {b.dim.value}")
    return Quantity(a.magnitude * reciprocal(b.magnitude), out)


def sar_to_volume_sar(count: SexaLike, unit: str = "volume-sar") -> Quantity:
    """Normalize a volume given in šár/šūši/volume-sar to volume-sar."""
    if unit not in _VOLUME_ALIASES:
        *rest, last = sorted(_VOLUME_ALIASES)
        raise MalformedLiteral(f"unknown volume unit {unit!r} "
                               f"(expected {', '.join(rest)} or {last})")
    return Quantity(Sexa(count) * _VOLUME_ALIASES[unit], Dimension.VOLUME_SAR)


def parse_quantity(text: str) -> Quantity:
    """Parse the "<literal> <unit>" text form, e.g. "0;30 nindan"."""
    parts = text.split()
    if len(parts) != 2:
        raise MalformedLiteral(
            f"{text!r}: expected '<literal> <unit>'")
    literal, unit = parts
    magnitude = parse(literal)
    dim = _UNIT_TO_DIM.get(unit)
    if dim is not None:
        return Quantity(magnitude, dim)
    if unit in _VOLUME_ALIASES:
        return sar_to_volume_sar(magnitude, unit)
    raise MalformedLiteral(f"{text!r}: unknown unit {unit!r}")
