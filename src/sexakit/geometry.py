"""Canal cross-sections, volumes and the reserved-water constant.

A canal is a prism: a trapezoidal (or rectangular) cross-section swept
along the canal's length.  Breadths and lengths are nindan, depths kùš,
so a cross-section is a nindan-kus quantity and a volume lands on
volume-sar.  The water a small canal actually holds sits at 0;48 (4/5)
of its depth, a constant attested on another Susa tablet (SMT No. 3,
line 33); everything water-related here is that pure ratio, with no
hydraulics behind it.
"""

from __future__ import annotations

from . import _EXPORTS
from ._record import Record, setfield
from .errors import (
    DimensionMismatch,
    InconsistentConstraint,
    NonPositiveDimension,
    _written,
)
from .procedures import StepTrace
from .sexa import _HALF, Sexa, SexaLike, reciprocal
from .units import Dimension, KUS_PER_NINDAN, Quantity, qdiv, qmul

__all__ = list(_EXPORTS["geometry"])


class CanalConstant(Record):
    """Ratio of reserved-water depth to canal depth (z'/z).

    Attested constants are strictly below 1; ratio = 1 (water to the
    brim) is allowed as the degenerate case.
    """

    __slots__ = ("ratio",)

    def __init__(self, ratio: SexaLike):
        ratio = Sexa(ratio)
        if not 0 < ratio <= 1:
            raise InconsistentConstraint(
                "water level constant must lie in (0, 1]")
        setfield(self, "ratio", ratio)


#: The "constant of a small canal": z'/z = 0;48 = 4/5.
SMALL_CANAL_CONSTANT = CanalConstant(Sexa(4, 5))

#: The breadth rule of the first SMT No. 24 problem: "the excess" 0;30
#: and its share 1/12 (``breadths_from_constraints``).
BREADTH_EXCESS = Sexa(1, 2)
BREADTH_EXCESS_SHARE = Sexa(1, 12)


def _check(q: Quantity, dim: Dimension, name: str) -> None:
    """Raise for the first rule ``q`` breaks: in ``dim``, then positive."""
    if q.dim is not dim:
        raise DimensionMismatch(
            f"{name} must be {dim.value}, got {q.dim.value}")
    if q.magnitude <= 0:
        raise NonPositiveDimension(f"{name} must be positive")


def trapezoid_cross_section(upper: Quantity, lower: Quantity,
                            depth: Quantity) -> Quantity:
    """S = z*(u + v)/2, a nindan-kus cross-section area."""
    _check(upper, Dimension.LENGTH_NINDAN, "upper breadth")
    _check(lower, Dimension.LENGTH_NINDAN, "lower breadth")
    _check(depth, Dimension.LENGTH_KUS, "depth")
    return qmul(depth, upper + lower) * _HALF


def prism_volume(section: Quantity, length: Quantity) -> Quantity:
    """V = x*S: sweep a cross-section along the canal length."""
    _check(section, Dimension.CROSS_SECTION, "cross-section")
    _check(length, Dimension.LENGTH_NINDAN, "length")
    return qmul(length, section)


def breadths_from_constraints(upper: SexaLike, *,
                              excess: SexaLike = BREADTH_EXCESS,
                              excess_share: SexaLike = BREADTH_EXCESS_SHARE,
                              ) -> tuple[Sexa, Sexa]:
    """Lower breadth and depth tied to the upper breadth u.

    The first SMT No. 24 problem assumes v = u/2 + 0;30 and
    z = 12*(0;30 + (u - v)/12); the constants 0;30 ("the excess") and
    1/12 are exposed so near-variant problems can reuse the rule.
    Returns bare numbers: v in nindan, z in kùš.
    """
    u = Sexa(upper)
    excess = Sexa(excess)
    v = u * _HALF + excess
    if u < v:
        raise InconsistentConstraint(
            f"upper breadth {_written(u)} is smaller than the derived lower "
            f"breadth {_written(v)}")
    z = KUS_PER_NINDAN * (excess + Sexa(excess_share) * (u - v))
    return v, z


def length_from_volume(volume: Quantity, section: Quantity) -> Quantity:
    """x = V/S by reciprocal multiplication (S must be regular)."""
    _check(volume, Dimension.VOLUME_SAR, "volume")
    _check(section, Dimension.CROSS_SECTION, "cross-section")
    return qdiv(volume, section)


def depth_from_labor(total_water: Quantity, reach_length: SexaLike,
                     workers: Quantity, width: Quantity,
                     constant: CanalConstant = SMALL_CANAL_CONSTANT,
                     ) -> tuple[Quantity, Quantity, StepTrace]:
    """Depth of a rectangular canal from its water volume and work norms.

    The tablet statement is broken; this follows the restoration implied
    by the surviving arithmetic: a gang of workers digs the canal in
    reaches of ``reach_length`` nindan each, the reserved water comes to
    ``total_water``, the width is given, find the depth.  The chain is
    run in the scribe's order, one reciprocal multiplication per line:
    water per nindan of length, water per worker (equal to the submerged
    cross-section for a 1-nindan slice), full cross-section via the canal
    constant, then depth = section/width and the water depth z' below it.
    """
    _check(total_water, Dimension.VOLUME_SAR, "total water")
    _check(workers, Dimension.WORKER_COUNT, "workers")
    _check(width, Dimension.LENGTH_NINDAN, "width")
    reach = Sexa(reach_length)
    if reach <= 0:
        raise NonPositiveDimension("reach length must be positive")

    trace = StepTrace()
    recip_reach = trace.record("recip_reach", reciprocal(reach))
    per_length = trace.record("water_per_length", total_water * recip_reach)
    trace.record("recip_workers", reciprocal(workers.magnitude))
    per_worker = trace.record("water_per_worker", qdiv(per_length, workers))
    # A 1-nindan slice: the per-worker water volume is numerically the
    # submerged cross-section.
    submerged = qdiv(per_worker, Quantity(1, Dimension.LENGTH_NINDAN))
    recip_constant = trace.record("recip_canal_constant",
                                  reciprocal(constant.ratio))
    section = trace.record("cross_section", submerged * recip_constant)
    trace.record("recip_width", reciprocal(width.magnitude))
    depth = trace.record("depth", qdiv(section, width))
    water_depth = trace.record("water_depth", depth * constant.ratio)
    return depth, water_depth, trace
