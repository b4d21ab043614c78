"""Scribal solution procedures, each emitting a step-by-step trace.

The tablets narrate their arithmetic as a chain of "you see N" lines.
``StepTrace`` captures that cadence: an ordered list of labelled exact
values, so a replay can be checked value by value against the source.

Two solution methods are implemented the way the scribes ran them:

* completing the square for A*u^2 - B*u = C, keeping the "false area"
  scaling by A (the equation is multiplied through by A, never normalized
  to monic form) and taking only the additive root, as the texts do;
* the sum-difference method recovering x >= y from x - y and x*y via
  (x+y)/2 = sqrt(((x-y)/2)^2 + xy).

``replay_smt24_p2`` chains them for the two holes of SMT No. 24: it
reduces that system to xy by recognition, then splits x and y by the
sum-difference method.

``divide_by_recognition`` models quotients the scribe simply announces
for an irregular divisor (e.g. 7;45 given to 46;30 is 0;10): the quotient
is computed exactly and accepted whenever it is finitely writable, since
the tablet shows the result but not the lookup that produced it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import _EXPORTS
from ._record import Record, setfield
from .errors import (
    MalformedProblem,
    NegativeRadicand,
    NoFiniteQuotient,
    ZeroDivisor,
    _written,
)
from .sexa import (
    Sexa,
    SexaLike,
    _rough,
    halve,
    reciprocal,
    render,
    sqrt_exact,
    square,
)
from .units import Quantity

__all__ = list(_EXPORTS["procedures"])

TraceValue = Sexa | Quantity


class Step(Record):
    """One labelled value of a trace, and where it came from."""

    __slots__ = ("label", "value", "source")

    def __init__(self, label: str, value: TraceValue,
                 source: str = "derived"):
        setfield(self, "label", label)
        setfield(self, "value", value)
        setfield(self, "source", source)

    def magnitude(self) -> Sexa:
        """The bare numeric value, unit stripped."""
        if isinstance(self.value, Quantity):
            return self.value.magnitude
        return self.value

    def to_dict(self) -> dict:
        d = {"label": self.label, "value": render(self.magnitude()),
             "source": self.source}
        if isinstance(self.value, Quantity):
            d["unit"] = self.value.dim.value
        return d


class StepTrace(Record):
    """Ordered, uniquely-labelled record of intermediate values.

    ``record`` is the one way a step enters a trace: the constructor and
    ``extend`` go through it, and so do copy and pickle, which rebuild a
    trace from its ``steps``.  So a label appears at most once, and a
    repeat raises ``MalformedProblem``.  The steps are kept in one dict
    by label, in the order recorded, so ``record`` (with its duplicate
    check), lookup and ``in`` are constant-time, and a trace of n steps
    costs O(n) to build, not O(n**2).  ``steps`` is a new list on each
    read: changing it leaves the trace as it was, and a copied trace
    grows apart from the original.  Like every record it refuses
    assignment to its fields; it grows only through ``record``, and it
    has no hash.
    """

    __slots__ = ("_steps",)
    __match_args__ = ("steps",)
    __hash__ = None

    def __init__(self, steps: Iterable[Step] = ()):
        setfield(self, "_steps", {})
        self.extend(steps)

    @property
    def steps(self) -> list[Step]:
        return list(self._steps.values())

    def record(self, label: str, value: TraceValue,
               source: str = "derived") -> TraceValue:
        if label in self._steps:
            raise MalformedProblem(f"duplicate step label {label!r}")
        self._steps[label] = Step(label, value, source)
        return value

    def extend(self, steps: Iterable[Step]) -> None:
        for step in steps:
            self.record(step.label, step.value, step.source)

    def __iter__(self) -> Iterator[Step]:
        return iter(self._steps.values())

    def __getitem__(self, label: str) -> TraceValue:
        return self._steps[label].value

    def __contains__(self, label: str) -> bool:
        return label in self._steps

    def to_text(self) -> str:
        lines = []
        for step in self:
            value = render(step.magnitude())
            if isinstance(step.value, Quantity):
                value += f" {step.value.dim.value}"
            lines.append(f"{step.label} = {value} @ {step.source}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self]}


class QuadraticProblem(Record):
    """Coefficients of a*u^2 - b*u = c with a > 0 (a is the "false area")."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: SexaLike, b: SexaLike, c: SexaLike):
        a, b, c = Sexa(a), Sexa(b), Sexa(c)
        if a <= 0:
            raise MalformedProblem(
                "leading coefficient must be positive (no linear fallback)")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)


class SumDifferenceProblem(Record):
    """Recover x >= y >= 0 from diff = x - y and prod = x*y."""

    __slots__ = ("diff", "prod")

    def __init__(self, diff: SexaLike, prod: SexaLike):
        diff, prod = Sexa(diff), Sexa(prod)
        if diff < 0:
            raise MalformedProblem("difference must be nonnegative")
        setfield(self, "diff", diff)
        setfield(self, "prod", prod)


def solve_quadratic_scribal(p: QuadraticProblem) -> tuple[Sexa, StepTrace]:
    """Complete the square on a*u^2 - b*u = c, the tablet way.

    The equation is scaled by a (so the unknown becomes a*u), the half of
    b is squared and added, and only the additive branch of the root is
    taken.  Requires a regular (the final step multiplies by 1/a) and the
    radicand (b/2)^2 + a*c to be a perfect square; this solver never
    approximates.
    """
    trace = StepTrace()
    half_b = trace.record("half_B", halve(p.b))
    half_b_sq = trace.record("half_B_sq", square(half_b))
    ac = trace.record("AC", p.a * p.c)
    radicand = half_b_sq + ac
    if radicand < 0:
        raise NegativeRadicand(f"(B/2)^2 + A*C = {_written(radicand)} < 0")
    trace.record("radicand", radicand)
    root = trace.record("root", sqrt_exact(radicand))
    root_plus = trace.record("root_plus", root + half_b)
    u = trace.record("u", root_plus * reciprocal(p.a))
    return u, trace


def solve_sum_difference(p: SumDifferenceProblem) -> tuple[Sexa, Sexa, StepTrace]:
    """Recover (x, y) from their difference and product."""
    trace = StepTrace()
    half_diff = trace.record("half_diff", halve(p.diff))
    half_diff_sq = trace.record("half_diff_sq", square(half_diff))
    radicand = half_diff_sq + p.prod
    if radicand < 0:
        raise NegativeRadicand(f"((x-y)/2)^2 + xy = {_written(radicand)} < 0")
    trace.record("radicand", radicand)
    half_sum = trace.record("half_sum", sqrt_exact(radicand))
    x = trace.record("x", half_sum + half_diff)
    y = trace.record("y", half_sum - half_diff)
    return x, y, trace


def divide_by_recognition(n: SexaLike, d: SexaLike) -> Sexa:
    """Exact quotient n/d accepted when it is finitely writable in base 60.

    Unlike reciprocal-based division this works for irregular divisors
    (13, 46;30, ...), provided the quotient itself terminates.
    """
    n, d = Sexa(n), Sexa(d)
    if d == 0:
        raise ZeroDivisor("cannot recognize a quotient for divisor 0")
    q = n / d
    if _rough(q.denominator) != 1:
        raise NoFiniteQuotient(q)
    return q


def replay_smt24_p2(diff: SexaLike, depth_factor: SexaLike,
                    thirteenth: SexaLike, rhs: SexaLike,
                    ) -> tuple[Sexa, Sexa, StepTrace]:
    """Solve the enlarged-canal system of the second SMT No. 24 problem.

    The system, with d = x - y given, is

        x - y = d,   z = depth_factor*d,
        z(x^2 + y^2) + xy(z + 1) + (x^2 + y^2)/thirteenth = rhs.

    The tablet's run (reverse lines 7-24): scale the big equation by
    ``thirteenth``; replace x^2 + y^2 by d^2 + 2xy; divide through by z
    using 1/z = (1/depth_factor)(1/d); collect the xy coefficient exactly
    as the scribe does (keeping the d^2 term unsimplified); read off xy
    by recognition; then recover x and y by the sum-difference method.
    Both d and depth_factor must be regular since their reciprocals are
    taken separately, as on the tablet, and ``thirteenth`` must be nonzero
    since the system divides by it.  With d = 0 the depth is zero and the
    equation yields xy directly, no reciprocal needed.
    """
    d = Sexa(diff)
    depth_factor = Sexa(depth_factor)
    thirteenth = Sexa(thirteenth)
    rhs = Sexa(rhs)
    if thirteenth == 0:
        raise MalformedProblem("thirteenth must be nonzero")
    trace = StepTrace()

    rhs_scaled = trace.record("rhs_scaled", rhs * thirteenth)
    d_sq = trace.record("diff_sq", square(d))
    rhs_reduced = trace.record("rhs_reduced", rhs_scaled - d_sq)

    if d == 0:
        # z = 0: the hole term vanishes and the scaled equation collapses
        # to (thirteenth + 2)*xy = rhs_reduced.
        xy = trace.record("xy", divide_by_recognition(
            rhs_reduced, thirteenth + 2))
    else:
        recip_d = trace.record("recip_diff", reciprocal(d))
        recip_depth = trace.record("recip_depth_factor",
                                   reciprocal(depth_factor))
        recip_z = trace.record("recip_z", recip_depth * recip_d)
        rhs_over_z = trace.record("rhs_over_z", recip_z * rhs_reduced)
        d_sq_again = trace.record("diff_sq_check", square(d))
        d_sq_scaled = trace.record("diff_sq_scaled", d_sq_again * thirteenth)
        xy_rhs = trace.record("xy_rhs", rhs_over_z - d_sq_scaled)
        z_term = trace.record("z_term", recip_z * thirteenth)
        pair_term = trace.record("pair_term", recip_z * 2)
        mixed = trace.record("mixed_coeff", z_term + pair_term)
        triple = trace.record("triple_thirteenth", thirteenth * 3)
        xy_coeff = trace.record("xy_coeff", triple + mixed)
        xy = trace.record("xy", divide_by_recognition(xy_rhs, xy_coeff))

    x, y, tail = solve_sum_difference(SumDifferenceProblem(d, xy))
    trace.extend(tail)
    return x, y, trace
