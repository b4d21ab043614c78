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

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import (
    MalformedProblem,
    NegativeRadicand,
    NoFiniteQuotient,
    NonTerminating,
    ProcedureError,
    ZeroDivisor,
)
from .sexa import Sexa, SexaLike, halve, reciprocal, render, sqrt_exact, square
from .units import Quantity

__all__ = [
    "Step",
    "StepTrace",
    "QuadraticProblem",
    "SumDifferenceProblem",
    "solve_quadratic_scribal",
    "solve_sum_difference",
    "divide_by_recognition",
    "replay_smt24_p2",
]

TraceValue = Union[Sexa, Quantity]


@dataclass(frozen=True)
class Step:
    label: str
    value: TraceValue
    source: str = "derived"

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


@dataclass
class StepTrace:
    """Ordered, uniquely-labelled record of intermediate values.

    A label index kept beside ``steps`` makes ``record`` (with its
    duplicate check), lookup and ``in`` constant-time, so a trace of n
    steps costs O(n) to build, not O(n**2).  Append through ``record``
    only; the index does not see edits made to ``steps`` directly.
    """

    steps: list[Step] = field(default_factory=list)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {}
        for i, step in enumerate(self.steps):
            self._index.setdefault(step.label, i)

    def record(self, label: str, value: TraceValue,
               source: str = "derived") -> TraceValue:
        if label in self._index:
            raise ProcedureError("trace", label, ValueError("duplicate label"))
        self._index[label] = len(self.steps)
        self.steps.append(Step(label, value, source))
        return value

    def extend(self, other: "StepTrace") -> None:
        for step in other.steps:
            self.record(step.label, step.value, step.source)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def labels(self) -> list[str]:
        return [s.label for s in self.steps]

    def magnitudes(self) -> list[Sexa]:
        return [s.magnitude() for s in self.steps]

    def __getitem__(self, label: str) -> TraceValue:
        return self.steps[self._index[label]].value

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def to_text(self) -> str:
        lines = []
        for step in self.steps:
            value = render(step.magnitude())
            if isinstance(step.value, Quantity):
                value += f" {step.value.dim.value}"
            lines.append(f"{step.label} = {value} @ {step.source}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}


@dataclass(frozen=True)
class QuadraticProblem:
    """Coefficients of a*u^2 - b*u = c with a > 0 (a is the "false area")."""

    a: Sexa
    b: Sexa
    c: Sexa

    def __post_init__(self):
        object.__setattr__(self, "a", Sexa(self.a))
        object.__setattr__(self, "b", Sexa(self.b))
        object.__setattr__(self, "c", Sexa(self.c))
        if self.a <= 0:
            raise MalformedProblem(
                "leading coefficient must be positive (no linear fallback)")


@dataclass(frozen=True)
class SumDifferenceProblem:
    """Recover x >= y >= 0 from diff = x - y and prod = x*y."""

    diff: Sexa
    prod: Sexa

    def __post_init__(self):
        object.__setattr__(self, "diff", Sexa(self.diff))
        object.__setattr__(self, "prod", Sexa(self.prod))
        if self.diff < 0:
            raise MalformedProblem("difference must be nonnegative")


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
        raise NegativeRadicand(
            f"(B/2)^2 + A*C = {radicand.numerator}/{radicand.denominator} < 0")
    trace.record("radicand", radicand)
    root = trace.record("root", sqrt_exact(radicand))
    root_plus = trace.record("root_plus", root + half_b)
    u = trace.record("u", root_plus * reciprocal(p.a))
    if p.a * square(u) - p.b * u != p.c:
        raise ProcedureError("quadratic", "verify",
                             ArithmeticError("root does not satisfy equation"))
    return u, trace


def solve_sum_difference(p: SumDifferenceProblem) -> tuple[Sexa, Sexa, StepTrace]:
    """Recover (x, y) from their difference and product."""
    trace = StepTrace()
    half_diff = trace.record("half_diff", halve(p.diff))
    half_diff_sq = trace.record("half_diff_sq", square(half_diff))
    radicand = half_diff_sq + p.prod
    if radicand < 0:
        raise NegativeRadicand(
            f"((x-y)/2)^2 + xy = "
            f"{radicand.numerator}/{radicand.denominator} < 0")
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
    try:
        render(q)
    except NonTerminating as exc:
        raise NoFiniteQuotient(
            f"{q.numerator}/{q.denominator} has no finite base-60 form") from exc
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
    taken separately, as on the tablet.  With d = 0 the depth is zero and
    the equation yields xy directly, no reciprocal needed.

    After solving, x, y and z are substituted back into the system and
    exact satisfaction is asserted.
    """
    d = Sexa(diff)
    depth_factor = Sexa(depth_factor)
    thirteenth = Sexa(thirteenth)
    rhs = Sexa(rhs)
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

    # Residual check: the returned values satisfy the original system.
    # Plain exact division here, not the scribal reciprocal: 1/13 exists
    # as a rational even though 13 has no finite base-60 reciprocal.
    z = depth_factor * d
    squares = square(x) + square(y)
    residual = z * squares + x * y * (z + 1) + squares / thirteenth
    if x - y != d or residual != rhs:
        raise ProcedureError("rect-canal-system", "verify",
                             ArithmeticError("solution fails the system"))
    return x, y, trace
