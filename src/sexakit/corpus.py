"""Machine-readable tablet problems and the replay engine.

A corpus file is line-oriented, 7-bit text.  Records open with
``[problem <id>]`` and carry these fields::

    procedure = quadratic | rect-canal-system | labor-depth
    given <name> = <literal> <unit>
    param <name> = <literal>
    expect step <label> = <literal> @ <line-tag>
    expect answer <name> = <literal> <unit>

``#`` starts a comment.  A line tag is a tablet line reference like
``obv.26`` or ``rev.19``; a trailing ``?`` marks a value the edition
prints with "(?)" (replay still checks it, since the arithmetic does
confirm it; the flag is carried through to the report).

``replay`` runs the problem's procedure and compares every produced
trace step against the expectations, label by label, with exact
equality; answers are compared with their units.  A report passes only
with zero mismatches and zero missing labels.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import (
    BadLiteral,
    CorpusParseError,
    MalformedLiteral,
    ProcedureError,
    SexakitError,
    UnknownProcedure,
    UnknownProblem,
)
from .geometry import (
    SMALL_CANAL_CONSTANT,
    CanalConstant,
    breadths_from_constraints,
    depth_from_labor,
    length_from_volume,
    trapezoid_cross_section,
)
from .procedures import (
    QuadraticProblem,
    StepTrace,
    SumDifferenceProblem,
    divide_by_recognition,
    solve_quadratic_scribal,
    solve_sum_difference,
)
from .sexa import Sexa, SexaLike, reciprocal, render, square
from .units import Dimension, Quantity, parse_quantity

__all__ = [
    "Procedure",
    "ExpectedStep",
    "TabletProblem",
    "CheckRow",
    "ReplayReport",
    "bundled_corpus_path",
    "load_corpus",
    "replay",
    "replay_smt24_p2",
]

_BUNDLED_NAME = "susa_excavations.corpus"


class Procedure(Enum):
    QUADRATIC = "quadratic"
    RECT_CANAL_SYSTEM = "rect-canal-system"
    LABOR_DEPTH = "labor-depth"


_REQUIRED_PARAMS = {
    Procedure.QUADRATIC: ("A", "B", "C"),
    Procedure.RECT_CANAL_SYSTEM: ("diff", "depth_factor", "thirteenth", "rhs"),
    Procedure.LABOR_DEPTH: ("reach_length",),
}

_REQUIRED_GIVENS = {
    Procedure.QUADRATIC: (),
    Procedure.RECT_CANAL_SYSTEM: (),
    Procedure.LABOR_DEPTH: ("total_water", "workers", "width"),
}


@dataclass(frozen=True)
class ExpectedStep:
    label: str
    value: Sexa
    line: str
    uncertain: bool = False


@dataclass(frozen=True)
class TabletProblem:
    id: str
    procedure: Procedure
    givens: dict[str, Quantity]
    parameters: dict[str, Sexa]
    expected_steps: tuple[ExpectedStep, ...]
    expected_answers: dict[str, Quantity]


@dataclass(frozen=True)
class CheckRow:
    kind: str              # "step" | "answer"
    label: str
    status: str            # "MATCH" | "MISMATCH" | "MISSING"
    expected: str
    got: str | None
    line: str | None = None
    uncertain: bool = False

    def to_text(self, problem_id: str) -> str:
        label = self.label if self.kind == "step" else f"answer:{self.label}"
        return f"{problem_id} {label} {self.status} {self.expected} " \
               f"{self.got if self.got is not None else '-'}"

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "label": self.label, "status": self.status,
             "expected": self.expected, "got": self.got}
        if self.line is not None:
            d["line"] = self.line
        if self.uncertain:
            d["uncertain"] = True
        return d


@dataclass(frozen=True)
class ReplayReport:
    problem_id: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.status == "MATCH" for r in self.rows)

    def to_text(self) -> str:
        lines = [row.to_text(self.problem_id) for row in self.rows]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{self.problem_id} {verdict} "
                     f"({len(self.rows)} checks)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"problem": self.problem_id, "pass": self.passed,
                "rows": [row.to_dict() for row in self.rows]}


# -- corpus file parsing ------------------------------------------------------

_PROBLEM_RE = re.compile(r"\[problem\s+([A-Za-z0-9._-]+)\]$")
_FIELD_RE = re.compile(
    r"(?P<kind>procedure|given|param|expect)\b\s*(?P<rest>.*)$")


def bundled_corpus_path() -> Path:
    return Path(resources.files("sexakit").joinpath(f"data/{_BUNDLED_NAME}"))


class _ProblemBuilder:
    def __init__(self, pid: str, line_no: int):
        self.id = pid
        self.line_no = line_no
        self.procedure: Procedure | None = None
        self.givens: dict[str, Quantity] = {}
        self.parameters: dict[str, Sexa] = {}
        self.steps: dict[str, ExpectedStep] = {}
        self.answers: dict[str, Quantity] = {}

    def finish(self) -> TabletProblem:
        if self.procedure is None:
            raise CorpusParseError(
                f"problem {self.id} has no procedure", line=self.line_no)
        missing = [p for p in _REQUIRED_PARAMS[self.procedure]
                   if p not in self.parameters]
        missing += [g for g in _REQUIRED_GIVENS[self.procedure]
                    if g not in self.givens]
        if missing:
            raise CorpusParseError(
                f"problem {self.id} is missing fields: {', '.join(missing)}",
                line=self.line_no)
        return TabletProblem(
            id=self.id, procedure=self.procedure, givens=self.givens,
            parameters=self.parameters,
            expected_steps=tuple(self.steps.values()),
            expected_answers=self.answers)


def _check_new(table: dict, key: str, what: str, line_no: int) -> None:
    if key in table:
        raise CorpusParseError(f"duplicate {what} {key!r}", line=line_no)


def _parse_literal(text: str, line_no: int, line: str) -> Sexa:
    try:
        return Sexa(text)
    except MalformedLiteral as exc:
        col = line.find(text) + 1
        raise BadLiteral(str(exc), line=line_no, column=col or None) from exc


def _parse_quantity_field(text: str, line_no: int, line: str) -> Quantity:
    try:
        return parse_quantity(text)
    except MalformedLiteral as exc:
        col = line.find(text) + 1
        raise BadLiteral(str(exc), line=line_no, column=col or None) from exc


def load_corpus(path: str | os.PathLike | None = None) -> list[TabletProblem]:
    """Load tablet problems from a corpus file.

    With no path, uses $SEXAKIT_CORPUS if set, else the bundled corpus.
    """
    if path is None:
        path = os.environ.get("SEXAKIT_CORPUS") or bundled_corpus_path()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusParseError(
            f"cannot read corpus {str(path)!r}: {exc.strerror or exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise CorpusParseError(
            f"corpus {str(path)!r} is not UTF-8 text: {exc.reason} "
            f"at byte {exc.start}") from exc

    problems: list[TabletProblem] = []
    seen: set[str] = set()
    builder: _ProblemBuilder | None = None

    def flush():
        nonlocal builder
        if builder is not None:
            problems.append(builder.finish())
            builder = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise CorpusParseError("corpus files must be 7-bit text",
                                   line=line_no)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _PROBLEM_RE.match(line)
            if not m:
                raise CorpusParseError(f"bad problem header {line!r}",
                                       line=line_no)
            flush()
            pid = m.group(1)
            if pid in seen:
                raise CorpusParseError(f"duplicate problem id {pid!r}",
                                       line=line_no)
            seen.add(pid)
            builder = _ProblemBuilder(pid, line_no)
            continue
        if builder is None:
            raise CorpusParseError("field outside any [problem] record",
                                   line=line_no)
        m = _FIELD_RE.match(line)
        if not m:
            raise CorpusParseError(f"unrecognized line {line!r}", line=line_no)
        kind, rest = m.group("kind"), m.group("rest").strip()
        if kind == "procedure":
            name = rest.lstrip("= ").strip()
            try:
                builder.procedure = Procedure(name)
            except ValueError:
                raise UnknownProcedure(f"unknown procedure {name!r}",
                                       line=line_no) from None
        elif kind == "given":
            name, _, value = rest.partition("=")
            name, value = name.strip(), value.strip()
            if not name or not value:
                raise CorpusParseError("given needs '<name> = <literal> "
                                       "<unit>'", line=line_no)
            _check_new(builder.givens, name, "given", line_no)
            builder.givens[name] = _parse_quantity_field(value, line_no, raw)
        elif kind == "param":
            name, _, value = rest.partition("=")
            name, value = name.strip(), value.strip()
            if not name or not value:
                raise CorpusParseError("param needs '<name> = <literal>'",
                                       line=line_no)
            _check_new(builder.parameters, name, "param", line_no)
            builder.parameters[name] = _parse_literal(value, line_no, raw)
        else:  # expect
            sub, _, tail = rest.partition(" ")
            tail = tail.strip()
            if sub == "step":
                name, _, value = tail.partition("=")
                name, value = name.strip(), value.strip()
                literal, _, tag = value.partition("@")
                literal, tag = literal.strip(), tag.strip()
                if not name or not literal or not tag:
                    raise CorpusParseError(
                        "expect step needs '<label> = <literal> @ <line-tag>'",
                        line=line_no)
                _check_new(builder.steps, name, "step label", line_no)
                builder.steps[name] = ExpectedStep(
                    label=name,
                    value=_parse_literal(literal, line_no, raw),
                    line=tag.rstrip("?"),
                    uncertain=tag.endswith("?"))
            elif sub == "answer":
                name, _, value = tail.partition("=")
                name, value = name.strip(), value.strip()
                if not name or not value:
                    raise CorpusParseError(
                        "expect answer needs '<name> = <literal> <unit>'",
                        line=line_no)
                _check_new(builder.answers, name, "answer", line_no)
                builder.answers[name] = _parse_quantity_field(
                    value, line_no, raw)
            else:
                raise CorpusParseError(
                    f"expect must be 'step' or 'answer', got {sub!r}",
                    line=line_no)
    flush()
    return problems


def find_problem(problems: list[TabletProblem], problem_id: str,
                 ) -> TabletProblem:
    for p in problems:
        if p.id == problem_id:
            return p
    raise UnknownProblem(problem_id)


# -- procedures behind the corpus ---------------------------------------------

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


def _dispatch(problem: TabletProblem,
              ) -> tuple[StepTrace, dict[str, Quantity]]:
    params = problem.parameters
    givens = problem.givens
    if problem.procedure is Procedure.QUADRATIC:
        stage = "solve-quadratic"
        try:
            u, trace = solve_quadratic_scribal(
                QuadraticProblem(params["A"], params["B"], params["C"]))
            answers = {"u": Quantity(u, Dimension.LENGTH_NINDAN)}
            if "V" in givens:
                # Post-solution verification: derive the remaining canal
                # dimensions and recover the length from the given volume.
                stage = "breadths"
                kwargs = {}
                if "excess" in params:
                    kwargs["excess"] = params["excess"]
                if "excess_share" in params:
                    kwargs["excess_share"] = params["excess_share"]
                v, z = breadths_from_constraints(u, **kwargs)
                trace.record("v", v)
                trace.record("z", z)
                stage = "cross-section"
                section = trapezoid_cross_section(
                    Quantity(u, Dimension.LENGTH_NINDAN),
                    Quantity(v, Dimension.LENGTH_NINDAN),
                    Quantity(z, Dimension.LENGTH_KUS))
                trace.record("S", section)
                stage = "length"
                length = length_from_volume(givens["V"], section)
                trace.record("x", length)
                answers.update({
                    "v": Quantity(v, Dimension.LENGTH_NINDAN),
                    "z": Quantity(z, Dimension.LENGTH_KUS),
                    "S": section,
                    "x": length,
                })
            return trace, answers
        except SexakitError as exc:
            raise ProcedureError(problem.id, stage, exc) from exc
    if problem.procedure is Procedure.RECT_CANAL_SYSTEM:
        try:
            x, y, trace = replay_smt24_p2(
                params["diff"], params["depth_factor"],
                params["thirteenth"], params["rhs"])
            z = Sexa(params["depth_factor"]) * Sexa(params["diff"])
            one = Dimension.DIMENSIONLESS
            return trace, {"x": Quantity(x, one), "y": Quantity(y, one),
                           "z": Quantity(z, one)}
        except SexakitError as exc:
            raise ProcedureError(problem.id, "rect-canal-system", exc) from exc
    if problem.procedure is Procedure.LABOR_DEPTH:
        try:
            constant = SMALL_CANAL_CONSTANT
            if "canal_constant" in params:
                constant = CanalConstant(params["canal_constant"])
            depth, water_depth, trace = depth_from_labor(
                givens["total_water"], params["reach_length"],
                givens["workers"], givens["width"], constant)
            return trace, {"z": depth, "z_water": water_depth}
        except SexakitError as exc:
            raise ProcedureError(problem.id, "labor-depth", exc) from exc
    raise UnknownProcedure(f"no dispatcher for {problem.procedure}")


def replay(problem: TabletProblem) -> ReplayReport:
    """Run a problem's procedure and check every expectation exactly."""
    trace, answers = _dispatch(problem)
    rows: list[CheckRow] = []
    for expected in problem.expected_steps:
        if expected.label not in trace:
            rows.append(CheckRow("step", expected.label, "MISSING",
                                 render(expected.value), None,
                                 expected.line, expected.uncertain))
            continue
        value = trace[expected.label]
        got = value.magnitude if isinstance(value, Quantity) else value
        # Exactly equal values render identically: a MATCH renders once.
        text = render(expected.value)
        if got == expected.value:
            status, got_text = "MATCH", text
        else:
            status, got_text = "MISMATCH", render(got)
        rows.append(CheckRow("step", expected.label, status, text, got_text,
                             expected.line, expected.uncertain))
    for name, expected_q in problem.expected_answers.items():
        got_q = answers.get(name)
        if got_q is None:
            rows.append(CheckRow("answer", name, "MISSING",
                                 str(expected_q), None))
            continue
        text = str(expected_q)
        if got_q == expected_q:
            status, got_text = "MATCH", text
        else:
            status, got_text = "MISMATCH", str(got_q)
        rows.append(CheckRow("answer", name, status, text, got_text))
    return ReplayReport(problem.id, tuple(rows))
