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

``PROCEDURES`` is the one table of procedures: each ``ProcedureSpec``
gives a corpus name, the params and givens a record for it must carry,
``run(problem) -> (trace, answers)`` and ``verify(problem, answers)``.
``load_corpus`` looks a record's procedure up there and checks its
fields against the entry.  ``replay`` calls the entry's ``run``, then
its ``verify``, which substitutes the answers back into the problem's
equations with plain exact arithmetic, then compares every produced
trace step against the expectations, label by label, with exact
equality; answers are compared with their units.  Report text for an
expectation is settled once, at load: the corpus literal itself when it
is already canonical, else its rendering; ``replay`` writes only the
values it computed that mismatch.  A report passes only with zero
mismatches and zero missing labels.  A failure in ``run`` or ``verify``
is raised as a ``ProcedureError`` naming the problem and the stage
(``verify`` for a failed substitution).  Adding a procedure is one
``ProcedureSpec`` entry plus a corpus record that uses it.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

from .errors import (
    BadLiteral,
    CorpusParseError,
    EquationNotSatisfied,
    MalformedLiteral,
    ProcedureError,
    SexakitError,
    UnknownProcedure,
    UnknownProblem,
)
from .geometry import (
    BREADTH_EXCESS,
    BREADTH_EXCESS_SHARE,
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
    replay_smt24_p2,
    solve_quadratic_scribal,
)
from .sexa import _CANONICAL, Sexa, parse, render
from .units import KUS_PER_NINDAN, Dimension, Quantity, parse_quantity

__all__ = [
    "PROCEDURES",
    "ProcedureSpec",
    "ExpectedStep",
    "TabletProblem",
    "CheckRow",
    "ReplayReport",
    "bundled_corpus_path",
    "load_corpus",
    "replay",
]

_BUNDLED_NAME = "susa_excavations.corpus"

#: What a procedure's ``run`` returns: the trace and the named answers.
_Outcome = tuple[StepTrace, dict[str, Quantity]]


@dataclass(frozen=True)
class ProcedureSpec:
    """A procedure that corpus records name, and how to replay it.

    A record must carry every name in ``params`` and ``givens``.
    ``run(problem)`` returns the trace and the named answers; it raises
    ``ProcedureError`` naming the stage that failed.  ``verify(problem,
    answers)`` substitutes those answers back into the problem's stated
    equations with plain exact arithmetic, never a scribal step, and
    raises ``EquationNotSatisfied`` naming an equation that fails;
    ``replay`` runs it as the ``verify`` stage.  Every procedure has one.
    """

    name: str
    params: tuple[str, ...]
    givens: tuple[str, ...]
    run: Callable[[TabletProblem], _Outcome]
    verify: Callable[[TabletProblem, dict[str, Quantity]], None]

    @property
    def value(self) -> str:
        """The corpus name, where code written for an ``Enum`` reads it."""
        return self.name


@dataclass(frozen=True, slots=True)
class ExpectedStep:
    """A step value the tablet states, at its line.

    ``text`` is the value as the report prints it, ``render(value)``: the
    corpus literal itself when it is canonical.  It is settled once, when
    the step is built, and takes no part in equality.
    """

    label: str
    value: Sexa
    line: str
    uncertain: bool = False
    text: str = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.text is None:
            object.__setattr__(self, "text", render(self.value))


@dataclass(frozen=True)
class TabletProblem:
    """A corpus record.  ``answer_texts`` holds each expected answer as the
    report prints it, ``str(quantity)``, settled as ``ExpectedStep.text``
    is."""

    id: str
    procedure: ProcedureSpec
    givens: dict[str, Quantity]
    parameters: dict[str, Sexa]
    expected_steps: tuple[ExpectedStep, ...]
    expected_answers: dict[str, Quantity]
    answer_texts: dict[str, str] = field(default=None, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.answer_texts is None:
            object.__setattr__(self, "answer_texts", {
                name: str(q) for name, q in self.expected_answers.items()})


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
        self.procedure: ProcedureSpec | None = None
        self.givens: dict[str, Quantity] = {}
        self.parameters: dict[str, Sexa] = {}
        self.steps: dict[str, ExpectedStep] = {}
        self.answers: dict[str, Quantity] = {}
        self.answer_texts: dict[str, str] = {}

    def finish(self) -> TabletProblem:
        if self.procedure is None:
            raise CorpusParseError(
                f"problem {self.id} has no procedure", line=self.line_no)
        missing = [p for p in self.procedure.params
                   if p not in self.parameters]
        missing += [g for g in self.procedure.givens if g not in self.givens]
        if missing:
            raise CorpusParseError(
                f"problem {self.id} is missing fields: {', '.join(missing)}",
                line=self.line_no)
        return TabletProblem(
            id=self.id, procedure=self.procedure, givens=self.givens,
            parameters=self.parameters,
            expected_steps=tuple(self.steps.values()),
            expected_answers=self.answers, answer_texts=self.answer_texts)


def _check_new(table: dict, key: str, what: str, line_no: int) -> None:
    if key in table:
        raise CorpusParseError(f"duplicate {what} {key!r}", line=line_no)


def _parse_field(parse: Callable[[str], Sexa | Quantity], text: str,
                 line_no: int, line: str) -> Sexa | Quantity:
    """``parse(text)``; a malformed literal is reported at its column.

    The literal is searched for after the line's "=", so a literal that
    also spells the field's name is not found in the name.
    """
    try:
        return parse(text)
    except MalformedLiteral as exc:
        col = line.find(text, line.find("=") + 1) + 1
        raise BadLiteral(str(exc), line=line_no, column=col or None) from exc


def _answer_text(text: str, quantity: Quantity) -> str:
    """``str(quantity)`` for the answer text "<literal> <unit>": the text
    itself when its literal is canonical and its unit is the dimension's
    own spelling (not sar60 or susi)."""
    literal, unit = text.split()
    if unit == quantity.dim.value and _CANONICAL.fullmatch(literal):
        return f"{literal} {unit}"
    return str(quantity)


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
            builder.procedure = PROCEDURES.get(name)
            if builder.procedure is None:
                raise UnknownProcedure(f"unknown procedure {name!r}",
                                       line=line_no)
        elif kind == "given":
            name, _, value = rest.partition("=")
            name, value = name.strip(), value.strip()
            if not name or not value:
                raise CorpusParseError("given needs '<name> = <literal> "
                                       "<unit>'", line=line_no)
            _check_new(builder.givens, name, "given", line_no)
            builder.givens[name] = _parse_field(
                parse_quantity, value, line_no, raw)
        elif kind == "param":
            name, _, value = rest.partition("=")
            name, value = name.strip(), value.strip()
            if not name or not value:
                raise CorpusParseError("param needs '<name> = <literal>'",
                                       line=line_no)
            _check_new(builder.parameters, name, "param", line_no)
            builder.parameters[name] = _parse_field(parse, value, line_no, raw)
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
                step = _parse_field(parse, literal, line_no, raw)
                builder.steps[name] = ExpectedStep(
                    label=sys.intern(name), value=step,
                    line=sys.intern(tag.rstrip("?")),
                    uncertain=tag.endswith("?"),
                    text=(literal if _CANONICAL.fullmatch(literal)
                          else render(step)))
            elif sub == "answer":
                name, _, value = tail.partition("=")
                name, value = name.strip(), value.strip()
                if not name or not value:
                    raise CorpusParseError(
                        "expect answer needs '<name> = <literal> <unit>'",
                        line=line_no)
                _check_new(builder.answers, name, "answer", line_no)
                name = sys.intern(name)
                answer = _parse_field(parse_quantity, value, line_no, raw)
                builder.answers[name] = answer
                builder.answer_texts[name] = _answer_text(value, answer)
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
    raise UnknownProblem(f"unknown problem {problem_id!r}")


# -- procedures behind the corpus ---------------------------------------------

@contextmanager
def _stage(problem: TabletProblem, stage: str) -> Iterator[None]:
    """Report a SexakitError raised in the block as a ProcedureError."""
    try:
        yield
    except SexakitError as exc:
        raise ProcedureError(problem.id, stage, exc) from exc


def _holds(equation: str, ok: bool) -> None:
    if not ok:
        raise EquationNotSatisfied(f"{equation} does not hold")


def _breadth_rule(params: dict[str, Sexa]) -> tuple[Sexa, Sexa]:
    """The record's excess and excess share, or the tablet's."""
    return (params.get("excess", BREADTH_EXCESS),
            params.get("excess_share", BREADTH_EXCESS_SHARE))


def _quadratic(problem: TabletProblem) -> _Outcome:
    """SMT No. 24 p1: the upper breadth u by completing the square.

    With a given volume V, the lower breadth, depth, cross-section and
    length follow from u, as the tablet's verification does.
    """
    params, givens = problem.parameters, problem.givens
    with _stage(problem, "solve-quadratic"):
        u, trace = solve_quadratic_scribal(
            QuadraticProblem(params["A"], params["B"], params["C"]))
        answers = {"u": Quantity(u, Dimension.LENGTH_NINDAN)}
    if "V" not in givens:
        return trace, answers
    with _stage(problem, "breadths"):
        excess, share = _breadth_rule(params)
        v, z = breadths_from_constraints(u, excess=excess, excess_share=share)
        trace.record("v", v)
        trace.record("z", z)
    with _stage(problem, "cross-section"):
        section = trace.record("S", trapezoid_cross_section(
            Quantity(u, Dimension.LENGTH_NINDAN),
            Quantity(v, Dimension.LENGTH_NINDAN),
            Quantity(z, Dimension.LENGTH_KUS)))
    with _stage(problem, "length"):
        length = trace.record("x", length_from_volume(givens["V"], section))
        answers.update({
            "v": Quantity(v, Dimension.LENGTH_NINDAN),
            "z": Quantity(z, Dimension.LENGTH_KUS),
            "S": section,
            "x": length,
        })
    return trace, answers


def _verify_quadratic(problem: TabletProblem,
                      answers: dict[str, Quantity]) -> None:
    """u solves the quadratic; with V, the canal built on u holds V."""
    params = problem.parameters
    u = answers["u"].magnitude
    _holds("A*u^2 - B*u = C",
           params["A"] * u * u - params["B"] * u == params["C"])
    if "V" not in problem.givens:
        return
    excess, share = _breadth_rule(params)
    v, z, section, length = (answers[k].magnitude
                             for k in ("v", "z", "S", "x"))
    _holds("v = u/2 + excess", v == u / 2 + excess)
    _holds("z = 12*(excess + excess_share*(u - v))",
           z == KUS_PER_NINDAN * (excess + share * (u - v)))
    _holds("S = z*(u + v)/2", section == z * (u + v) / 2)
    _holds("x*S = V", length * section == problem.givens["V"].magnitude)


def _rect_canal_system(problem: TabletProblem) -> _Outcome:
    """SMT No. 24 p2: the holes x and y, and their depth z = depth_factor*d."""
    params = problem.parameters
    with _stage(problem, "rect-canal-system"):
        x, y, trace = replay_smt24_p2(
            params["diff"], params["depth_factor"],
            params["thirteenth"], params["rhs"])
        z = params["depth_factor"] * params["diff"]
        one = Dimension.DIMENSIONLESS
        return trace, {"x": Quantity(x, one), "y": Quantity(y, one),
                       "z": Quantity(z, one)}


def _verify_rect_canal_system(problem: TabletProblem,
                              answers: dict[str, Quantity]) -> None:
    """x, y and z satisfy the whole system.

    Plain exact division, not the scribal reciprocal: 1/13 exists as a
    rational though 13 has no finite base-60 reciprocal.
    """
    params = problem.parameters
    x, y, z = (answers[k].magnitude for k in ("x", "y", "z"))
    squares = x * x + y * y
    _holds("x - y = diff", x - y == params["diff"])
    _holds("z = depth_factor*diff",
           z == params["depth_factor"] * params["diff"])
    _holds("z(x^2 + y^2) + xy(z + 1) + (x^2 + y^2)/thirteenth = rhs",
           z * squares + x * y * (z + 1) + squares / params["thirteenth"]
           == params["rhs"])


def _canal_constant(params: dict[str, Sexa]) -> Sexa:
    """The record's canal constant z'/z, or the small canal's 0;48."""
    return params.get("canal_constant", SMALL_CANAL_CONSTANT.ratio)


def _labor_depth(problem: TabletProblem) -> _Outcome:
    """SMT No. 25: the canal depth from its reserved water and work norms."""
    params, givens = problem.parameters, problem.givens
    with _stage(problem, "labor-depth"):
        depth, water_depth, trace = depth_from_labor(
            givens["total_water"], params["reach_length"],
            givens["workers"], givens["width"],
            CanalConstant(_canal_constant(params)))
        return trace, {"z": depth, "z_water": water_depth}


def _verify_labor_depth(problem: TabletProblem,
                        answers: dict[str, Quantity]) -> None:
    """The water depth is c*z, and it fills the reaches the gang dug."""
    params, givens = problem.parameters, problem.givens
    depth, water_depth = answers["z"].magnitude, answers["z_water"].magnitude
    _holds("z' = c*z", water_depth == _canal_constant(params) * depth)
    _holds("z'*width*reach_length*workers = total_water",
           water_depth * givens["width"].magnitude * params["reach_length"]
           * givens["workers"].magnitude == givens["total_water"].magnitude)


#: Every procedure a corpus record can name, keyed by that name.
PROCEDURES: dict[str, ProcedureSpec] = {spec.name: spec for spec in (
    ProcedureSpec("quadratic", ("A", "B", "C"), (), _quadratic,
                  _verify_quadratic),
    ProcedureSpec("rect-canal-system",
                  ("diff", "depth_factor", "thirteenth", "rhs"), (),
                  _rect_canal_system, _verify_rect_canal_system),
    ProcedureSpec("labor-depth", ("reach_length",),
                  ("total_water", "workers", "width"), _labor_depth,
                  _verify_labor_depth),
)}


def replay(problem: TabletProblem) -> ReplayReport:
    """Run a problem's procedure, substitute its answers back into the
    problem's equations, and check every expectation exactly."""
    trace, answers = problem.procedure.run(problem)
    with _stage(problem, "verify"):
        problem.procedure.verify(problem, answers)
    # Exactly equal values print identically: only a MISMATCH writes the
    # value got; every other row prints the expectation's settled text.
    rows: list[CheckRow] = []
    for expected in problem.expected_steps:
        text = expected.text
        if expected.label not in trace:
            rows.append(CheckRow("step", expected.label, "MISSING", text,
                                 None, expected.line, expected.uncertain))
            continue
        value = trace[expected.label]
        got = value.magnitude if isinstance(value, Quantity) else value
        if got == expected.value:
            status, got_text = "MATCH", text
        else:
            status, got_text = "MISMATCH", render(got)
        rows.append(CheckRow("step", expected.label, status, text, got_text,
                             expected.line, expected.uncertain))
    for name, expected_q in problem.expected_answers.items():
        text = problem.answer_texts[name]
        got_q = answers.get(name)
        if got_q is None:
            rows.append(CheckRow("answer", name, "MISSING", text, None))
            continue
        if got_q == expected_q:
            status, got_text = "MATCH", text
        else:
            status, got_text = "MISMATCH", str(got_q)
        rows.append(CheckRow("answer", name, status, text, got_text))
    return ReplayReport(problem.id, tuple(rows))
