"""Machine-readable tablet problems and the replay engine.

A corpus file is line-oriented, 7-bit text.  A line ends only at a
newline (a CRLF or a lone CR reads as one), so a form feed or another
separator stays inside its line, and line numbers match ``grep -n``.
Records open with ``[problem <id>]`` and carry these fields::

    procedure = quadratic | rect-canal-system | labor-depth
    given <name> = <literal> <unit>
    param <name> = <literal>
    expect step <label> = <literal> @ <line-tag>
    expect answer <name> = <literal> <unit>

``#`` starts a comment.  ``procedure`` appears once in a record, with
one ``=`` before its name, and each given, param, step label and answer
name at most once.  A line tag is a tablet line reference like
``obv.26`` or ``rev.19``: a trailing ``?`` marks a value the edition
prints with "(?)" (replay still checks it, since the arithmetic does
confirm it; the flag is carried through to the report).  The line is
the tag without its trailing ``?`` marks and the whitespace among or
before them (``rev.21 ?`` names ``rev.21``), and it must not be empty.

``load_corpus`` reads the file through the standard text reader, which
reads and decodes it a chunk (8 KiB) at a time, and parses each line as
it comes: a load holds the problems built so far and one chunk, never
the decoded file.  A file that cannot be read or is not UTF-8 is still
reported before any error in a line, at its byte offset in the file:
after an error in a line, the load reads on to the end of the file
first.

``PROCEDURES`` is the one table of procedures: each ``ProcedureSpec``
gives a corpus name, the params and givens a record for it must carry
and those it may carry, each given with its dimension, ``run(problem)
-> (trace, answers)`` and ``verify(problem, answers)``.  ``load_corpus``
looks a record's procedure up there and checks its fields against the
entry: a missing field is an error, and so are a field the procedure
does not read (so a misspelled optional field cannot fall back to its
default unseen) and a given in another dimension than the entry's.
``replay`` calls the entry's ``run``, then its ``verify``, which
substitutes the answers back into the problem's equations with plain
exact arithmetic, then compares every produced trace step against the
expectations, label by label, with exact equality; answers are
compared with their units.  Report text for an expectation is settled
once, at load: the corpus literal itself when it is already canonical,
else its rendering; ``replay`` writes only the values it computed that
mismatch.  A report passes only with at least one row, zero mismatches
and zero missing labels.  A failure in ``run`` or ``verify`` is raised
as a ``ProcedureError`` naming the problem and the stage (``verify``
for a failed substitution), and the tablet line of the first expected
step not yet produced.  Adding a procedure is one ``ProcedureSpec``
entry plus a corpus record that uses it.
"""

from __future__ import annotations

import os
import re
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from types import MappingProxyType

from . import _EXPORTS
from ._record import Record, setfield
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

__all__ = list(_EXPORTS["corpus"])

_BUNDLED_NAME = "susa_excavations.corpus"

#: What a procedure's ``run`` returns: the trace and the named answers.
_Outcome = tuple[StepTrace, dict[str, Quantity]]


class ProcedureSpec(Record):
    """A procedure that corpus records name, and how to replay it.

    A record must carry every name in ``params`` and ``givens``, may
    carry those in ``optional_params`` and ``optional_givens``, and may
    carry no other: together they name every value ``run`` and
    ``verify`` read.  ``givens`` and ``optional_givens`` pair each
    given's name with its dimension, and a record must state the given
    in it (a volume in volume-sar, or in sar60 or susi, which read as
    volume-sar).
    ``run(problem)`` returns the trace and the named answers; it raises
    ``ProcedureError`` naming the stage that failed.  ``verify(problem,
    answers)`` substitutes those answers back into the problem's stated
    equations with plain exact arithmetic, never a scribal step, and
    raises ``EquationNotSatisfied`` naming an equation that fails;
    ``replay`` runs it as the ``verify`` stage.  Every procedure has one.
    """

    __slots__ = ("name", "params", "givens", "run", "verify",
                 "optional_params", "optional_givens")

    def __init__(self, name: str, params: tuple[str, ...],
                 givens: tuple[tuple[str, Dimension], ...],
                 run: Callable[[TabletProblem], _Outcome],
                 verify: Callable[[TabletProblem, dict[str, Quantity]], None],
                 optional_params: tuple[str, ...] = (),
                 optional_givens: tuple[tuple[str, Dimension], ...] = ()):
        setfield(self, "name", name)
        setfield(self, "params", params)
        setfield(self, "givens", givens)
        setfield(self, "run", run)
        setfield(self, "verify", verify)
        setfield(self, "optional_params", optional_params)
        setfield(self, "optional_givens", optional_givens)

    @property
    def value(self) -> str:
        """The corpus name, where code written for an ``Enum`` reads it."""
        return self.name


class ExpectedStep(Record):
    """A step value the tablet states, at its line.

    ``text`` is the value as the report prints it, ``render(value)``: the
    corpus literal itself when it is canonical.  It is settled once, when
    the step is built, and takes no part in equality or the repr.
    """

    __slots__ = ("label", "value", "line", "uncertain", "text")
    _fields = __slots__[:-1]

    def __init__(self, label: str, value: Sexa, line: str,
                 uncertain: bool = False, text: str | None = None):
        setfield(self, "label", label)
        setfield(self, "value", value)
        setfield(self, "line", line)
        setfield(self, "uncertain", uncertain)
        setfield(self, "text", render(value) if text is None else text)


class TabletProblem(Record):
    """A corpus record.  ``answer_texts`` holds each expected answer as the
    report prints it, ``str(quantity)``, settled as ``ExpectedStep.text``
    is, and likewise takes no part in equality or the repr.  Its steps are
    a tuple and its mappings read-only views of copies; it has no hash."""

    __slots__ = ("id", "procedure", "givens", "parameters", "expected_steps",
                 "expected_answers", "answer_texts")
    _fields = __slots__[:-1]
    __hash__ = None

    def __init__(self, id: str, procedure: ProcedureSpec,
                 givens: dict[str, Quantity], parameters: dict[str, Sexa],
                 expected_steps: tuple[ExpectedStep, ...],
                 expected_answers: dict[str, Quantity],
                 answer_texts: dict[str, str] | None = None):
        setfield(self, "id", id)
        setfield(self, "procedure", procedure)
        setfield(self, "givens", MappingProxyType(dict(givens)))
        setfield(self, "parameters", MappingProxyType(dict(parameters)))
        setfield(self, "expected_steps", tuple(expected_steps))
        setfield(self, "expected_answers",
                 MappingProxyType(dict(expected_answers)))
        if answer_texts is None:
            answer_texts = {n: str(q) for n, q in expected_answers.items()}
        setfield(self, "answer_texts", MappingProxyType(dict(answer_texts)))

    def __reduce__(self):
        # A mappingproxy does not pickle: hand its dict back instead.
        cls, args = super().__reduce__()
        return cls, tuple(dict(arg) if type(arg) is MappingProxyType else arg
                          for arg in args)


class CheckRow(Record):
    """One checked expectation of a replay: a step or an answer, its
    status ("MATCH", "MISMATCH" or "MISSING"), the texts expected and
    got (None when MISSING), and for a step its tablet line and whether
    the edition marks the value uncertain."""

    __slots__ = ("kind", "label", "status", "expected", "got", "line",
                 "uncertain")

    def __init__(self, kind: str, label: str, status: str, expected: str,
                 got: str | None, line: str | None = None,
                 uncertain: bool = False):
        setfield(self, "kind", kind)
        setfield(self, "label", label)
        setfield(self, "status", status)
        setfield(self, "expected", expected)
        setfield(self, "got", got)
        setfield(self, "line", line)
        setfield(self, "uncertain", uncertain)

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


class ReplayReport(Record):
    """The checked rows of one problem's replay."""

    __slots__ = ("problem_id", "rows")

    def __init__(self, problem_id: str, rows: tuple[CheckRow, ...]):
        setfield(self, "problem_id", problem_id)
        setfield(self, "rows", rows)

    @property
    def passed(self) -> bool:
        """True when there are rows and every one matches: a record with
        no expectation checks nothing, so it does not pass."""
        return bool(self.rows) and all(r.status == "MATCH" for r in self.rows)

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


_BUNDLED_PATH = os.path.join(os.path.dirname(__file__), "data", _BUNDLED_NAME)


def bundled_corpus_path():
    """The bundled corpus file, as a ``pathlib.Path``.  ``pathlib`` is
    imported when this is called, so that a load does not import it."""
    import pathlib
    return pathlib.Path(_BUNDLED_PATH)


def _lines(path: str | os.PathLike) -> Iterator[str]:
    """The items of ``text.split("\n")``, where ``text`` is the file at
    ``path`` read in text mode as UTF-8, a chunk at a time by the text
    reader, so a load never holds the decoded file.  A CRLF or a lone CR
    reads as one newline.  A file that cannot be read or is not UTF-8
    raises ``CorpusParseError``."""
    try:
        with open(os.fspath(path), encoding="utf-8") as file:
            line = "\n"  # an empty file is one empty line
            try:
                for line in file:
                    yield line.removesuffix("\n")
            except UnicodeDecodeError as exc:
                reason = exc.reason
                if file.seekable():
                    # The bytes the decoder held and the chunk just read
                    # end at the buffer's position.  A pipe has none.
                    at = file.buffer.tell() - len(exc.object) + exc.start
                    reason += f" at byte {at}"
                raise CorpusParseError(
                    f"corpus {str(path)!r} is not UTF-8 text: {reason}"
                ) from exc
    except OSError as exc:
        raise CorpusParseError(
            f"cannot read corpus {str(path)!r}: {exc.strerror or exc}"
        ) from exc
    if line.endswith("\n"):
        yield ""


#: What a step's line tag ends with that is not its line: the "(?)"
#: marks and the whitespace among or before them, every 7-bit character
#: that ``str.strip`` strips.
_TAG_MARKS = "?" + "".join(c for c in map(chr, range(128)) if c.isspace())

#: What differs between the value fields, by kind: the usage message,
#: the noun a repeat is reported under, and the reader of the literal.
_VALUE_FIELDS = {
    "given": ("given needs '<name> = <literal> <unit>'", "given",
              parse_quantity),
    "param": ("param needs '<name> = <literal>'", "param", parse),
    "step": ("expect step needs '<label> = <literal> @ <line-tag>'",
             "step label", parse),
    "answer": ("expect answer needs '<name> = <literal> <unit>'", "answer",
               parse_quantity),
}


class _ProblemBuilder:
    def __init__(self, pid: str, line_no: int):
        self.id = pid
        self.line_no = line_no
        self.procedure: ProcedureSpec | None = None
        #: The record's values so far, one dict per kind of value field.
        self.fields: dict[str, dict] = {kind: {} for kind in _VALUE_FIELDS}
        #: The line of each given.
        self.given_lines: dict[str, int] = {}
        self.answer_texts: dict[str, str] = {}

    def finish(self) -> TabletProblem:
        if self.procedure is None:
            raise CorpusParseError(
                f"problem {self.id} has no procedure", line=self.line_no)
        spec, fields = self.procedure, self.fields
        dims = dict(spec.givens + spec.optional_givens)
        missing, unknown = [], []
        for kind, required, known in (
                ("param", spec.params, spec.params + spec.optional_params),
                ("given", dict(spec.givens), dims)):
            missing += [n for n in required if n not in fields[kind]]
            unknown += [n for n in fields[kind] if n not in known]
        for names, verb in (missing, "is missing"), (unknown, "has unknown"):
            if names:
                raise CorpusParseError(
                    f"problem {self.id} {verb} fields: {', '.join(names)}",
                    line=self.line_no)
        for name, quantity in fields["given"].items():
            if quantity.dim is not dims[name]:
                raise CorpusParseError(
                    f"given {name} must be {dims[name].value}, "
                    f"got {quantity.dim.value}", line=self.given_lines[name])
        return TabletProblem(
            id=self.id, procedure=self.procedure, givens=fields["given"],
            parameters=fields["param"],
            expected_steps=tuple(fields["step"].values()),
            expected_answers=fields["answer"],
            answer_texts=self.answer_texts)


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
        path = os.environ.get("SEXAKIT_CORPUS") or _BUNDLED_PATH
    lines = _lines(path)
    try:
        return _problems(lines)
    except SexakitError:
        # A file that cannot be read or is not UTF-8 is reported before
        # any error in a line, as if it had been read whole first.
        for _ in lines:
            pass
        raise


def _problems(lines: Iterator[str]) -> list[TabletProblem]:
    """The problems of a corpus file's lines, in file order."""
    problems: list[TabletProblem] = []
    seen: set[str] = set()
    builder: _ProblemBuilder | None = None

    def flush():
        nonlocal builder
        if builder is not None:
            problems.append(builder.finish())
            builder = None

    for line_no, raw in enumerate(lines, start=1):
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
            before, sep, name = rest.partition("=")
            name = name.strip()
            if before or not sep or not name or "=" in name:
                raise CorpusParseError("procedure needs '= <name>'",
                                       line=line_no)
            if builder.procedure is not None:
                raise CorpusParseError(f"duplicate procedure {name!r}",
                                       line=line_no)
            builder.procedure = PROCEDURES.get(name)
            if builder.procedure is None:
                raise UnknownProcedure(f"unknown procedure {name!r}",
                                       line=line_no)
            continue
        if kind == "expect":
            # The sub-kind ends at the first run of whitespace.
            kind, rest = (rest.split(maxsplit=1) + ["", ""])[:2]
            if kind != "step" and kind != "answer":
                raise CorpusParseError(
                    f"expect must be 'step' or 'answer', got {kind!r}",
                    line=line_no)
        # A value field: "<name> = <literal>", and for a step "@ <line-tag>".
        usage, noun, read = _VALUE_FIELDS[kind]
        name, _, literal = rest.partition("=")
        name, literal = name.strip(), literal.strip()
        tag = tablet_line = None
        if kind == "step":
            literal, _, tag = literal.partition("@")
            literal, tag = literal.strip(), tag.strip()
            tablet_line = tag.rstrip(_TAG_MARKS)
        if not name or not literal or tablet_line == "":
            raise CorpusParseError(usage, line=line_no)
        values = builder.fields[kind]
        if name in values:
            raise CorpusParseError(f"duplicate {noun} {name!r}", line=line_no)
        try:
            value = read(literal)
        except MalformedLiteral as exc:
            # Searched for after the "=", so a literal that also spells the
            # field's name is not found in the name.
            col = raw.find(literal, raw.find("=") + 1) + 1
            raise BadLiteral(str(exc), line=line_no,
                             column=col or None) from exc
        name = sys.intern(name)
        if kind == "step":
            value = ExpectedStep(
                label=name, value=value, line=sys.intern(tablet_line),
                uncertain=tag.endswith("?"),
                text=(literal if _CANONICAL.fullmatch(literal)
                      else render(value)))
        elif kind == "answer":
            builder.answer_texts[name] = _answer_text(literal, value)
        elif kind == "given":
            builder.given_lines[name] = line_no
        values[name] = value
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
def _stage(problem: TabletProblem, stage: str,
           trace: StepTrace | None = None) -> Iterator[None]:
    """Report a SexakitError raised in the block as a ProcedureError, at
    the line of the first expected step that ``trace``, the steps the
    replay recorded before the block, does not hold."""
    try:
        yield
    except SexakitError as exc:
        line = next((e.line for e in problem.expected_steps
                     if trace is None or e.label not in trace), None)
        raise ProcedureError(problem.id, stage, exc, line) from exc


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
    with _stage(problem, "breadths", trace):
        excess, share = _breadth_rule(params)
        v, z = breadths_from_constraints(u, excess=excess, excess_share=share)
        trace.record("v", v)
        trace.record("z", z)
    with _stage(problem, "cross-section", trace):
        section = trace.record("S", trapezoid_cross_section(
            Quantity(u, Dimension.LENGTH_NINDAN),
            Quantity(v, Dimension.LENGTH_NINDAN),
            Quantity(z, Dimension.LENGTH_KUS)))
    with _stage(problem, "length", trace):
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
                  _verify_quadratic,
                  optional_params=("excess", "excess_share"),
                  optional_givens=(("V", Dimension.VOLUME_SAR),)),
    ProcedureSpec("rect-canal-system",
                  ("diff", "depth_factor", "thirteenth", "rhs"), (),
                  _rect_canal_system, _verify_rect_canal_system),
    ProcedureSpec("labor-depth", ("reach_length",),
                  (("total_water", Dimension.VOLUME_SAR),
                   ("workers", Dimension.WORKER_COUNT),
                   ("width", Dimension.LENGTH_NINDAN)),
                  _labor_depth, _verify_labor_depth,
                  optional_params=("canal_constant",)),
)}


def _check(kind: str, label: str, text: str, expected, got,
           write: Callable[[object], str], line: str | None = None,
           uncertain: bool = False) -> CheckRow:
    """The row for one expectation: MISSING when nothing was got, else
    MATCH or MISMATCH by exact equality.  Exactly equal values print
    identically, so only a MISMATCH writes the value got, with ``write``;
    every other row prints the expectation's settled ``text``."""
    if got is None:
        status, got_text = "MISSING", None
    elif got == expected:
        status, got_text = "MATCH", text
    else:
        status, got_text = "MISMATCH", write(got)
    return CheckRow(kind, label, status, text, got_text, line, uncertain)


def replay(problem: TabletProblem) -> ReplayReport:
    """Run a problem's procedure, substitute its answers back into the
    problem's equations, and check every expectation exactly."""
    trace, answers = problem.procedure.run(problem)
    with _stage(problem, "verify", trace):
        problem.procedure.verify(problem, answers)
    got = {step.label: step.magnitude() for step in trace}
    rows = [_check("step", e.label, e.text, e.value, got.get(e.label), render,
                   e.line, e.uncertain) for e in problem.expected_steps]
    rows += [_check("answer", name, problem.answer_texts[name], expected,
                    answers.get(name), str)
             for name, expected in problem.expected_answers.items()]
    return ReplayReport(problem.id, tuple(rows))
