"""Arbitrary command lines end in an exit code, never in a traceback.

``cli.main`` runs in process on argv drawn from every subcommand, its
flags, sexagesimal literals of up to 4000 digit groups (so p/q terms
past CPython's 4300-digit ``str(int)`` limit are in reach), expressions
over them, and free text, plus three explicit command lines whose p/q
text is past that limit.  Each example must return or exit with 0, 1,
2 or 3, print no traceback, and finish inside the deadline.  No token
names a file: ``--corpus`` is left out, so ``replay`` reads only the
bundled corpus.

A second case replays a generated corpus with one problem that errors,
from a ``stage-*`` golden corpus, and checks that every other problem
is still reported.
"""

import contextlib
import io
import os
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings, strategies as st

from golden_cases import STAGES, golden
from sexakit.cli import main
from test_generated_corpus import gen

#: Each subcommand, its number of values, and its flags and words.
COMMANDS = {
    "eval": (["eval"], 1, ["--json", "--oracle", "--recognize"]),
    "recip": (["recip"], 1, ["--json"]),
    "sqrt": (["sqrt"], 1, ["--json"]),
    "solve-quadratic": (["solve-quadratic"], 3, ["--json", "--trace"]),
    "sum-diff": (["sum-diff"], 2, ["--json", "--trace"]),
    "trapezoid": (["geom", "trapezoid"], 3, ["--json"]),
    "volume": (["geom", "volume"], 2, ["--json"]),
    "labor-depth": (["geom", "labor-depth"], 4,
                    ["--json", "--trace", "--unit=sar60", "--unit=susi",
                     "--constant=0;30", "--constant=7"]),
    "replay": (["replay"], 0, ["--json", "--all", "smt24.p1", "nosuch"]),
}


@st.composite
def literals(draw):
    """A literal of 1 to 4000 digit groups; its integer part repeats a
    short pattern, so a long literal costs few draws.  Many have 2500
    groups or more: past 4400 decimal digits, beyond what ``str(int)``
    converts by default."""
    pattern = draw(st.lists(st.integers(0, 59), min_size=1, max_size=4))
    count = draw(st.one_of(st.integers(1, 3), st.integers(1, 4000),
                           st.integers(2500, 4000)))
    text = ",".join(map(str, (pattern * count)[:count]))
    if draw(st.booleans()):
        fraction = draw(st.lists(st.integers(0, 59), min_size=1, max_size=3))
        text += ";" + ",".join(map(str, fraction))
    return ("-" if draw(st.booleans()) else "") + text


expressions = st.builds("{} {} {}".format, literals(),
                        st.sampled_from("+-*/"), literals())
free_text = st.text(max_size=12).filter(lambda t: not t.startswith("--"))
#: 3000 groups of 59, whose p/q terms pass the 4300-digit limit.
NINES = ",".join(["59"] * 3000)


@st.composite
def command_lines(draw):
    """A subcommand with its flags, then "--" and its values; or, now and
    then, the subcommand followed by free tokens."""
    words, arity, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    if draw(st.integers(0, 9)) == 0:
        return words + draw(st.lists(
            st.one_of(expressions, st.sampled_from(flags), free_text),
            max_size=5))
    values = draw(st.lists(expressions if words == ["eval"] else literals(),
                           min_size=arity, max_size=arity))
    return words + draw(st.lists(st.sampled_from(flags), unique=True)) \
        + ["--"] + values


@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(command_lines())
@example(["eval", "--oracle", "--", f"1,{NINES} / 7"])
@example(["eval", "--recognize", "--", f"1,{NINES} / 7"])
@example(["solve-quadratic", "--", "1", "0", f"-{NINES}"])
def test_any_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def erroring_record(stage: str, problem_id: str) -> str:
    """The record of ``stage-<stage>.corpus``, which fails in that stage,
    under another id."""
    with open(golden(f"stage-{stage}.corpus"), encoding="utf-8") as file:
        text = file.read()
    return text.replace(f"[problem t.{stage}]", f"[problem {problem_id}]")


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(seed=st.integers(0, 10**6), count=st.integers(1, 6),
       stage=st.sampled_from(STAGES), data=st.data(), json_flag=st.booleans())
def test_an_erroring_problem_hides_no_other_report(seed, count, stage, data,
                                                    json_flag):
    problems = gen.corpus(seed, count)
    # Sorted among the others at a drawn place: after gen.<place>.
    place = data.draw(st.integers(0, count - 1))
    bad = f"gen.{place:05d}.error"
    text = gen.write_corpus(problems) + "\n" + erroring_record(stage, bad)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mixed.corpus")
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["replay", "--all", "--corpus", path]
                        + ["--json"] * json_flag)
    assert code == 3
    assert err.getvalue().startswith(f"error: {bad}: {stage}: ")
    assert err.getvalue().count("\n") == 1
    for p in problems:
        assert p.id in out.getvalue()
