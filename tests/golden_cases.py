"""Golden CLI output: the cases, their transcripts, and a runner.

Each case runs ``cli.main`` in process and compares the transcript

    exit <code>
    --- stdout
    <stdout>--- stderr
    <stderr>

with ``tests/golden/<case>.txt``.  The JSON cases pin key order too,
which a comparison through ``json.loads`` would not.  The
``stage-<stage>`` cases replay ``tests/golden/stage-<stage>.corpus``, a
one-problem corpus that fails in that ``ProcedureError`` stage, to pin
the error text.  ``replay-noncanonical.corpus`` spells its values in
ways the grammar allows but ``render`` does not write, with MISSING and
MISMATCH rows of both kinds, to pin the canonical report text.
``replay-bad-literal.corpus`` has a literal that also spells its field's
name, to pin the column of a bad literal.
``replay-duplicate-procedure.corpus`` names two procedures in one record,
``replay-empty-tag.corpus`` has a line tag that is only its "?",
``replay-procedure-usage.corpus`` has a procedure line without its "=",
``replay-unknown-field.corpus`` has a misspelled param and a given its
procedure does not read, ``replay-wrong-dimension.corpus`` states a
given in another dimension than its procedure's, and
``replay-no-records.corpus`` holds no record at all (replayed in text
and in JSON), to pin the exit-2 error of each.  ``replay-mixed.corpus``
holds a problem that passes, one that errors and one that mismatches,
replayed in text and in JSON, to pin that the error hides neither of
the other reports and that the run exits 3.
``replay-no-checks.corpus`` is the bundled corpus cut after smt24.p1's
params, a record with no expectation, replayed in text and in JSON, to
pin that a record that checks nothing fails and the run exits 1.  A
golden file changes only when the output is meant to change.

The module needs only the standard library, so an interpreter without
pytest can check every case::

    PYTHONPATH=src python -S -B tests/golden_cases.py

``-S`` leaves out ``site``, and with it pytest, so the run fails if the
module ever comes to need pytest; ``-B`` writes no bytecode.

It unsets ``SEXAKIT_CORPUS``, prints each case whose transcript differs
from its golden file, and exits 1 if any does.  ``tests/test_golden.py``
runs the same cases under pytest.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from sexakit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden(name: str) -> str:
    return os.path.join(GOLDEN, name)


QUADRATIC = ["solve-quadratic", "14;3,45", "1,9;22,30", "4;41,15"]
SUM_DIFF = ["sum-diff", "0;10", "0;10"]
LABOR_DEPTH = ["geom", "labor-depth", "6", "5", "40,0", "0;30",
               "--unit", "sar60"]
STAGES = ["solve-quadratic", "breadths", "cross-section", "length",
          "rect-canal-system", "labor-depth"]
NONCANONICAL = ["replay", "--all", "--corpus",
                golden("replay-noncanonical.corpus")]
MIXED = ["replay", "--all", "--corpus", golden("replay-mixed.corpus")]
NO_CHECKS = ["replay", "--all", "--corpus", golden("replay-no-checks.corpus")]
#: 3000 groups of 59: as p/q, terms past CPython's 4300-digit str(int) limit.
NINES = ",".join(["59"] * 3000)

CASES = {
    "replay-all": ["replay", "--all"],
    "replay-all-json": ["replay", "--all", "--json"],
    "solve-quadratic": QUADRATIC,
    "solve-quadratic-trace": QUADRATIC + ["--trace"],
    "solve-quadratic-json": QUADRATIC + ["--json"],
    "solve-quadratic-trace-json": QUADRATIC + ["--trace", "--json"],
    "sum-diff": SUM_DIFF,
    "sum-diff-trace": SUM_DIFF + ["--trace"],
    "sum-diff-json": SUM_DIFF + ["--json"],
    "labor-depth": LABOR_DEPTH,
    "labor-depth-trace": LABOR_DEPTH + ["--trace"],
    "labor-depth-json": LABOR_DEPTH + ["--json"],
    "trapezoid": ["geom", "trapezoid", "5", "3", "8"],
    "trapezoid-json": ["geom", "trapezoid", "5", "3", "8", "--json"],
    "volume": ["geom", "volume", "32", "45"],
    "volume-json": ["geom", "volume", "32", "45", "--json"],
    "eval-irregular": ["eval", "7;45 / 46;30"],
    "eval-recognize": ["eval", "7;45 / 46;30", "--recognize"],
    "eval-recognize-json": ["eval", "7;45 / 46;30", "--recognize", "--json"],
    "eval-oracle-fallback": ["eval", "1 / 7", "--oracle"],
    "eval-recognize-nonterminating": ["eval", "1 / 7", "--recognize"],
    "recip": ["recip", "40,0"],
    "recip-irregular": ["recip", "0;7"],
    "recip-semiprime": ["recip", "1,39,13,44,30,51,1,43,42,14,23"],
    "sqrt": ["sqrt", "21,9;8,26,15"],
    "sqrt-not-square": ["sqrt", "2"],
    "replay-unknown-id": ["replay", "nosuch"],
    "replay-no-id": ["replay"],
    "replay-id-and-all": ["replay", "nosuch", "--all"],
    "replay-noncanonical": NONCANONICAL,
    "replay-noncanonical-json": NONCANONICAL + ["--json"],
    "replay-bad-literal": ["replay", "--all", "--corpus",
                           golden("replay-bad-literal.corpus")],
    **{case: ["replay", "--all", "--corpus", golden(f"{case}.corpus")]
       for case in ("replay-duplicate-procedure", "replay-empty-tag",
                    "replay-procedure-usage", "replay-unknown-field",
                    "replay-wrong-dimension", "replay-no-records")},
    "replay-no-records-json": ["replay", "--all", "--json", "--corpus",
                               golden("replay-no-records.corpus")],
    "replay-mixed": MIXED,
    "replay-mixed-json": MIXED + ["--json"],
    "replay-no-checks": NO_CHECKS,
    "replay-no-checks-json": NO_CHECKS + ["--json"],
    "eval-oracle-huge": ["eval", f"1,{NINES} / 7", "--oracle"],
    "eval-recognize-huge": ["eval", f"1,{NINES} / 7", "--recognize"],
    "solve-quadratic-huge-negative": ["solve-quadratic", "--", "1", "0",
                                      f"-{NINES}"],
    **{f"stage-{stage}": ["replay", "--all", "--corpus",
                          golden(f"stage-{stage}.corpus")]
       for stage in STAGES},
}


def transcript(argv: list[str]) -> str:
    """The exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}" \
           f"--- stderr\n{err.getvalue()}"


def expected(case: str) -> str:
    with open(golden(f"{case}.txt"), encoding="utf-8") as file:
        return file.read()


if __name__ == "__main__":
    os.environ.pop("SEXAKIT_CORPUS", None)
    differ = [case for case, argv in CASES.items()
              if transcript(argv) != expected(case)]
    for case in differ:
        print(f"differs: {case}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} golden cases match")
    sys.exit(1 if differ else 0)
