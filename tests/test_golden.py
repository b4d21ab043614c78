"""Golden CLI output: exact stdout, stderr and exit code, byte for byte.

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
name, to pin the column of a bad literal.  A golden file changes only
when the output is meant to change.
"""

from pathlib import Path

import pytest

from sexakit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

QUADRATIC = ["solve-quadratic", "14;3,45", "1,9;22,30", "4;41,15"]
SUM_DIFF = ["sum-diff", "0;10", "0;10"]
LABOR_DEPTH = ["geom", "labor-depth", "6", "5", "40,0", "0;30",
               "--unit", "sar60"]
STAGES = ["solve-quadratic", "breadths", "cross-section", "length",
          "rect-canal-system", "labor-depth"]
NONCANONICAL = ["replay", "--all", "--corpus",
                str(GOLDEN / "replay-noncanonical.corpus")]
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
    "replay-noncanonical": NONCANONICAL,
    "replay-noncanonical-json": NONCANONICAL + ["--json"],
    "replay-bad-literal": ["replay", "--all", "--corpus",
                           str(GOLDEN / "replay-bad-literal.corpus")],
    "eval-oracle-huge": ["eval", f"1,{NINES} / 7", "--oracle"],
    "eval-recognize-huge": ["eval", f"1,{NINES} / 7", "--recognize"],
    "solve-quadratic-huge-negative": ["solve-quadratic", "--", "1", "0",
                                      f"-{NINES}"],
    **{f"stage-{stage}": ["replay", "--all", "--corpus",
                          str(GOLDEN / f"stage-{stage}.corpus")]
       for stage in STAGES},
}


def transcript(capsys, argv: list[str]) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"


@pytest.mark.parametrize("case", CASES)
def test_golden_output(capsys, monkeypatch, case):
    monkeypatch.delenv("SEXAKIT_CORPUS", raising=False)
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert transcript(capsys, CASES[case]) == expected
