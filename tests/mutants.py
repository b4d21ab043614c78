"""Mutants: each small break of sexakit fails the tests named for it.

``MUTANTS`` is the table: a name, a file, the exact text a mutant
replaces, the text it puts there, and the test ids that must fail under
it.  For each row the runner copies the files git tracks into a
temporary directory, makes the one replacement there, and runs pytest
on only the row's test ids in a child interpreter that imports sexakit
from the copy.  It fails when a row's old text does not occur exactly
once in its file (so the table keeps up with the code), and when a
mutant survives: one of its test ids does not fail.  An id that names a
parametrized test, a class or a file fails when any test it selects
fails.  The working tree is never written.  It needs only the standard
library, git and pytest::

    python tests/mutants.py

A row takes a few seconds.
"""

import os
import shutil
import subprocess
import sys
import tempfile

_SEXA, _CORPUS = "src/sexakit/sexa.py", "src/sexakit/corpus.py"
_CLI, _INIT = "src/sexakit/cli.py", "src/sexakit/__init__.py"
_BLOCK_SEARCH = "tests/test_sexa.py::TestBlockSearch::"
_BULK = "tests/test_sexa.py::TestBulkKernels::"
_REGISTRY = "tests/test_corpus.py::TestRegistry::"
_LOAD = "tests/test_corpus.py::TestLoad::"
_BLOCKS = "tests/test_corpus.py::TestLineBlocks::"

#: (name, file, old text, new text, test ids that must fail).
MUTANTS = [
    ("walk step 4", _SEXA,
     "for c in range(lo | 1, hi, 2):", "for c in range(lo | 1, hi, 4):",
     [_BLOCK_SEARCH + "test_matches_the_wheel_loop_at_the_limits"]),
    ("block bound 3817 -> 3877", _SEXA,
     "937, 1897, 3817,", "937, 1897, 3877,",
     [_BLOCK_SEARCH + "test_blocks_are_the_wheel_search_blocks"]),
    ("chunk width 60**3", _SEXA,
     "n, chunk = divmod(n, 60 ** 4)", "n, chunk = divmod(n, 60 ** 3)",
     [_BULK + "test_render_at_chunk_boundaries",
      "tests/test_sexa.py::TestDigitKernels::"
      "test_values_at_chunk_and_split_edges"]),
    ("_CANONICAL allows leading zeros", _SEXA,
     '_DIGIT, _NONZERO = "[1-5]?[0-9]"', '_DIGIT, _NONZERO = "[0-5]?[0-9]"',
     ["tests/test_sexa.py::TestCanonicalLanguage::"
      "test_canonical_iff_render_gives_it_back",
      "tests/test_golden.py::test_golden_output[replay-noncanonical]"]),
    ("replay without verify", _CORPUS,
     "        problem.procedure.verify(problem, answers)\n", "        pass\n",
     ["tests/test_corpus.py::TestVerify::"
      "test_broken_solver_step_fails_verify"]),
    ("dimension check skipped", _CORPUS,
     "if quantity.dim is not dims[name]:", "if False:",
     [_REGISTRY + "test_given_in_another_dimension_is_refused_at_its_line",
      "tests/test_golden.py::test_golden_output[replay-wrong-dimension]"]),
    ("header line reported", _CORPUS,
     "line=self.given_lines[name])", "line=self.line_no)",
     [_REGISTRY + "test_given_in_another_dimension_is_refused_at_its_line",
      _REGISTRY
      + "test_given_before_the_procedure_line_is_refused_at_its_line"]),
    ("_smooth: twos // 2", _SEXA,
     "k = (twos + 1) // 2", "k = twos // 2",
     ["tests/test_sexa.py::TestRender::test_values",
      _BULK + "test_smooth_matches_one_factor_loop"]),
    ("_smooth: k = count", _SEXA,
     "k = max(k, count)", "k = count",
     ["tests/test_sexa.py::TestRender::test_values",
      _BULK + "test_smooth_large_powers"]),
    ("tag keeps its blanks", _CORPUS,
     "tablet_line = tag.rstrip(_TAG_MARKS)", 'tablet_line = tag.rstrip("?")',
     [_LOAD + "test_uncertain_tag_names_its_line",
      _LOAD + "test_structural_errors",
      "tests/test_corpus_fuzz.py::"
      "test_any_corpus_text_loads_or_raises_a_sexakit_error"]),
    ("no drain after a bad line", _CORPUS,
     "        for _ in lines:\n            pass\n        raise\n",
     "        raise\n",
     [_BLOCKS + "test_a_bad_byte_is_reported_before_an_earlier_bad_line",
      _BLOCKS + "test_a_read_error_after_the_first_block"]),
    ("bad byte offset without the held bytes", _CORPUS,
     "at = file.buffer.tell() - len(exc.object) + exc.start",
     "at = file.buffer.tell() + exc.start",
     [_BLOCKS + "test_lines_are_the_split_of_the_text"]),
    ("no final empty line", _CORPUS,
     '    if line.endswith("\\n"):\n        yield ""\n', "",
     [_BLOCKS + "test_lines_are_the_split_of_the_text"]),
    ("a record that checks nothing passes", _CORPUS,
     'return bool(self.rows) and all(r.status == "MATCH" for r in self.rows)',
     'return all(r.status == "MATCH" for r in self.rows)',
     ["tests/test_golden.py::test_golden_output[replay-no-checks]",
      "tests/test_golden.py::test_golden_output[replay-no-checks-json]"]),
    ("no stdout flush in main's try", _CLI,
     "        code = args.func(args)\n"
     "        # A write error still buffered surfaces here, not at exit.\n"
     "        sys.stdout.flush()\n        return code\n",
     "        return args.func(args)\n",
     ["tests/test_cli.py::TestOutputThatCannotBeWritten::"
      "test_exits_two_and_points_stdout_at_devnull",
      "tests/test_cli.py::TestOutputThatCannotBeWritten::"
      "test_a_full_device_in_a_child"]),
    ("eager corpus import", _INIT,
     "__all__ = list(_SOURCES)\n",
     "__all__ = list(_SOURCES)\nfrom .corpus import *\n",
     ["tests/test_docs.py::test_bare_import_loads_no_submodule"]),
    ("export moved to another module", _INIT,
     '"render", "halve", "square", "sqrt_exact",\n'
     '        "reciprocal", "is_regular"),\n    "units": (\n        ',
     '"render", "square", "sqrt_exact",\n'
     '        "reciprocal", "is_regular"),\n    "units": (\n        "halve", ',
     ["tests/test_docs.py::test_every_export_resolves[sexakit.units]",
      "tests/test_docs.py::test_first_use_loads_the_name_and_keeps_it"
      "[halve]"]),
    ("export dropped", _INIT,
     '"find_problem", "replay"),', '"find_problem"),',
     ["tests/test_docs.py::test_every_earlier_export_remains"]),
    ("first use not stored", _INIT,
     "    globals()[name] = value\n", "",
     ["tests/test_docs.py::test_first_use_loads_the_name_and_keeps_it"]),
    ("one catch around every replay", _CLI,
     "    for problem in selected:\n"
     "        try:\n"
     "            outcomes.append(corpus_mod.replay(problem))\n"
     "        except ProcedureError as exc:\n"
     "            print(f\"error: {exc}\", file=sys.stderr)\n"
     "            outcomes.append(exc)\n",
     "    try:\n"
     "        for problem in selected:\n"
     "            outcomes.append(corpus_mod.replay(problem))\n"
     "    except ProcedureError as exc:\n"
     "        print(f\"error: {exc}\", file=sys.stderr)\n"
     "        outcomes.append(exc)\n",
     ["tests/test_golden.py::test_golden_output[replay-mixed]",
      "tests/test_golden.py::test_golden_output[replay-mixed-json]",
      "tests/test_cli_fuzz.py::"
      "test_an_erroring_problem_hides_no_other_report"]),
    ("help written by argparse", _CLI,
     "        args = _parse_args(parser, argv)\n",
     "        args = parser.parse_args(argv)\n",
     ["tests/test_cli.py::TestOutputThatCannotBeWritten::"
      "test_help_that_cannot_be_written"]),
]

#: The child: pytest on argv[2:], then the id of every failed test
#: (setup, call or teardown), one a line, into the file argv[1].
_CHILD = """\
import sys
import pytest

failed = set()


class Failures:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            failed.add(report.nodeid)


code = pytest.main(sys.argv[2:], plugins=[Failures()])
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write("".join(f"{nodeid}\\n" for nodeid in sorted(failed)))
sys.exit(code)
"""


def tracked_files(root: str) -> list[str]:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                            capture_output=True, text=True).stdout
    return [name for name in listed.split("\0") if name]


def selects(test_id: str, nodeid: str) -> bool:
    """Whether the pytest id test_id selects the test nodeid."""
    return nodeid == test_id or nodeid.startswith((test_id + "[",
                                                   test_id + "::"))


def run(root: str, files: list[str], mutant) -> list[str]:
    """The faults of one row: empty when its mutant is caught."""
    name, path, old, new, test_ids = mutant
    with tempfile.TemporaryDirectory() as tmp:
        for file in files:
            os.makedirs(os.path.join(tmp, os.path.dirname(file)),
                        exist_ok=True)
            shutil.copyfile(os.path.join(root, file),
                            os.path.join(tmp, file))
        with open(os.path.join(tmp, path), encoding="utf-8") as file:
            text = file.read()
        if text.count(old) != 1:
            return [f"{name}: old text occurs {text.count(old)} times "
                    f"in {path}: {old!r}"]
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as file:
            file.write(text.replace(old, new))
        report = os.path.join(tmp, "failed.txt")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, report, "-q", "--tb=no",
             "-p", "no:cacheprovider", *test_ids],
            cwd=tmp, env=env, capture_output=True, text=True)
        failed = []
        if os.path.exists(report):
            with open(report, encoding="utf-8") as file:
                failed = file.read().splitlines()
    faults = [f"{name}: {test_id} did not fail" for test_id in test_ids
              if not any(selects(test_id, nodeid) for nodeid in failed)]
    if faults:
        # pytest's last lines name an id that selected no test, or a
        # mutant that broke collection.
        for line in (child.stdout + child.stderr).splitlines()[-3:]:
            print(line[:200])
    return faults


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = tracked_files(root)
    faults = []
    for mutant in MUTANTS:
        found = run(root, files, mutant)
        print(f"{'caught' if not found else 'FAULT '}  {mutant[0]}",
              flush=True)
        faults += found
    for fault in faults:
        print(fault)
    print(f"mutants: {len(MUTANTS)} run, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
