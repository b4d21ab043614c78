"""Golden CLI output: exact stdout, stderr and exit code, byte for byte.

The cases, the transcript and the golden files are described in
``tests/golden_cases.py``, which also runs them without pytest.
"""

import json

import pytest

from golden_cases import CASES, expected, transcript


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case):
    assert transcript(CASES[case]) == expected(case)


@pytest.mark.parametrize("case", [case for case in CASES
                                  if case.endswith("-json")])
def test_json_output_parses(case):
    # A golden file pins the bytes; this checks that they are JSON.  A
    # replay that reports no record prints nothing, not even "[]".
    after = transcript(CASES[case]).partition("\n--- stdout\n")[2]
    stdout = after.rpartition("--- stderr\n")[0]
    if stdout:
        json.loads(stdout)
