"""Golden CLI output: exact stdout, stderr and exit code, byte for byte.

The cases, the transcript and the golden files are described in
``tests/golden_cases.py``, which also runs them without pytest.
"""

import pytest

from golden_cases import CASES, expected, transcript


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case):
    assert transcript(CASES[case]) == expected(case)
