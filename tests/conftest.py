"""Shared pytest wiring: ``SEXAKIT_CORPUS`` unset, and a terminal summary
for the acceptance suite."""

import os

# Tier-1 replays the bundled corpus: a caller's SEXAKIT_CORPUS must not
# reach a module-scoped fixture or a subprocess.  Tests of the variable
# set it themselves.
os.environ.pop("SEXAKIT_CORPUS", None)

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance")
    for name, outcome in _ACCEPTANCE_RESULTS.items():
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
