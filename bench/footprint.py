"""One pass of a workload's program work with sexakit alone.

    python3 bench/footprint.py cli             replay --all, text and --json
    python3 bench/footprint.py corpus FILE     load FILE, replay each problem
    python3 bench/footprint.py table FILE      one 'label<TAB>literal' a line

The process imports nothing of the benchmark's generator or oracle and
checks nothing.  Its last line of output is its peak RSS in KiB: the
memory a user's process needs for the same work.  The reciprocal table
workload times ``table_entry`` itself, so both run the same calls.
"""

from __future__ import annotations

import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import sexakit
from sexakit.errors import SexakitError


def table_entry(trace: sexakit.StepTrace, label: str, text: str):
    """Read one table entry, record it in ``trace`` and look it up.

    A regular entry is inverted, rendered, parsed back and its square's
    root taken; for an irregular one the two errors are returned.
    """
    v = sexakit.parse(text)
    regular = sexakit.is_regular(v)
    if regular:
        r = sexakit.reciprocal(v)
        rendered = sexakit.render(r)
        results = (r, rendered, sexakit.parse(rendered),
                   sexakit.sqrt_exact(v * v))
        trace.record(label, r)
    else:
        errors = []
        for call in (sexakit.reciprocal, lambda v: sexakit.render(1 / v)):
            try:
                errors.append(call(v))
            except SexakitError as exc:
                errors.append(exc)
        results = tuple(errors)
        trace.record(label, v)
    return v, regular, results, trace[label]


def peak_rss_kib() -> int:
    """This process's peak RSS since it was started, from /proc.

    ``ru_maxrss`` is no use here: Linux carries the parent's peak over
    into a child that the parent forked or vforked and that then exec'd.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(kind: str, path: Path | None) -> None:
    if kind == "cli":
        from sexakit.cli import main as cli_main
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            for json_flag in ([], ["--json"]):
                if cli_main(["replay", "--all", *json_flag]) != 0:
                    raise SystemExit("footprint: replay --all failed")
    elif kind == "corpus":
        for problem in sexakit.load_corpus(path):
            sexakit.replay(problem)
    elif kind == "table":
        trace = sexakit.StepTrace()
        for line in path.read_text("ascii").splitlines():
            table_entry(trace, *line.split("\t"))
    else:
        raise SystemExit(f"footprint: unknown workload kind {kind!r}")
    print(peak_rss_kib())


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]) if len(sys.argv) > 2 else None)
