"""Reach: every executable line of sexakit runs in tier-1, or has a reason.

Runs pytest in process under ``sys.settrace`` and ``threading.settrace``
and records each line of the ``sexakit`` package that a "line" event
reaches.  A file's executable lines are the line starts of every code
object that compiling it makes.  The run fails when pytest fails, when
an executable line is not reached and ``ALLOWED`` does not name it by
its file and stripped source text, and when an ``ALLOWED`` entry names
no unreached line, so the list keeps up with the code.  Subprocesses
are not traced.  It needs only the standard library besides what
tier-1 needs::

    PYTHONPATH=src python tests/reach.py [pytest arguments]

It takes about twice as long as tier-1 itself.  CI makes this its one
traced tier-1 run, under ``-O`` and with ``SEXAKIT_CORPUS`` set::

    SEXAKIT_CORPUS=tests/golden/replay-noncanonical.corpus \\
        PYTHONPATH=src python -O tests/reach.py -q

so the same run shows that no correctness check rests on an ``assert``
in sexakit and that tier-1 ignores a caller's corpus.  Under ``-O`` an
``assert`` compiles to no line, so it is neither executable nor reached.
"""

import dis
import importlib.util
import os
import sys
import threading
import types

import pytest

#: The lines no in-process test reaches, by (file, stripped source
#: text), with the reason.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard: only subprocess tests run it, untraced",
    ("corpus.py", "return self.name"):
        "ProcedureSpec.value: read only by bench/workloads.py",
}


def executable_lines(source: str, path: str) -> set[int]:
    """The line starts of every code object that compiling source makes."""
    codes, lines = [compile(source, path, "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def run(argv: list[str], package: str) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on argv, and the (real path, line) pairs of
    the files in the directory package that it reached."""
    inside: dict[str, bool] = {}
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.dirname(os.path.realpath(name)) == package
        return local if inside[name] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {(os.path.realpath(name), line) for name, line in reached}


def main(argv: list[str]) -> int:
    # Found, not imported: the package's module bodies run traced.
    package = os.path.realpath(
        os.path.dirname(importlib.util.find_spec("sexakit").origin))
    code, reached = run(argv, package)
    faults, used, total = [], set(), 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as file:
            source = file.read()
        text = source.splitlines()
        lines = executable_lines(source, path)
        total += len(lines)
        for line in sorted(lines):
            if (path, line) in reached:
                continue
            key = (name, text[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                faults.append(f"{name}:{line}: not reached: {key[1]}")
    faults += [f"{name}: allowed line reached or gone: {line_text}"
               for name, line_text in sorted(ALLOWED.keys() - used)]
    for fault in faults:
        print(fault)
    print(f"reach: {total} executable lines, {len(used)} allowed unreached, "
          f"{len(faults)} faults, pytest exit {code}")
    return 1 if code or faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
