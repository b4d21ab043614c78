"""The three workloads: their inputs, one operation, and its check.

Load is closed-loop: one client in this process issues the next
operation when the previous one has returned, and ``cli_cold`` runs at
most one child process at a time.  Only the operation itself is timed;
checking its output against the oracle happens between operations.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import sexakit
import sexakit.cli
from sexakit.errors import IrregularDivisor, NonTerminating

import footprint
import gen
import oracle
import spec

#: Generated inputs of the untraced runs.
CORPUS_PROBLEMS = 2000
TABLE_ENTRIES = 1800
#: Operations of a traced run: a fixed amount, so span counts repeat.
TRACED_OPS = {"cli_cold": 40, "corpus_replay": 400, "reciprocal_table": 240}


@dataclass
class Step:
    fn: Callable
    args: tuple
    check: Callable[[object, BaseException | None], bool]
    #: A step that is not an operation itself; its time is shared out over
    #: the next ``amortize`` operations (the corpus load).
    amortize: int = 0


@dataclass
class Run:
    latencies: list[float] = field(default_factory=list)   # seconds
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def drive(workload, seconds: float | None = None, ops: int | None = None,
          wrap: Callable | None = None, between: Callable | None = None,
          every: float = 1.0) -> Run:
    """Run operations until ``seconds`` have passed or ``ops`` are done.

    At least one operation runs, however short ``seconds`` is.

    ``between`` is called between operations about every ``every``
    seconds; the time it takes is added to the deadline, not to any op.
    """
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else float("inf")
    next_between = start
    wrapped: dict[Callable, Callable] = {}
    run, share = Run(), 0.0
    for step in workload.steps():
        if between is not None and clock() >= next_between:
            t0 = clock()
            between()
            spent = clock() - t0
            deadline += spent
            next_between = t0 + spent + every
        if run.attempted and (clock() >= deadline or run.attempted == ops):
            break
        fn = step.fn
        if wrap is not None:
            if fn not in wrapped:
                wrapped[fn] = wrap(fn)
            fn = wrapped[fn]
        out, err = None, None
        t0 = clock()
        try:
            out = fn(*step.args)
        except Exception as exc:      # an unexpected error fails the op
            err = exc
        elapsed = clock() - t0
        try:
            ok = step.check(out, err)
        except Exception:             # output of the wrong shape
            ok = False
        if step.amortize:
            share = elapsed / step.amortize
        else:
            run.latencies.append(elapsed + share)
            run.failed += not ok
    return run


def footprint_mb(root: Path, kind: str, *path: Path) -> float:
    """Peak RSS of a fresh interpreter doing one pass of the workload.

    The benchmark's own inputs and oracle are not in that process (see
    ``footprint.py``), so the figure is the program's memory alone.
    """
    done = subprocess.run(
        [sys.executable, footprint.__file__, kind, *map(str, path)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        check=True)
    return int(done.stdout.split()[-1]) / 1024


# -- cli_cold -----------------------------------------------------------------

#: The console-script entry point of ``sexakit``, run from the source tree.
ENTRY = "import sys; from sexakit.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliCold:
    """``sexakit replay --all`` on the bundled corpus, text and --json."""

    def __init__(self, root: Path, seed: int, in_process: bool = False):
        self.root, self.env = root, child_env(root)
        self.first_json = seed % 2 == 1
        self.in_process = in_process
        corpus = root / "src" / "sexakit" / "data" / "susa_excavations.corpus"
        self.reference = sorted(gen.read_corpus(corpus.read_text("ascii")),
                                key=lambda p: p.id)
        lines = []
        for p in self.reference:
            lines += [f"{p.id} {label} {status} {expected} {got}"
                      for status, label, expected, got in p.rows()]
            lines.append(f"{p.id} PASS ({len(p.rows())} checks)")
        self.expected_text = "\n".join(lines) + "\n"

    def steps(self):
        run = self.run_main if self.in_process else self.spawn
        for i in itertools.count():
            json_mode = (i % 2 == 1) != self.first_json
            check = self.check_json if json_mode else self.check_text
            yield Step(run, (json_mode,), check)

    def argv(self, json_mode: bool) -> list[str]:
        return ["replay", "--all"] + (["--json"] if json_mode else [])

    def spawn(self, json_mode: bool) -> tuple[int, str]:
        done = subprocess.run(
            [sys.executable, "-c", ENTRY] + self.argv(json_mode),
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        return done.returncode, done.stdout.decode("utf-8", "replace")

    def run_main(self, json_mode: bool) -> tuple[int, str]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = sexakit.cli.main(self.argv(json_mode))
        return code, buffer.getvalue()

    def check_text(self, out, err) -> bool:
        return err is None and out == (0, self.expected_text)

    def check_json(self, out, err) -> bool:
        if err is not None or out[0] != 0:
            return False
        try:
            reports = json.loads(out[1])
        except ValueError:
            return False
        if [r.get("problem") for r in reports] != [
                p.id for p in self.reference]:
            return False
        for report, p in zip(reports, self.reference):
            rows = [(r["status"], r["label"] if r["kind"] == "step"
                     else f"answer:{r['label']}", r["expected"], r["got"])
                    for r in report["rows"]]
            if report["pass"] is not True or rows != p.rows():
                return False
        return True

    def peak_rss_mb(self) -> float:
        return footprint_mb(self.root, "cli")

    def close(self) -> None:
        pass


# -- corpus_replay ------------------------------------------------------------

class CorpusReplay:
    """``load_corpus`` of a seeded corpus file, then ``replay`` of each."""

    def __init__(self, root: Path, seed: int, count: int):
        self.root = root
        self.problems = gen.corpus(seed, count)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        self.path = out_dir / f"corpus-{os.getpid()}.corpus"
        self.path.write_text(gen.write_corpus(self.problems), "ascii")
        self.loaded: list = []
        self.good: set[int] = set()

    def steps(self):
        while True:
            yield Step(sexakit.load_corpus, (self.path,), self.check_load,
                       amortize=len(self.problems))
            for i, p in enumerate(self.problems):
                loaded = self.loaded[i] if i < len(self.loaded) else None
                yield Step(sexakit.replay, (loaded,),
                           functools.partial(self.check_replay, i, p))

    def check_load(self, out, err) -> bool:
        self.loaded = out if err is None else []
        self.good = {i for i, (p, got) in enumerate(zip(self.problems,
                                                        self.loaded))
                     if _same_problem(p, got)}
        return len(self.good) == len(self.problems)

    def check_replay(self, i: int, p: gen.Problem, out, err) -> bool:
        if err is not None or i not in self.good:
            return False
        rows = [(r.status,
                 r.label if r.kind == "step" else f"answer:{r.label}",
                 r.expected, r.got) for r in out.rows]
        return (out.problem_id == p.id and out.passed == p.passes()
                and rows == p.rows())

    def peak_rss_mb(self) -> float:
        return footprint_mb(self.root, "corpus", self.path)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def _same_problem(p: gen.Problem, got) -> bool:
    """A loaded TabletProblem holds exactly what the generator wrote."""
    steps, answers = p.written()
    return (got.id == p.id and got.procedure.value == p.procedure
            and {n: (q.magnitude, q.dim.value) for n, q in got.givens.items()}
            == {n: oracle.normalized(v, u) for n, v, u in p.givens}
            and got.parameters == dict(p.params)
            and [(s.label, s.value) for s in got.expected_steps] == steps
            and {n: (q.magnitude, q.dim.value)
                 for n, q in got.expected_answers.items()}
            == {n: (v, u) for n, v, u in answers})


# -- reciprocal_table ---------------------------------------------------------

class ReciprocalTable:
    """Long regular numbers checked the way a reciprocal table is read."""

    def __init__(self, root: Path, seed: int, n: int, count: int):
        self.root = root
        self.entries = gen.table(seed, n, count)
        self.trace = None

    def steps(self):
        while True:
            self.trace = sexakit.StepTrace()      # one trace per table
            for e in self.entries:
                yield Step(footprint.table_entry,
                           (self.trace, e.label, e.text),
                           functools.partial(self.check_entry, e))

    def check_entry(self, e: gen.Entry, out, err) -> bool:
        if err is not None:
            return False
        v, regular, results, looked_up = out
        if v != e.value or regular != (e.prime is None):
            return False
        if e.prime is None:
            inverse = 1 / e.value
            return (results[0] == inverse and results[1] == e.recip_text
                    and results[2] == inverse and results[3] == e.value
                    and looked_up == inverse)
        recip_error, render_error = results
        return (type(recip_error) is IrregularDivisor
                and recip_error.prime == e.prime
                and type(render_error) is NonTerminating
                and render_error.prime == e.prime
                and looked_up == e.value)

    def peak_rss_mb(self) -> float:
        path = self.root / ".bench_out" / f"table-{os.getpid()}.tsv"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(f"{e.label}\t{e.text}\n"
                                for e in self.entries), "ascii")
        try:
            return footprint_mb(self.root, "table", path)
        finally:
            path.unlink()

    def close(self) -> None:
        pass


def make(name: str, root: Path, seed: int, traced: bool):
    """The workload ``name`` at its untraced or traced size."""
    if name == "cli_cold":
        return CliCold(root, seed, in_process=traced)
    if name == "corpus_replay":
        return CorpusReplay(root, seed, TRACED_OPS[name] if traced
                            else CORPUS_PROBLEMS)
    if name == "reciprocal_table":
        return ReciprocalTable(root, seed, spec.TABLE_N,
                               TRACED_OPS[name] if traced else TABLE_ENTRIES)
    raise ValueError(f"unknown workload {name!r}")
