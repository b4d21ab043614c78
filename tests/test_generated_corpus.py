"""Replay of a seeded generated corpus, checked against its generator.

``bench/gen.py`` builds problems of every procedure answer-first with
plain ``Fraction`` arithmetic and knows the report rows each one must
produce, so it is an oracle independent of sexakit.  It is imported from
``bench/`` the way ``bench/smoke.py`` imports it, without writing there.
"""

import operator
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from sexakit.corpus import PROCEDURES, load_corpus, replay
from sexakit.sexa import render

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode, _write_bytecode = True, sys.dont_write_bytecode
try:
    import gen
finally:
    sys.path.remove(BENCH)
    sys.dont_write_bytecode = _write_bytecode

PROBLEMS = gen.corpus(seed=6, count=40)
NONCANONICAL = (Path(__file__).resolve().parent / "golden"
                / "replay-noncanonical.corpus")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated") / "generated.corpus"
    path.write_text(gen.write_corpus(PROBLEMS), "ascii")
    problems = load_corpus(path)
    assert [p.id for p in problems] == [p.id for p in PROBLEMS]
    return problems


def rows(report):
    """Report rows in the generator's (status, label, expected, got) form."""
    return [(r.status, r.label if r.kind == "step" else f"answer:{r.label}",
             r.expected, r.got) for r in report.rows]


def test_every_procedure_is_generated():
    assert {p.procedure for p in PROBLEMS} == PROCEDURES.keys()


def test_report_rows_match_the_generator(loaded):
    for want, problem in zip(PROBLEMS, loaded):
        report = replay(problem)
        assert rows(report) == want.rows(), want.id
        assert report.passed == want.passes(), want.id


def test_each_mutated_problem_gives_one_mismatch(loaded):
    mutated = [(want, problem) for want, problem in zip(PROBLEMS, loaded)
               if want.mutated is not None]
    assert len(mutated) == round(len(PROBLEMS) * gen.MUTATED_SHARE)
    for want, problem in mutated:
        statuses = [row.status for row in replay(problem).rows]
        assert statuses.count("MISMATCH") == 1, want.id
        assert statuses.count("MISSING") == 0, want.id


def test_every_problem_passes_verify(loaded):
    for problem in loaded:
        _, answers = problem.procedure.run(problem)
        problem.procedure.verify(problem, answers)


def test_report_texts_are_the_rendered_values(loaded):
    # Settled at load from the corpus literal, or rendered there when the
    # literal is not canonical or the unit is sar60 or susi.
    for problem in loaded + load_corpus(NONCANONICAL):
        for step in problem.expected_steps:
            assert step.text == render(step.value), (problem.id, step.label)
        assert problem.answer_texts == {
            name: str(q) for name, q in problem.expected_answers.items()
        }, problem.id


#: Fraction's arithmetic and comparison paths; Sexa has kernels of its own.
FRACTION_PATHS = ("_add", "_sub", "_mul", "_div", "__eq__", "_richcmp")


@contextmanager
def fraction_calls():
    """Count calls into FRACTION_PATHS while the block runs.

    Fraction's operators reach ``_add`` and the like through closures, not
    through the class, so a patched attribute would miss them: a profile
    hook counts calls to their code objects, and the hook in place before
    is restored afterwards.
    """
    codes = {getattr(Fraction, name).__code__: name
             for name in FRACTION_PATHS}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def test_fraction_call_counter_sees_every_path():
    a, b = Fraction(1, 2), Fraction(1, 3)
    with fraction_calls() as calls:
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv, operator.eq, operator.lt):
            op(a, b)
    assert calls == dict.fromkeys(FRACTION_PATHS, 1)


def test_replay_runs_no_fraction_arithmetic(loaded):
    with fraction_calls() as calls:
        for problem in loaded:
            replay(problem)
    assert calls == {}
