"""Corpus loading, replay verification, and the enlarged-canal system."""

import dataclasses
from fractions import Fraction

import pytest

import sexakit.corpus
import sexakit.geometry
import sexakit.procedures
import sexakit.units
from sexakit.corpus import (
    PROCEDURES,
    ExpectedStep,
    ProcedureSpec,
    bundled_corpus_path,
    find_problem,
    load_corpus,
    replay,
)
from sexakit.errors import (
    BadLiteral,
    CorpusParseError,
    EquationNotSatisfied,
    IrregularDivisor,
    MalformedProblem,
    NotAPerfectSquare,
    ProcedureError,
    UnknownProblem,
    UnknownProcedure,
)
from sexakit.geometry import SMALL_CANAL_CONSTANT, breadths_from_constraints
from sexakit.procedures import replay_smt24_p2, solve_sum_difference
from sexakit.sexa import Sexa, reciprocal, render
from sexakit.units import Dimension, Quantity


@pytest.fixture(scope="module")
def bundled():
    return load_corpus()


def write_corpus(tmp_path, text):
    path = tmp_path / "test.corpus"
    path.write_text(text)
    return path


class TestLoad:
    def test_bundled_problems(self, bundled):
        assert [p.id for p in bundled] == ["smt24.p1", "smt24.p2", "smt25.p1"]
        assert [p.procedure for p in bundled] == [
            PROCEDURES["quadratic"], PROCEDURES["rect-canal-system"],
            PROCEDURES["labor-depth"]]
        assert [p.procedure.name for p in bundled] == [
            "quadratic", "rect-canal-system", "labor-depth"]

    def test_bundled_path_exists(self):
        assert bundled_corpus_path().is_file()

    def test_smt24_p1_fields(self, bundled):
        p = bundled[0]
        assert p.parameters["A"] == Sexa("14;3,45")
        assert p.parameters["B"] == Sexa("1,9;22,30")
        assert p.parameters["C"] == Sexa("4;41,15")
        assert p.givens["V"] == Quantity(1440, Dimension.VOLUME_SAR)
        first = p.expected_steps[0]
        assert (first.label, render(first.value), first.line) \
            == ("half_B", "34;41,15", "obv.26")
        assert p.expected_answers["x"] \
            == Quantity(45, Dimension.LENGTH_NINDAN)

    def test_uncertain_flags(self, bundled):
        p2 = bundled[1]
        flagged = {s.label for s in p2.expected_steps if s.uncertain}
        assert flagged == {"half_diff", "half_sum"}
        # the tag itself keeps no question mark
        assert all("?" not in s.line for s in p2.expected_steps)

    def test_report_text_takes_no_part_in_equality(self, bundled):
        step = ExpectedStep("u", Sexa(5), "obv.33")
        assert step.text == "5"        # render(value) when none is given
        settled = ExpectedStep("u", Sexa(5), "obv.33", text="5")
        assert (step, hash(step), repr(step)) \
            == (settled, hash(settled), repr(settled))
        assert "text" not in repr(step)
        p = bundled[0]
        rebuilt = dataclasses.replace(p, answer_texts=None)
        assert rebuilt == p and repr(rebuilt) == repr(p)
        assert rebuilt.answer_texts == p.answer_texts \
            == {n: str(q) for n, q in p.expected_answers.items()}

    def test_empty_file(self, tmp_path):
        assert load_corpus(write_corpus(tmp_path, "")) == []
        assert load_corpus(write_corpus(tmp_path, "# only comments\n")) == []

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path, "")
        monkeypatch.setenv("SEXAKIT_CORPUS", str(path))
        assert load_corpus() == []

    def test_bad_literal_position(self, tmp_path):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 61",
            "param B = 1",
            "param C = 1",
        ]))
        with pytest.raises(BadLiteral) as err:
            load_corpus(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("field,message", [
        ("param A = 61",
         "line 3, column 11: '61': digit 61 out of range 0..59"),
        ("given V = 1,61 volume-sar",
         "line 3, column 11: '1,61': digit 61 out of range 0..59"),
        ("expect step half_B = 3;7x @ obv.26",
         "line 3, column 22: '3;7x': bad digit group '7x'"),
        ("expect answer x = 45 furlong",
         "line 3, column 19: '45 furlong': unknown unit 'furlong'"),
        ("param  A =  0;30;1   # two points",
         "line 3, column 13: '0;30;1': more than one radix point"),
        # The literal spells the field's name: found after the "=".
        ("param A = A",
         "line 3, column 11: 'A': bad digit group 'A'"),
    ])
    def test_bad_literal_message(self, tmp_path, field, message):
        path = write_corpus(
            tmp_path, f"[problem t.p1]\nprocedure = quadratic\n{field}\n")
        with pytest.raises(BadLiteral) as err:
            load_corpus(path)
        assert str(err.value) == message

    def test_unknown_procedure(self, tmp_path):
        path = write_corpus(tmp_path,
                            "[problem t.p1]\nprocedure = divination\n")
        with pytest.raises(UnknownProcedure):
            load_corpus(path)

    @pytest.mark.parametrize("text,fragment", [
        ("param A = 1\n", "outside"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\n[problem t.p1]\n", "duplicate"),
        ("[problem bad id]\n", "header"),
        ("[problem t.p1]\nwibble = 3\n", "unrecognized"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\n", "missing"),
        ("[problem t.p1]\nparam A = 1\n", "procedure"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\nexpect step a = 1\n", "line-tag"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\nexpect step a = 1 @ x\nexpect step a = 2 @ y\n",
         "duplicate step"),
    ])
    def test_structural_errors(self, tmp_path, text, fragment):
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert fragment.split()[-1] in str(err.value)

    @pytest.mark.parametrize("line,what", [
        ("given V = 1 volume-sar", "given 'V'"),
        ("param A = 2", "param 'A'"),
        ("expect answer u = 1 nindan", "answer 'u'"),
    ])
    def test_repeated_key_rejected_with_line(self, tmp_path, line, what):
        text = ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\n"
                "param B = 1\nparam C = 1\ngiven V = 1 volume-sar\n"
                "expect answer u = 1 nindan\n" + line + "\n")
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert err.value.line == 8
        assert f"duplicate {what}" in str(err.value)

    def test_unreadable_file_is_parse_error(self, tmp_path):
        not_utf8 = tmp_path / "latin1.corpus"
        not_utf8.write_bytes(b"[problem t.p1]\n# k\xf9\n")
        for path in (tmp_path / "missing.corpus", tmp_path, not_utf8):
            with pytest.raises(CorpusParseError) as err:
                load_corpus(path)
            assert str(path) in str(err.value)

    def test_seven_bit_only(self, tmp_path):
        path = write_corpus(tmp_path, "[problem t.p1]\n# kùš\n")
        with pytest.raises(CorpusParseError):
            load_corpus(path)

    def test_find_problem(self, bundled):
        assert find_problem(bundled, "smt25.p1").id == "smt25.p1"
        with pytest.raises(UnknownProblem):
            find_problem(bundled, "nosuch")


#: The smallest record of each registered procedure, with one answer
#: that it replays to.
MINIMAL_RECORDS = {
    "quadratic": ["param A = 1", "param B = 5", "param C = 6",
                  "expect answer u = 6 nindan"],
    "rect-canal-system": ["param diff = 0;10", "param depth_factor = 12",
                          "param thirteenth = 13", "param rhs = 1;15",
                          "expect answer x = 0;30 1"],
    "labor-depth": ["given total_water = 6 sar60",
                    "given workers = 40,0 workers",
                    "given width = 0;30 nindan", "param reach_length = 5",
                    "expect answer z = 4;30 kus"],
}
REQUIRED_FIELDS = [(spec.name, field) for spec in PROCEDURES.values()
                   for field in spec.params + spec.givens]


def minimal_record(name, drop=None):
    fields = [line for line in MINIMAL_RECORDS[name]
              if line.split()[:2] not in (["param", drop], ["given", drop])]
    return "\n".join(["[problem t.min]", f"procedure = {name}", *fields])


class TestRegistry:
    def test_every_procedure_has_a_minimal_record(self):
        assert MINIMAL_RECORDS.keys() == PROCEDURES.keys()
        assert all(spec.name == name for name, spec in PROCEDURES.items())

    @pytest.mark.parametrize("name", PROCEDURES)
    def test_minimal_record_replays_pass(self, tmp_path, name):
        problem, = load_corpus(write_corpus(tmp_path, minimal_record(name)))
        assert problem.procedure is PROCEDURES[name]
        report = replay(problem)
        assert report.passed and len(report.rows) == 1

    @pytest.mark.parametrize("name,field", REQUIRED_FIELDS)
    def test_missing_required_field_is_named(self, tmp_path, name, field):
        text = minimal_record(name, drop=field)
        assert f" {field} = " not in text
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert err.value.line == 1
        assert str(err.value).endswith(
            f"problem t.min is missing fields: {field}")


class TestReplay:
    def test_all_bundled_pass(self, bundled):
        for problem in bundled:
            report = replay(problem)
            assert report.passed, report.to_text()
            assert all(r.status == "MATCH" for r in report.rows)

    def test_deterministic(self, bundled):
        assert replay(bundled[1]) == replay(bundled[1])

    def test_report_text_format(self, bundled):
        lines = replay(bundled[2]).to_text().splitlines()
        assert lines[0] == "smt25.p1 recip_reach MATCH 0;12 0;12"
        assert "smt25.p1 answer:z MATCH 4;30 kus 4;30 kus" in lines
        assert lines[-1].startswith("smt25.p1 PASS")

    def test_report_dict_format(self, bundled):
        d = replay(bundled[0]).to_dict()
        assert d["problem"] == "smt24.p1" and d["pass"] is True
        by_label = {r["label"]: r for r in d["rows"]}
        assert by_label["root"]["expected"] == "35;37,30"
        assert by_label["root"]["line"] == "obv.29"

    def test_uncertain_carried_to_report(self, bundled):
        rows = replay(bundled[1]).rows
        assert {r.label for r in rows if r.uncertain} \
            == {"half_diff", "half_sum"}

    def test_mismatch_detected(self, tmp_path, bundled):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 14;3,45",
            "param B = 1,9;22,30",
            "param C = 4;41,15",
            "expect step u = 6 @ obv.33",
            "expect answer u = 6 nindan",
        ]))
        report = replay(load_corpus(path)[0])
        assert not report.passed
        assert [r.status for r in report.rows] == ["MISMATCH", "MISMATCH"]
        row = report.rows[0]
        assert row.expected == "6" and row.got == "5"

    def test_missing_label_detected(self, tmp_path):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 1",
            "param B = 0",
            "param C = 0",
            "expect step nonexistent = 1 @ x.1",
            "expect answer w = 1 nindan",
        ]))
        report = replay(load_corpus(path)[0])
        assert not report.passed
        assert {r.status for r in report.rows} == {"MISSING"}

    def test_wrong_answer_unit_is_mismatch(self, tmp_path):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 1",
            "param B = 0",
            "param C = 0",
            "expect answer u = 0 kus",
        ]))
        report = replay(load_corpus(path)[0])
        assert [r.status for r in report.rows] == ["MISMATCH"]

    def test_procedure_error_carries_problem_id(self, tmp_path):
        # width 7 is irregular, so the depth division cannot be done
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.bad]",
            "procedure = labor-depth",
            "given total_water = 1 volume-sar",
            "given workers = 1 workers",
            "given width = 7 nindan",
            "param reach_length = 1",
        ]))
        with pytest.raises(ProcedureError) as err:
            replay(load_corpus(path)[0])
        assert err.value.problem_id == "t.bad"
        assert isinstance(err.value.cause, IrregularDivisor)

    def test_quadratic_without_volume_skips_geometry(self, tmp_path):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 1",
            "param B = 5",
            "param C = 6",
            "expect step u = 6 @ x.1",
            "expect answer u = 6 nindan",
        ]))
        report = replay(load_corpus(path)[0])
        assert report.passed


class TestEnlargedCanalSystem:
    def test_smt24_p2_values_in_tablet_order(self):
        x, y, trace = replay_smt24_p2(Sexa("0;10"), 12, 13, Sexa("1;15"))
        assert (x, y) == (Sexa("0;30"), Sexa("0;20"))
        assert [render(m) for m in trace.magnitudes()] == [
            "16;15",      # rev.7
            "0;1,40",     # rev.8
            "16;13,20",   # rev.9
            "6",          # rev.10
            "0;5",        # rev.10
            "0;30",       # rev.11
            "8;6,40",     # rev.12
            "0;1,40",     # rev.12
            "0;21,40",    # rev.13
            "7;45",       # rev.14
            "6;30",       # rev.15
            "1",          # rev.16
            "7;30",       # rev.17
            "39",         # rev.18
            "46;30",      # rev.18
            "0;10",       # rev.20
            "0;5",        # rev.21
            "0;0,25",     # rev.21
            "0;10,25",    # rev.22
            "0;25",       # rev.23
            "0;30",       # rev.23
            "0;20",       # rev.24
        ]

    def test_solution_satisfies_system(self):
        # independent of the solver: substitute into the three equations
        x, y, _ = replay_smt24_p2(Sexa("0;10"), 12, 13, Sexa("1;15"))
        xf, yf = Fraction(x), Fraction(y)
        diff = Fraction(1, 6)
        z = 12 * diff
        assert xf - yf == diff
        assert z == 2
        squares = xf**2 + yf**2
        assert z * squares + xf * yf * (z + 1) + squares / 13 \
            == Fraction(5, 4)

    def test_degenerate_equal_holes(self):
        # diff = 0: depth vanishes and xy comes straight from the total
        x, y, trace = replay_smt24_p2(0, 12, 13, Sexa(15, 52))
        assert x == y == Sexa("0;30")
        assert "recip_z" not in trace
        assert trace["xy"] == Fraction(1, 4)

    def test_irregular_difference_rejected(self):
        with pytest.raises(IrregularDivisor):
            replay_smt24_p2(Sexa(7), 12, 13, Sexa(10000))

    @pytest.mark.parametrize("diff", [0, Sexa("0;10")])
    def test_zero_thirteenth_rejected(self, diff):
        # The system divides by it, so no x and y can satisfy it.
        with pytest.raises(MalformedProblem, match="thirteenth"):
            replay_smt24_p2(diff, 12, 0, 1)

    def test_non_square_radicand_rejected(self):
        # xy = 2 with diff = 0 makes the radicand 2
        with pytest.raises(NotAPerfectSquare):
            replay_smt24_p2(0, 12, 13, Sexa(30, 13))

    def test_smt24_p2_answers_are_bare_numbers(self, bundled):
        p2 = find_problem(bundled, "smt24.p2")
        one = Dimension.DIMENSIONLESS
        assert p2.expected_answers == {
            "x": Quantity(Sexa("0;30"), one),
            "y": Quantity(Sexa("0;20"), one),
            "z": Quantity(2, one),
        }


WRONG_VALUES = "\n".join([
    "[problem t.step]",             # smt24.p1 with one wrong step
    "procedure = quadratic",
    "param A = 14;3,45",
    "param B = 1,9;22,30",
    "param C = 4;41,15",
    "expect step half_B = 34;41,15 @ obv.26",
    "expect step root = 35;37,31 @ obv.29",
    "expect answer u = 5 nindan",
    "[problem t.answer]",           # smt24.p1 with one wrong answer
    "procedure = quadratic",
    "param A = 14;3,45",
    "param B = 1,9;22,30",
    "param C = 4;41,15",
    "expect step root = 35;37,30 @ obv.29",
    "expect answer u = 5;0,1 nindan",
])


class TestReplayRowText:
    """Every row shows an independent rendering of both values."""

    def check_rows(self, problem):
        trace, answers = problem.procedure.run(problem)
        report = replay(problem)
        expected_steps = {e.label: e for e in problem.expected_steps}
        for row in report.rows:
            if row.kind == "step":
                expected = render(expected_steps[row.label].value)
                got = trace[row.label]
                got = render(got.magnitude if isinstance(got, Quantity)
                             else got)
            else:
                expected = str(problem.expected_answers[row.label])
                got = str(answers[row.label])
            assert (row.expected, row.got) == (expected, got)
            assert (row.status == "MATCH") == (expected == got)
        return report

    def test_bundled_rows(self, bundled):
        for problem in bundled:
            assert self.check_rows(problem).passed

    def test_mismatch_rows_show_the_value_got(self, tmp_path):
        step, answer = load_corpus(write_corpus(tmp_path, WRONG_VALUES))
        rows = self.check_rows(step).rows
        assert [(r.label, r.status, r.expected, r.got) for r in rows] == [
            ("half_B", "MATCH", "34;41,15", "34;41,15"),
            ("root", "MISMATCH", "35;37,31", "35;37,30"),
            ("u", "MATCH", "5 nindan", "5 nindan")]
        rows = self.check_rows(answer).rows
        assert [(r.label, r.status, r.expected, r.got) for r in rows] == [
            ("root", "MATCH", "35;37,30", "35;37,30"),
            ("u", "MISMATCH", "5;0,1 nindan", "5 nindan")]

    def test_only_values_got_are_written(self, tmp_path, monkeypatch):
        # Expected texts are settled at load: replay writes a value only
        # for a MISMATCH row, and only the value it computed.
        problems = load_corpus(write_corpus(tmp_path, WRONG_VALUES))
        written = []

        def counting(x, *args, **kwargs):
            written.append(x)
            return render(x, *args, **kwargs)

        monkeypatch.setattr(sexakit.corpus, "render", counting)
        monkeypatch.setattr(sexakit.units, "render", counting)
        for problem in problems:
            replay(problem)
        assert written == [Sexa("35;37,30"), Sexa(5)]


def _broken_breadths(upper, excess, excess_share):
    """The breadth rule with the wrong share constant, 1/6 for 1/12."""
    return breadths_from_constraints(upper, excess=excess,
                                     excess_share=Sexa(1, 6))


def _swapped_holes(problem):
    """The sum-difference split with x and y exchanged."""
    x, y, trace = solve_sum_difference(problem)
    return y, x, trace


def _constant_forgotten(value):
    """The canal constant's reciprocal read as 1: z' taken for z."""
    if value == SMALL_CANAL_CONSTANT.ratio:
        return Sexa(1)
    return reciprocal(value)


#: One broken solver step per procedure: (where it is patched in, the
#: broken step, the problem it breaks, the equation that catches it).
#: Each still runs every scribal step to a finite value, so only the
#: back-substitution can tell.
MUTANTS = {
    "quadratic-breadths": (
        (sexakit.corpus, "breadths_from_constraints", _broken_breadths),
        "smt24.p1", "z = 12*(excess + excess_share*(u - v))"),
    "quadratic-root": (
        (sexakit.procedures, "reciprocal", lambda x: 2 * reciprocal(x)),
        "t.min", "A*u^2 - B*u = C"),
    "rect-canal-system": (
        (sexakit.procedures, "solve_sum_difference", _swapped_holes),
        "smt24.p2", "x - y = diff"),
    "labor-depth": (
        (sexakit.geometry, "reciprocal", _constant_forgotten),
        "smt25.p1", "z'*width*reach_length*workers = total_water"),
}


class TestVerify:
    """``replay`` substitutes every answer back in, as the ``verify`` stage."""

    def test_verify_is_required(self):
        spec = PROCEDURES["quadratic"]
        with pytest.raises(TypeError):
            ProcedureSpec(spec.name, spec.params, spec.givens, spec.run)

    def test_every_answer_is_substituted(self, bundled):
        # Nudge one answer at a time: verify must notice each one.
        for problem in bundled:
            _, answers = problem.procedure.run(problem)
            for name, answer in answers.items():
                wrong = dict(answers)
                wrong[name] = Quantity(answer.magnitude + Sexa(1, 60),
                                       answer.dim)
                with pytest.raises(EquationNotSatisfied):
                    problem.procedure.verify(problem, wrong)

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_broken_solver_step_fails_verify(self, tmp_path, monkeypatch,
                                             bundled, mutant):
        (module, name, broken), problem_id, equation = MUTANTS[mutant]
        problems = bundled + load_corpus(write_corpus(
            tmp_path, minimal_record("quadratic")))
        problem = find_problem(problems, problem_id)
        assert replay(problem).passed
        monkeypatch.setattr(module, name, broken)
        with pytest.raises(ProcedureError) as err:
            replay(problem)
        assert (err.value.problem_id, err.value.stage) == (problem_id,
                                                           "verify")
        assert isinstance(err.value.cause, EquationNotSatisfied)
        assert str(err.value) == \
            f"{problem_id}: verify: {equation} does not hold"
