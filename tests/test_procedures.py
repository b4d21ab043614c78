"""Scribal procedures: completing the square, sum-difference, recognition."""

import copy
import math
import random
from fractions import Fraction

import pytest

import sexakit.procedures
from sexakit.errors import (
    InconsistentConstraint,
    IrregularDivisor,
    MalformedProblem,
    NegativeRadicand,
    NoFiniteQuotient,
    NotAPerfectSquare,
    ZeroDivisor,
)
from sexakit.geometry import breadths_from_constraints
from sexakit.procedures import (
    QuadraticProblem,
    Step,
    StepTrace,
    SumDifferenceProblem,
    divide_by_recognition,
    solve_quadratic_scribal,
    solve_sum_difference,
)
from sexakit.sexa import Sexa, render, sqrt_exact, square


def quadratic_oracle_positive_branch(a, b, c):
    """Independent check: (b/2 + sqrt((b/2)^2 + a*c)) / a over Fractions."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    radicand = (b / 2) ** 2 + a * c
    root_num = math.isqrt(radicand.numerator)
    root_den = math.isqrt(radicand.denominator)
    assert root_num**2 == radicand.numerator
    assert root_den**2 == radicand.denominator
    return (b / 2 + Fraction(root_num, root_den)) / a


SMT24_P1 = QuadraticProblem(
    Sexa("14;3,45"), Sexa("1,9;22,30"), Sexa("4;41,15"))


class TestQuadratic:
    def test_problem_invariants(self):
        with pytest.raises(MalformedProblem):
            QuadraticProblem(0, 1, 1)
        with pytest.raises(MalformedProblem):
            QuadraticProblem(-1, 1, 1)

    def test_smt24_p1_root_and_trace(self):
        u, trace = solve_quadratic_scribal(SMT24_P1)
        assert u == 5
        assert [s.label for s in trace] == [
            "half_B", "half_B_sq", "AC", "radicand", "root", "root_plus", "u"]
        assert [render(s.magnitude()) for s in trace] == [
            "34;41,15",             # obv.26
            "20,3;13,21,33,45",     # obv.27
            "1,5;55,4,41,15",       # obv.21
            "21,9;8,26,15",         # obv.29
            "35;37,30",             # obv.29
            "1,10;18,45",           # obv.31
            "5",                    # obv.33
        ]

    def test_degenerate_zero(self):
        u, _ = solve_quadratic_scribal(QuadraticProblem(1, 0, 0))
        assert u == 0

    def test_simple_instance_against_oracle(self):
        # u^2 - 5u = 6 has roots 6 and -1; the additive branch gives 6
        u, _ = solve_quadratic_scribal(QuadraticProblem(1, 5, 6))
        assert u == 6 == quadratic_oracle_positive_branch(1, 5, 6)

    def test_trace_is_internally_consistent(self):
        p = SMT24_P1
        _, t = solve_quadratic_scribal(p)
        assert t["half_B"] == p.b / 2
        assert t["half_B_sq"] == t["half_B"] ** 2
        assert t["AC"] == p.a * p.c
        assert t["radicand"] == t["half_B_sq"] + t["AC"]
        assert t["root"] ** 2 == t["radicand"]
        assert t["root_plus"] == t["root"] + t["half_B"]
        assert t["u"] * p.a == t["root_plus"]

    def test_root_satisfies_equation(self):
        u, _ = solve_quadratic_scribal(SMT24_P1)
        assert SMT24_P1.a * u**2 - SMT24_P1.b * u == SMT24_P1.c

    def test_irregular_leading_coefficient(self):
        with pytest.raises(IrregularDivisor):
            solve_quadratic_scribal(QuadraticProblem(7, 0, 7))

    def test_radicand_must_be_square(self):
        with pytest.raises(NotAPerfectSquare):
            solve_quadratic_scribal(QuadraticProblem(1, 0, 2))

    def test_radicand_must_be_nonnegative(self):
        with pytest.raises(NegativeRadicand,
                           match=r"^\(B/2\)\^2 \+ A\*C = -0;30 < 0$"):
            solve_quadratic_scribal(QuadraticProblem(1, 0, Sexa("-0;30")))

    def test_randomized_against_oracle(self):
        rng = random.Random(2401)
        for _ in range(300):
            a = Sexa(2) ** rng.randint(0, 3) * Sexa(3) ** rng.randint(0, 2) \
                * Sexa(5) ** rng.randint(0, 2)
            b = Sexa(rng.randint(0, 400), rng.randint(1, 24))
            u = Sexa(rng.randint(0, 600), rng.randint(1, 36))
            c = a * u**2 - b * u
            got, _ = solve_quadratic_scribal(QuadraticProblem(a, b, c))
            assert got == quadratic_oracle_positive_branch(a, b, c)


class TestSumDifference:
    def test_smt24_p2_tail(self):
        # rev.20-24, from xy = 0;10 and x - y = 0;10
        x, y, trace = solve_sum_difference(
            SumDifferenceProblem(Sexa("0;10"), Sexa("0;10")))
        assert (x, y) == (Sexa("0;30"), Sexa("0;20"))
        assert [s.label for s in trace] == [
            "half_diff", "half_diff_sq", "radicand", "half_sum", "x", "y"]
        assert [render(s.magnitude()) for s in trace] == [
            "0;5", "0;0,25", "0;10,25", "0;25", "0;30", "0;20"]

    def test_equal_case(self):
        x, y, _ = solve_sum_difference(SumDifferenceProblem(0, 9))
        assert x == y == 3

    def test_small_integers_brute_force(self):
        # oracle: search the integer grid for diff=1, prod=6
        expected = [(x, y) for x in range(10) for y in range(10)
                    if x - y == 1 and x * y == 6]
        assert expected == [(3, 2)]
        x, y, _ = solve_sum_difference(SumDifferenceProblem(1, 6))
        assert (x, y) == (3, 2)

    def test_reconstruction_identities(self):
        rng = random.Random(7)
        for _ in range(200):
            xv = Fraction(rng.randint(0, 600), rng.randint(1, 60))
            yv = Fraction(rng.randint(0, 600), rng.randint(1, 60))
            if xv < yv:
                xv, yv = yv, xv
            x, y, _ = solve_sum_difference(
                SumDifferenceProblem(Sexa(xv - yv), Sexa(xv * yv)))
            assert (x, y) == (xv, yv)
            assert x >= y

    def test_negative_diff_rejected(self):
        with pytest.raises(MalformedProblem):
            SumDifferenceProblem(-1, 1)

    def test_radicand_errors(self):
        with pytest.raises(NotAPerfectSquare):
            solve_sum_difference(SumDifferenceProblem(0, 2))
        with pytest.raises(NegativeRadicand,
                           match=r"^\(\(x-y\)/2\)\^2 \+ xy = -0;30 < 0$"):
            solve_sum_difference(SumDifferenceProblem(0, Sexa("-0;30")))


class TestDivideByRecognition:
    def test_tablet_quotients(self):
        # rev.19-20: "What should I put to 46;30 which gives me 7;45"
        assert divide_by_recognition(Sexa("7;45"), Sexa("46;30")) \
            == Sexa("0;10")
        # obv.31-33: 1,10;18,45 given to the false area 14;3,45
        assert divide_by_recognition(Sexa("1,10;18,45"), Sexa("14;3,45")) == 5

    def test_identity(self):
        assert divide_by_recognition(Sexa("0;21,40"), 1) == Sexa("0;21,40")

    def test_exactness_property(self):
        rng = random.Random(13)
        for _ in range(200):
            d = Sexa(rng.randint(1, 500), rng.randint(1, 30))
            q = Sexa(rng.randint(0, 500),
                     2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2))
            n = q * d
            assert divide_by_recognition(n, d) * d == n

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            divide_by_recognition(1, 0)

    def test_quotient_must_terminate(self):
        with pytest.raises(NoFiniteQuotient):
            divide_by_recognition(1, 7)
        # ... even though both operands terminate on their own
        with pytest.raises(NoFiniteQuotient,
                           match="^1/21 has no finite base-60 form$"):
            divide_by_recognition(Sexa("0;30"), Sexa("10;30"))

    def test_unwritable_quotient_keeps_its_error_type(self):
        # 60**3000/7 - 1 has a numerator past the str(int) limit.
        with pytest.raises(NoFiniteQuotient, match=(
                "^a value with a term of about 5335 decimal digits "
                "has no finite base-60 form$")) as err:
            divide_by_recognition(Sexa(60 ** 3000 - 7), 7)
        assert err.value.value == Sexa(60 ** 3000 - 7, 7)

    def test_termination_is_decided_without_rendering(self, monkeypatch):
        # Writing a quotient of thousands of groups costs milliseconds;
        # its denominator alone decides whether it terminates.
        monkeypatch.setattr(sexakit.procedures, "render", None)
        n = Sexa(60 ** 6500 - 1)
        assert divide_by_recognition(n, 2) * 2 == n
        with pytest.raises(NoFiniteQuotient):
            divide_by_recognition(1, 7)


#: No base-60 literal, and a p/q numerator past the str(int) limit.
UNWRITABLE = Fraction(10 ** 5000, 7)


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: sqrt_exact(UNWRITABLE), NotAPerfectSquare,
                 id="sqrt_exact-not-square"),
    pytest.param(lambda: sqrt_exact(-UNWRITABLE), NegativeRadicand,
                 id="sqrt_exact-negative"),
    pytest.param(lambda: solve_quadratic_scribal(
        QuadraticProblem(1, 0, -UNWRITABLE)), NegativeRadicand,
                 id="quadratic"),
    pytest.param(lambda: solve_sum_difference(
        SumDifferenceProblem(0, -UNWRITABLE)), NegativeRadicand,
                 id="sum-difference"),
    pytest.param(lambda: breadths_from_constraints(
        Fraction(1, 7 * 10 ** 5000)), InconsistentConstraint, id="breadths"),
])
def test_an_unwritable_value_keeps_its_error_type(call, error):
    # The message writes the value by its size, as NonTerminating does.
    with pytest.raises(error, match="a value with a term of about "):
        call()


class TestIdentity:
    """x^2 + y^2 = (x - y)^2 + 2xy, the rewrite the SMT No. 24 p2 system
    is reduced by, on the x and y the sum-difference method recovers."""

    def sum_of_squares(self, diff, prod):
        x, y, _ = solve_sum_difference(SumDifferenceProblem(diff, prod))
        got = square(x) + square(y)
        assert got == square(x - y) + 2 * (x * y) == square(diff) + 2 * prod
        return got

    def test_smt24_p2_numbers(self):
        # x - y = xy = 0;10 (x = 0;30, y = 0;20) gives 13/36 = 0;21,40
        got = self.sum_of_squares(Sexa("0;10"), Sexa("0;10"))
        assert got == Fraction(13, 36)
        assert render(got) == "0;21,40"

    def test_equal_values(self):
        # x = y = 0;30: the difference term vanishes
        assert self.sum_of_squares(0, Sexa("0;15")) == Sexa("0;30")

    def test_integers_brute_force(self):
        # x=3, y=2: x^2+y^2 = 13
        assert self.sum_of_squares(1, 6) == 13 == 3**2 + 2**2


class TestStepTrace:
    def test_duplicate_labels_rejected(self):
        trace = StepTrace()
        trace.record("a", Sexa(1))
        with pytest.raises(MalformedProblem, match="duplicate step label 'a'"):
            trace.record("a", Sexa(2))

    def test_lookup_and_membership(self):
        trace = StepTrace()
        trace.record("a", Sexa("0;30"))
        assert "a" in trace and "b" not in trace
        assert trace["a"] == Sexa("0;30")
        with pytest.raises(KeyError):
            trace["b"]

    def test_extend_rejects_duplicates(self):
        head, tail = StepTrace(), StepTrace()
        head.record("a", Sexa(1))
        tail.record("b", Sexa(2))
        tail.record("a", Sexa(3))
        with pytest.raises(MalformedProblem):
            head.extend(tail)
        assert [s.label for s in head] == ["a", "b"]
        assert head["b"] == 2 and head["a"] == 1

    def test_every_step_enters_through_record(self):
        # The constructor and extend check labels as record does.
        with pytest.raises(MalformedProblem, match="duplicate step label 'u'"):
            StepTrace([Step("u", Sexa(1)), Step("u", Sexa(2))])
        trace = StepTrace(Step(label, Sexa(i)) for i, label in enumerate("ab"))
        with pytest.raises(MalformedProblem, match="duplicate step label 'b'"):
            trace.extend(iter([Step("c", Sexa(2)), Step("b", Sexa(3))]))
        assert [s.label for s in trace] == ["a", "b", "c"]
        assert trace["b"] == 1 and trace["c"] == 2

    def test_record_appends_to_read_only_fields(self):
        # tests/test_records.py checks that the fields refuse assignment.
        trace = StepTrace()
        assert "__setattr__" not in vars(StepTrace)
        assert "__delattr__" not in vars(StepTrace)
        trace.record("a", Sexa(1))
        assert trace.steps == [Step("a", Sexa(1))] and trace["a"] == 1

    def test_index_follows_steps(self):
        built = StepTrace()
        for i in range(2000):
            built.record(f"s{i}", Sexa(i))
        assert all(built[f"s{i}"] == i for i in range(0, 2000, 97))
        assert "s1999" in built and "s2000" not in built
        # A trace built from steps indexes them; the index is not state
        # that repr or equality see.
        rebuilt = StepTrace(list(built.steps))
        assert rebuilt == built and repr(rebuilt) == repr(built)
        assert rebuilt["s1234"] == 1234
        with pytest.raises(MalformedProblem):
            rebuilt.record("s0", Sexa(0))
        assert "_index" not in repr(StepTrace())

    def test_changing_the_steps_list_leaves_the_trace(self):
        # ``steps`` is a new list on each read: appending to it neither
        # repeats a label in the text nor breaks a copy.
        trace = StepTrace()
        trace.record("a", Sexa(1))
        trace.steps.append(Step("a", Sexa(2)))
        assert trace.steps == [Step("a", Sexa(1))]
        assert trace.to_text() == "a = 1 @ derived"
        assert copy.copy(trace) == trace
        # ``steps`` is a property, not a slot, and still a match field.
        assert StepTrace.__match_args__ == ("steps",)

    def test_text_and_dict_forms(self):
        trace = StepTrace()
        trace.record("half", Sexa("0;30"), source="rev.11")
        assert trace.to_text() == "half = 0;30 @ rev.11"
        assert trace.to_dict() == {
            "steps": [{"label": "half", "value": "0;30", "source": "rev.11"}]}
