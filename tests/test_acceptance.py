"""Acceptance suite: every verification contract of the package, checked
exactly (tolerance is zero everywhere; nothing here is approximate).

One test per criterion; conftest.py prints a PASS/FAIL line for each at
the end of the run.  Tablet values are cited by line tag (obv.N, rev.N).
"""

import math
import random
from fractions import Fraction

import pytest

from sexakit import cli
from sexakit.corpus import find_problem, load_corpus, replay
from sexakit.errors import (
    BadLiteral,
    DimensionMismatch,
    IrregularDivisor,
    NonTerminating,
    NotAPerfectSquare,
)
from sexakit.geometry import (
    breadths_from_constraints,
    depth_from_labor,
    length_from_volume,
    prism_volume,
    trapezoid_cross_section,
)
from sexakit.procedures import (
    QuadraticProblem,
    SumDifferenceProblem,
    replay_smt24_p2,
    solve_quadratic_scribal,
    solve_sum_difference,
)
from sexakit.sexa import (
    Sexa,
    is_regular,
    parse,
    reciprocal,
    render,
    sqrt_exact,
    square,
)
from sexakit.units import Dimension, Quantity, qmul, sar_to_volume_sar

N = Dimension.LENGTH_NINDAN
K = Dimension.LENGTH_KUS
X = Dimension.CROSS_SECTION
V = Dimension.VOLUME_SAR
W = Dimension.WORKER_COUNT

CASES = 1000


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def assert_in_order(wanted, haystack):
    """Every wanted value occurs in the haystack, in the given order."""
    pos = 0
    for value in wanted:
        while pos < len(haystack) and haystack[pos] != value:
            pos += 1
        assert pos < len(haystack), f"{value} missing (or out of order)"
        pos += 1


def test_smt24_first_problem_chain(corpus):
    # Solver trace, exactly and in order (obv.21-33).
    u, trace = solve_quadratic_scribal(QuadraticProblem(
        Sexa("14;3,45"), Sexa("1,9;22,30"), Sexa("4;41,15")))
    assert [render(s.magnitude()) for s in trace] == [
        "34;41,15", "20,3;13,21,33,45", "1,5;55,4,41,15",
        "21,9;8,26,15", "35;37,30", "1,10;18,45", "5"]
    assert u == 5

    # Then the derived dimensions and the length (obv.33-40).
    v, z = breadths_from_constraints(u)
    assert (v, z) == (3, 8)
    section = trapezoid_cross_section(Quantity(u, N), Quantity(v, N),
                                      Quantity(z, K))
    assert section == Quantity(32, X)
    length = length_from_volume(Quantity(1440, V), section)
    assert length == Quantity(45, N)

    # The corpus replay checks the same chain value by value.
    report = replay(find_problem(corpus, "smt24.p1"))
    assert report.passed, report.to_text()
    got = {r.label: r.got for r in report.rows if r.kind == "step"}
    assert (got["v"], got["z"], got["S"], got["x"]) == ("3", "8", "32", "45")


def test_smt24_second_problem_chain(corpus):
    x, y, trace = replay_smt24_p2(Sexa("0;10"), 12, 13, Sexa("1;15"))
    values = [render(s.magnitude()) for s in trace]
    assert_in_order(
        ["16;15", "0;1,40", "16;13,20", "0;30", "8;6,40", "0;21,40",
         "7;45", "6;30", "1", "7;30", "39", "46;30", "0;10", "0;5",
         "0;0,25", "0;10,25", "0;25", "0;30", "0;20"],
        values)
    assert render(trace["recip_z"]) == "0;30"     # 1/z
    assert render(trace["xy"]) == "0;10"          # xy
    assert (render(x), render(y)) == ("0;30", "0;20")

    # (x, y, z) satisfies all three equations of the system, exactly.
    z = 12 * (x - y)
    assert x - y == Sexa("0;10")
    assert z == 2
    squares = square(x) + square(y)
    assert z * squares + x * y * (z + 1) + squares / 13 == Sexa("1;15")

    report = replay(find_problem(corpus, "smt24.p2"))
    assert report.passed, report.to_text()


def test_smt25_depth_chain(corpus):
    depth, water_depth, trace = depth_from_labor(
        sar_to_volume_sar(6, "sar60"), 5,
        Quantity(Sexa("40,0"), W), Quantity(Sexa("0;30"), N))
    assert [render(s.magnitude()) for s in trace] == [
        "0;12", "1,12,0", "0;0,1,30", "1;48", "1;15", "2;15", "2",
        "4;30", "3;36"]
    assert depth == Quantity(Sexa("4;30"), K)
    assert water_depth == Quantity(Sexa("3;36"), K)

    report = replay(find_problem(corpus, "smt25.p1"))
    assert report.passed, report.to_text()


def test_reciprocal_table():
    # Spot values quoted across both texts.
    for value, expected in [
        ("5", "0;12"),
        ("45", "0;1,20"),
        ("32", "0;1,52,30"),
        ("40,0", "0;0,1,30"),
        ("0;48", "1;15"),
        ("0;10", "6"),
        ("12", "0;5"),
    ]:
        assert render(reciprocal(parse(value))) == expected


def test_randomized_exact_properties():
    rng = random.Random(60)

    def random_regular():
        value = Sexa(2) ** rng.randint(-6, 6) * Sexa(3) ** rng.randint(-6, 6) \
            * Sexa(5) ** rng.randint(-6, 6)
        return value if rng.random() < 0.5 else -value

    def random_rational(max_num=10**6, max_den=10**4):
        return Sexa(rng.randint(-max_num, max_num), rng.randint(1, max_den))

    def random_smooth():
        return Sexa(rng.randint(-10**6, 10**6),
                    2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6)
                    * 5 ** rng.randint(0, 6))

    # reciprocal(x) * x == 1 on regular inputs
    for _ in range(CASES):
        x = random_regular()
        assert x * reciprocal(x) == 1

    # sqrt_exact(square(x)) == |x|
    for _ in range(CASES):
        x = random_rational()
        assert sqrt_exact(square(x)) == abs(x)

    # parse/render round-trips, both directions
    for _ in range(CASES):
        x = random_smooth()
        text = render(x)
        assert parse(text) == x
        assert render(parse(text)) == text

    # completing the square against an independent quadratic oracle
    for _ in range(CASES):
        a = Sexa(2) ** rng.randint(0, 4) * Sexa(3) ** rng.randint(0, 3) \
            * Sexa(5) ** rng.randint(0, 3)
        b = Sexa(rng.randint(0, 600), rng.randint(1, 36))
        u = Sexa(rng.randint(0, 600), rng.randint(1, 36))
        c = a * u**2 - b * u
        got, _ = solve_quadratic_scribal(QuadraticProblem(a, b, c))
        radicand = Fraction(b, 2) ** 2 + Fraction(a) * Fraction(c)
        root = Fraction(math.isqrt(radicand.numerator),
                        math.isqrt(radicand.denominator))
        assert root * root == radicand
        assert got == (Fraction(b, 2) + root) / Fraction(a)

    # sum-difference reconstruction identities
    for _ in range(CASES):
        xv = Fraction(rng.randint(0, 3600), rng.randint(1, 60))
        yv = Fraction(rng.randint(0, 3600), rng.randint(1, 60))
        if xv < yv:
            xv, yv = yv, xv
        x, y, _ = solve_sum_difference(
            SumDifferenceProblem(Sexa(xv - yv), Sexa(xv * yv)))
        assert x - y == xv - yv
        assert x * y == xv * yv
        assert (x, y) == (xv, yv) and x >= y

    # prism volume inverted by length recovery
    for _ in range(CASES):
        section = Quantity(abs(random_regular()), X)
        length = Quantity(Sexa(rng.randint(1, 3600), rng.randint(1, 60)), N)
        volume = prism_volume(section, length)
        assert length_from_volume(volume, section) == length

    # regularity agrees with brute-force 60-smooth factorization
    for n in range(1, 10001):
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        assert is_regular(n) is (m == 1)


def test_error_paths_and_exit_codes(tmp_path, capsys):
    with pytest.raises(IrregularDivisor):
        reciprocal(13)
    with pytest.raises(NotAPerfectSquare):
        sqrt_exact(2)
    with pytest.raises(NonTerminating):
        render(Sexa(1, 7))
    bad = tmp_path / "bad.corpus"
    bad.write_text("[problem t.p1]\nprocedure = quadratic\n"
                   "param A = 61\nparam B = 1\nparam C = 1\n")
    with pytest.raises(BadLiteral):
        load_corpus(bad)

    # CLI exit codes: 0 pass, 1 mismatch, 2 input, 3 precondition
    assert cli.main(["replay", "--all"]) == 0
    mismatch = tmp_path / "mismatch.corpus"
    mismatch.write_text("[problem t.p1]\nprocedure = quadratic\n"
                        "param A = 1\nparam B = 5\nparam C = 6\n"
                        "expect step u = 7 @ x.1\n")
    assert cli.main(["replay", "--all", "--corpus", str(mismatch)]) == 1
    assert cli.main(["eval", "1,61"]) == 2
    assert cli.main(["eval", "1 / 7"]) == 3
    capsys.readouterr()


def test_dimension_rules():
    got = qmul(Quantity(Sexa("0;30"), N), Quantity(Sexa("4;30"), K))
    assert got == Quantity(Sexa("2;15"), X)
    got = qmul(Quantity(45, N), Quantity(32, X))
    assert got == Quantity(1440, V)
    assert render(got.magnitude) == "24,0"
    with pytest.raises(DimensionMismatch):
        Quantity(1, N) + Quantity(1, K)
