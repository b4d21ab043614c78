"""Number core: literals, rendering, regularity, reciprocals, roots."""

import copy
import math
import operator
import pickle
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sexakit.errors import (
    IrregularDivisor,
    MalformedLiteral,
    NegativeRadicand,
    NonTerminating,
    NotAPerfectSquare,
    UnwritableValue,
    ZeroInput,
)
from sexakit.sexa import (
    _CANONICAL,
    _LITERAL,
    _PRIME_SEARCH_LIMIT,
    Sexa,
    _smallest_prime_factor,
    _strip_smooth,
    halve,
    is_regular,
    parse,
    reciprocal,
    render,
    sqrt_exact,
    square,
)
from sexakit.units import Dimension, Quantity


def smooth_values(max_exp=6, max_num=10**6):
    """Strategy: rationals whose denominator is 60-smooth."""
    return st.builds(
        lambda num, a, b, c: Sexa(num, 2**a * 3**b * 5**c),
        st.integers(-max_num, max_num),
        st.integers(0, max_exp), st.integers(0, max_exp),
        st.integers(0, max_exp))


regular_values = st.builds(
    lambda s, a, b, c: Sexa(s) * Sexa(2)**a * Sexa(3)**b * Sexa(5)**c,
    st.sampled_from([1, -1]),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


class TestParse:
    @pytest.mark.parametrize("text,value", [
        ("0;1,52,30", Fraction(1, 32)),
        ("0", 0),
        ("21,9;8,26,15",
         Fraction(1269) + Fraction(8, 60) + Fraction(26, 3600)
         + Fraction(15, 216000)),
        ("45", 45),
        ("1,12,0", 4320),
        ("40,0", 2400),
        ("-0;30", Fraction(-1, 2)),
        ("0;48", Fraction(4, 5)),
    ])
    def test_values(self, text, value):
        assert parse(text) == value

    def test_colon_is_radix_synonym(self):
        # transliterations write "14:3,45" for 14;3,45
        assert parse("14:3,45") == parse("14;3,45") == Fraction(225, 16)

    @pytest.mark.parametrize("sloppy,canonical", [
        ("0,5", "5"),            # leading zero group
        ("07", "7"),             # zero-padded digit
        ("1;30,0", "1;30"),      # trailing fractional zero
        ("00;05", "0;5"),
        ("-0", "0"),
        (" 5 ", "5"),
    ])
    def test_lenient_then_canonical(self, sloppy, canonical):
        assert render(parse(sloppy)) == canonical

    @pytest.mark.parametrize("bad", [
        "", "-", ";", "1;;2", "1;2;3", "1:2;3", "61", "1,61", "99",
        "100", "1,,2", ",1", "1,", "5;", ";5", "1.5", "3/4", "abc",
        "1, 2", "٥",
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedLiteral):
            parse(bad)

    @pytest.mark.parametrize("bad,message", [
        ("", "'': empty literal"),
        ("-", "'-': empty literal"),
        ("1,,2", "'1,,2': empty digit group"),
        ("1;", "'1;': empty digit group"),
        ("1,100", "'1,100': digit group '100' is longer than two digits"),
        ("1;60", "'1;60': digit 60 out of range 0..59"),
        ("1,\u0663", "'1,\u0663': bad digit group '\u0663'"),
        ("1;2;3", "'1;2;3': more than one radix point"),
        ("1:2;3", "'1:2;3': more than one radix point"),
        (1.5, "expected a string, got float"),
    ])
    def test_malformed_message(self, bad, message):
        # Only a literal the grammar refuses is walked, for this message.
        with pytest.raises(MalformedLiteral) as err:
            parse(bad)
        assert str(err.value) == message


class TestRender:
    @pytest.mark.parametrize("value,text", [
        (Fraction(1, 32), "0;1,52,30"),
        (5, "5"),
        (0, "0"),
        (4320, "1,12,0"),
        (Fraction(-93, 2), "-46;30"),
        (Fraction(9, 64), "0;8,26,15"),
    ])
    def test_values(self, value, text):
        assert render(value) == text

    def test_one_seventh_does_not_terminate(self):
        with pytest.raises(NonTerminating) as err:
            render(Fraction(1, 7))
        assert err.value.prime == 7

    def test_fraction_fallback(self):
        assert render(Fraction(1, 7), fraction_fallback=True) == "1/7"
        assert render(Fraction(1, 2), fraction_fallback=True) == "0;30"

    def test_too_long_fraction_is_an_error_not_a_crash(self):
        # 60**3000 has 5335 decimal digits, past str(int)'s 4300 default.
        huge = Sexa(60 ** 3000 + 1, 7)
        message = ("value has no finite base-60 expansion and a term of "
                   "about 5335 decimal digits, too long to write as p/q")
        for write in (str, lambda x: render(x, fraction_fallback=True)):
            with pytest.raises(UnwritableValue) as err:
                write(huge)
            assert str(err.value) == message
        assert repr(huge) == f"<Sexa: {message}>"
        # A huge value with a base-60 literal still writes it.
        assert render(Sexa(60 ** 3000 + 1)) == "1," + "0," * 2999 + "1"

    def test_no_radix_point_for_integers(self):
        assert ";" not in render(Sexa("1,0"))

    def test_format_is_str(self):
        assert f"{Sexa('-0;30')}" == format(Sexa("-0;30"), "") == "-0;30"
        assert f"{Sexa(1, 7)}" == "1/7"


class TestArithmetic:
    def test_tablet_addition(self):
        # obv.28-29: the completed square
        assert parse("20,3;13,21,33,45") + parse("1,5;55,4,41,15") \
            == parse("21,9;8,26,15")

    def test_tablet_subtraction(self):
        # rev.9
        assert parse("16;15") - parse("0;1,40") == parse("16;13,20")

    def test_mul_identity(self):
        x = parse("7;45")
        assert x * 1 == 1 * x == x

    def test_halve(self):
        assert halve(parse("1,9;22,30")) == parse("34;41,15")
        assert halve(parse("0;10")) == parse("0;5")
        assert halve(0) == 0

    def test_square(self):
        assert square(parse("34;41,15")) == parse("20,3;13,21,33,45")
        assert square(parse("0;5")) == parse("0;0,25")
        assert square(0) == 0

    def test_sexa_is_closed_under_operators(self):
        x = Sexa("0;30")
        for value in (x + 1, 1 + x, x - 1, 1 - x, x * 2, 2 * x,
                      x / 2, 2 / x, -x, abs(-x), x ** 2):
            assert isinstance(value, Sexa)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Sexa(0.5)
        with pytest.raises(TypeError):
            Sexa("0;30") + 0.5

    def test_equality_and_hash_against_fraction(self):
        assert Sexa("0;30") == Fraction(1, 2)
        assert hash(Sexa("0;30")) == hash(Fraction(1, 2))
        assert Sexa(5) == 5

    @given(smooth_values(), smooth_values())
    def test_add_mul_commute(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(smooth_values(max_exp=4, max_num=10**4),
           smooth_values(max_exp=4, max_num=10**4),
           smooth_values(max_exp=4, max_num=10**4))
    def test_add_mul_associate(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)


class TestRegularity:
    @pytest.mark.parametrize("value,expected", [
        (45, True),         # obv.12 takes igi-45
        (13, False),        # rev.7 multiplies by 13 instead
        (7, False),
        (1, True),
        (2400, True),       # the worker gang 40,0
        (Fraction(4, 5), True),
        (Fraction(3, 7), False),
        (Fraction(7, 3), False),
        (-30, True),
    ])
    def test_examples(self, value, expected):
        assert is_regular(value) is expected

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            is_regular(0)

    def test_matches_brute_force_up_to_ten_thousand(self):
        for n in range(1, 10001):
            m = n
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            assert is_regular(n) is (m == 1), n

    def test_equivalent_to_reciprocal_rendering(self):
        # a nonzero integer is regular exactly when 1/n renders finitely
        for n in range(1, 10001):
            try:
                render(Fraction(1, n))
                renders = True
            except NonTerminating:
                renders = False
            assert is_regular(n) is renders, n


class TestReciprocal:
    @pytest.mark.parametrize("value,expected", [
        ("40,0", "0;0,1,30"),   # SMT 25 rev.29
        ("0;48", "1;15"),       # SMT 25 rev.31-32
        ("5", "0;12"),
        ("45", "0;1,20"),
        ("32", "0;1,52,30"),
        ("0;10", "6"),
        ("12", "0;5"),
        ("1", "1"),
    ])
    def test_table(self, value, expected):
        assert reciprocal(parse(value)) == parse(expected)

    def test_exact_inverse(self):
        x = parse("0;48")
        assert x * reciprocal(x) == 1

    def test_irregular_rejected(self):
        with pytest.raises(IrregularDivisor) as err:
            reciprocal(13)
        assert err.value.prime == 13
        with pytest.raises(IrregularDivisor):
            reciprocal(Sexa("46;30"))
        with pytest.raises(IrregularDivisor):
            reciprocal(Sexa(3, 7))    # smooth denominator is not enough

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            reciprocal(0)

    @given(regular_values)
    def test_product_with_reciprocal_is_one(self, x):
        assert x * reciprocal(x) == 1


class TestSqrt:
    def test_tablet_roots(self):
        assert sqrt_exact(parse("21,9;8,26,15")) == parse("35;37,30")
        assert sqrt_exact(parse("0;10,25")) == parse("0;25")

    def test_zero(self):
        assert sqrt_exact(0) == 0

    def test_never_approximates(self):
        with pytest.raises(NotAPerfectSquare):
            sqrt_exact(2)
        with pytest.raises(NotAPerfectSquare):
            sqrt_exact(Fraction(1, 7))

    def test_negative(self):
        with pytest.raises(NegativeRadicand):
            sqrt_exact(-4)

    @given(smooth_values())
    def test_inverts_square(self, x):
        assert sqrt_exact(square(x)) == abs(x)

    def test_error_messages_in_base_60(self):
        with pytest.raises(NotAPerfectSquare, match=r"^0;21,40 is not"):
            sqrt_exact(Sexa("0;21,40"))
        with pytest.raises(NegativeRadicand, match=r"value -0;30$"):
            sqrt_exact(Sexa("-0;30"))


def assert_canonical(x):
    """render(x) is the canonical literal, judged on the text alone."""
    text = render(x)
    assert text != "-0"
    assert text.startswith("-") == (x < 0)
    head, point, tail = text.removeprefix("-").partition(";")
    groups = head.split(",") + (tail.split(",") if point else [])
    assert all(re.fullmatch(r"[1-5]?\d", g) for g in groups), text
    assert head == "0" or not head.startswith("0"), text
    assert not point or groups[-1] != "0", text
    assert bool(point) == (Fraction(x).denominator != 1), text


class TestRoundTrips:
    @given(smooth_values())
    def test_parse_render(self, x):
        assert parse(render(x)) == x

    @given(smooth_values())
    def test_render_is_canonical_fixed_point(self, x):
        text = render(x)
        assert render(parse(text)) == text

    @given(smooth_values())
    def test_render_text_is_canonical(self, x):
        assert_canonical(x)

    @given(st.integers(-59, 59), st.integers(0, 59), st.integers(0, 59))
    def test_literal_canonicalization_is_idempotent(self, a, b, c):
        text = f"{abs(a)},{b};{c}"
        value = parse(text)
        assert parse(render(value)) == value


#: Strings over the literal alphabet, and literals of the lenient grammar.
literal_like = (st.text(alphabet="0123456789,;:-", max_size=12)
                | st.from_regex(_LITERAL, fullmatch=True))


class TestCanonicalLanguage:
    """``_CANONICAL`` is exactly the set of literals ``render`` writes."""

    @given(literal_like)
    def test_canonical_iff_render_gives_it_back(self, text):
        try:
            fixed_point = render(parse(text)) == text
        except MalformedLiteral:
            fixed_point = False
        assert bool(_CANONICAL.fullmatch(text)) == fixed_point

    @given(smooth_values() | regular_values)
    def test_render_writes_canonical_text(self, x):
        assert _CANONICAL.fullmatch(render(x))

    @pytest.mark.parametrize("text,canonical", [
        ("0", True), ("-0", False), ("0;30", True), ("-0;30", True),
        ("0,5", False), ("05", False), ("1,0", True), ("1;30,0", False),
        ("3;0", False), ("0;0", False), ("14:3,45", False), ("59", True),
        ("60", False), ("-1,0;0,5", True),
    ])
    def test_examples(self, text, canonical):
        assert bool(_CANONICAL.fullmatch(text)) == canonical


def digit_form(text):
    """(sign, digits, offset) of a literal: offset counts the integer groups."""
    sign = -1 if text.startswith("-") else 1
    head, point, tail = text.removeprefix("-").partition(";")
    int_groups = head.split(",")
    frac_groups = tail.split(",") if point else []
    digits = tuple(int(g) for g in int_groups + frac_groups)
    return sign, digits, len(int_groups)


class TestDigits:
    @pytest.mark.parametrize("sign,digits,offset", [
        (1, (), 1),             # empty
        (1, (60,), 1),          # digit out of range
        (1, (0, 5), 2),         # leading zero integer digit
        (1, (1, 0), 1),         # trailing zero fraction digit
        (1, (1, 2), 0),         # empty integer part
        (-1, (0,), 1),          # negative zero
        (2, (1,), 1),           # bad sign
    ])
    def test_invariants_enforced(self, sign, digits, offset):
        """render never spells a value in a non-canonical digit form."""
        value = sign * sum(
            (d * Fraction(60) ** (offset - 1 - i) for i, d in enumerate(digits)),
            Fraction(0),
        )
        text = render(value)
        assert digit_form(text) != (sign, digits, offset), text
        assert_canonical(value)
        assert parse(text) == value


# -- the bulk kernels against one-step-at-a-time references -------------------

def naive_value(negative, int_digits, frac_digits):
    """A literal's value summed one Fraction per digit group."""
    value = Fraction(0)
    for d in int_digits:
        value = value * 60 + d
    for i, d in enumerate(frac_digits, start=1):
        value += Fraction(d, 60 ** i)
    return -value if negative else value


def naive_render(x):
    """Canonical literal for a 60-smooth x, one digit per step."""
    x = Fraction(x)
    whole, rest = divmod(abs(x), 1)
    head = []
    while True:
        whole, d = divmod(whole, 60)
        head.append(d)
        if not whole:
            break
    tail = []
    while rest:
        rest *= 60
        d = rest.numerator // rest.denominator
        tail.append(d)
        rest -= d
    text = ",".join(map(str, reversed(head)))
    if tail:
        text += ";" + ",".join(map(str, tail))
    return ("-" if x < 0 else "") + text


def naive_strip(n):
    exponents = {}
    for p in (2, 3, 5):
        exponents[p] = 0
        while n % p == 0:
            n //= p
            exponents[p] += 1
    return n, exponents


def naive_smallest_prime_factor(n):
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


# Runs of one digit, so zero runs and five-digit chunk boundaries both occur.
digit_runs = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 30, 59]) | st.integers(0, 59),
              st.integers(1, 7)),
    max_size=6,
).map(lambda runs: [d for d, n in runs for _ in range(n)])


class TestBulkKernels:
    @given(st.booleans(), digit_runs, digit_runs)
    def test_literal_round_trip_across_chunks(self, negative, head, tail):
        head = head or [0]
        text = ",".join(map(str, head))
        if tail:
            text += ";" + ",".join(map(str, tail))
        if negative:
            text = "-" + text
        expected = naive_value(negative, head, tail)
        x = parse(text)
        assert x == expected
        assert render(x) == naive_render(expected)
        assert parse(render(x)) == x

    @pytest.mark.parametrize("x", [
        60**5 - 1, 60**5, 60**5 + 1, 59 * 60**5,
        60**10 - 1, 60**10, 60**10 + 1, 7 * 60**10, -60**10, 60**15 - 60**5,
        Fraction(1, 60**5), Fraction(1, 60**10), Fraction(60**10 - 1, 60**10),
        -Fraction(1, 60**5), Fraction(1, 2**50), Fraction(3**40, 5**30),
    ])
    def test_render_at_chunk_boundaries(self, x):
        text = render(x)
        assert text == naive_render(x)
        assert parse(text) == x
        assert_canonical(x)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300),
           st.integers(1, 10**12))
    def test_strip_smooth_matches_one_factor_loop(self, a, b, c, m):
        n = 2**a * 3**b * 5**c * m
        assert _strip_smooth(n) == naive_strip(n)

    @pytest.mark.parametrize("n", [
        1, 2**10000, 3**5000 * 7, 5**4097, 2**63 * 3**64 * 5**65 * 11**3,
    ])
    def test_strip_smooth_large_powers(self, n):
        assert _strip_smooth(n) == naive_strip(n)

    def test_smallest_prime_factor_matches_trial_division(self):
        for n in range(1, 10**5 + 1):
            assert _smallest_prime_factor(n) == \
                naive_smallest_prime_factor(n), n

    @pytest.mark.parametrize("n,p", [
        (49, 7), (121, 11), (77, 7), (169, 13), (23 * 29, 23), (29 * 31, 29),
        (31 * 37, 31), (37 * 41, 37), (99991, 99991), (100003**2, 100003),
        (99991 * 100003, 99991),
    ])
    def test_smallest_prime_factor_near_wheel_gaps(self, n, p):
        assert _smallest_prime_factor(n) == naive_smallest_prime_factor(n) == p

    def test_long_regular_literal_stays_fast(self):
        # 3**b / 2**a with about 20 000 digit groups.  Parsing one Fraction
        # per group and stripping one factor per division take minutes on
        # it; the bulk kernels take well under a second.
        x = Fraction(3**47000, 2**40000)
        start = time.perf_counter()
        text = render(x)
        assert parse(text) == x
        assert is_regular(x)
        assert reciprocal(x) == 1 / x
        elapsed = time.perf_counter() - start
        assert len(text.replace(";", ",").split(",")) >= 20000
        assert elapsed < 5, f"{elapsed:.2f} s"


# -- naming the prime of an irregular value, in bounded time ------------------

#: Two primes above the search limit: trial division up to the smaller
#: one takes about a minute.
SEMIPRIME = 1000000007 * 1000000009


class TestBoundedPrimeSearch:
    def test_limit_covers_every_prime_up_to_1e6(self):
        assert _PRIME_SEARCH_LIMIT >= 10**6

    @pytest.mark.parametrize("n,p", [
        (999983**2, 999983),            # the largest prime below 10**6
        (999983 * SEMIPRIME, 999983),
        (1000003, 1000003),             # prime, and its root is below
        (SEMIPRIME, None),
        (1299709 * 1299721, None),
        (SEMIPRIME**40, None),
    ])
    def test_search_stops_at_the_limit(self, n, p):
        start = time.perf_counter()
        assert _smallest_prime_factor(n) == p
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("call,error", [
        (lambda: reciprocal(SEMIPRIME), IrregularDivisor),
        (lambda: reciprocal(Sexa(60, SEMIPRIME)), IrregularDivisor),
        (lambda: render(Sexa(1, SEMIPRIME)), NonTerminating),
    ])
    def test_semiprime_rejected_without_a_prime(self, call, error):
        start = time.perf_counter()
        with pytest.raises(error) as err:
            call()
        assert time.perf_counter() - start < 1
        assert err.value.prime is None
        message = str(err.value)
        assert f"above {_PRIME_SEARCH_LIMIT}" in message
        assert f"prime {SEMIPRIME}" not in message
        assert f"factor {SEMIPRIME}" not in message

    def test_repr_of_semiprime_denominator(self):
        start = time.perf_counter()
        assert repr(Sexa(1, SEMIPRIME)) == f"Sexa(1, {SEMIPRIME})"
        assert time.perf_counter() - start < 1

    def test_named_prime_messages_unchanged(self):
        with pytest.raises(NonTerminating, match=r"contains prime 7\)"):
            render(Fraction(1, 14))
        with pytest.raises(IrregularDivisor, match=r"\(prime factor 13\)"):
            reciprocal(26)

    @pytest.mark.parametrize("call,message", [
        (lambda: render(Sexa(1, 7)),
         "1/7 has no finite base-60 expansion (denominator contains prime 7)"),
        (lambda: render(Sexa(-61, 420)),
         "-61/420 has no finite base-60 expansion "
         "(denominator contains prime 7)"),
        (lambda: reciprocal(Sexa(-13, 7)),
         "-13/7 is not a regular number (prime factor 13); "
         "it has no finite reciprocal"),
    ])
    def test_message_names_a_non_terminating_value_as_p_over_q(
            self, call, message):
        with pytest.raises((NonTerminating, IrregularDivisor)) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("call,error,message", [
        (lambda: render(Sexa(60 ** 3000 + 1, 7)), NonTerminating,
         "a value with a term of about 5335 decimal digits has no finite "
         "base-60 expansion (denominator contains prime 7)"),
        (lambda: reciprocal(Sexa(7 * 2 ** 20000, 11)), IrregularDivisor,
         "a value with a term of about 6022 decimal digits is not a "
         "regular number (prime factor 7); it has no finite reciprocal"),
    ])
    def test_message_names_an_unwritable_value_by_its_size(
            self, call, error, message):
        # Its p/q text passes the str(int) limit; the error keeps its type.
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


# -- values built without a second normalization ------------------------------

ratios = st.tuples(st.integers(-10**12, 10**12), st.integers(1, 10**12))


def assert_like_fraction(result, expected):
    """result is a Sexa in lowest terms, equal to and hashing like expected."""
    assert type(result) is Sexa
    assert result == expected
    n, d = result.numerator, result.denominator
    assert (n, d) == (expected.numerator, expected.denominator)
    assert math.gcd(n, d) == 1 and d > 0
    assert hash(result) == hash(expected)


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge)


def outcome(call):
    """("value", result) or ("raises", exception type) of call()."""
    try:
        return "value", call()
    except Exception as exc:
        return "raises", type(exc)


class TestReducedConstruction:
    @given(ratios, ratios)
    def test_binary_ops_match_fraction(self, a, b):
        fa, fb = Fraction(*a), Fraction(*b)
        sa, sb = Sexa(*a), Sexa(*b)
        for op in (operator.add, operator.sub, operator.mul):
            assert_like_fraction(op(sa, sb), op(fa, fb))
        if fb:
            assert_like_fraction(sa / sb, fa / fb)

    @given(ratios, st.integers(-10**6, 10**6))
    def test_reflected_ops_match_fraction(self, a, k):
        fa, sa = Fraction(*a), Sexa(*a)
        for other in (k, Fraction(k, 7)):
            for op in (operator.add, operator.sub, operator.mul):
                assert_like_fraction(op(other, sa), op(other, fa))
                assert_like_fraction(op(sa, other), op(fa, other))
            if fa:
                assert_like_fraction(other / sa, other / fa)
            if other:
                assert_like_fraction(sa / other, fa / other)

    @given(ratios, st.integers(-4, 4))
    def test_powers_match_fraction(self, a, e):
        fa, sa = Fraction(*a), Sexa(*a)
        if fa or e >= 0:
            assert_like_fraction(sa ** e, fa ** e)
            assert_like_fraction(sa ** Fraction(e), fa ** e)
        base = a[0] % 50 + 1
        assert_like_fraction(base ** Sexa(e), Fraction(base) ** e)
        assert_like_fraction(Fraction(base, 7) ** Sexa(e),
                             Fraction(base, 7) ** e)

    @given(ratios)
    def test_unary_ops_match_fraction(self, a):
        fa, sa = Fraction(*a), Sexa(*a)
        assert_like_fraction(-sa, -fa)
        assert_like_fraction(abs(sa), abs(fa))
        assert +sa is sa

    @given(ratios)
    def test_from_fraction_and_square_root(self, a):
        fa = Fraction(*a)
        assert_like_fraction(Sexa(fa), fa)
        assert_like_fraction(sqrt_exact(fa * fa), abs(fa))

    @given(smooth_values())
    def test_parse_of_rendering(self, x):
        f = Fraction(x.numerator, x.denominator)
        assert_like_fraction(parse(render(x)), f)

    @given(regular_values)
    def test_reciprocal(self, x):
        f = Fraction(x.numerator, x.denominator)
        assert_like_fraction(reciprocal(x), 1 / f)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.pow])
    def test_float_on_either_side_raises(self, op):
        with pytest.raises(TypeError):
            op(Sexa(1, 2), 0.5)
        with pytest.raises(TypeError):
            op(0.5, Sexa(1, 2))

    def test_fractional_power_would_be_a_float(self):
        for base in (2, Fraction(2), Sexa(2)):
            with pytest.raises(TypeError):
                base ** Sexa(1, 2)

    def test_sexa_argument_is_returned_as_is(self):
        x = Sexa("1,9;22,30")
        assert Sexa(x) is x

    def test_fraction_argument_is_reduced(self):
        x = Sexa(Fraction(6, 8))
        assert type(x) is Sexa
        assert (x.numerator, x.denominator) == (3, 4)

    def test_parse_reduces_with_positive_denominator(self):
        x = parse("-0;30")
        assert x == Fraction(-1, 2)
        assert (x.numerator, x.denominator) == (-1, 2)
        zero = parse("0;0,0")
        assert (zero.numerator, zero.denominator) == (0, 1)

    @pytest.mark.parametrize("x", [Sexa("-0;30"), Sexa(1, 7), Sexa(0),
                                   Sexa("1,0,0;0,0,1") ** 3])
    def test_pickle_and_copy_round_trip(self, x):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x)):
            assert type(y) is Sexa
            assert (y.numerator, y.denominator) == (x.numerator, x.denominator)

    def test_fraction_slot_layout(self):
        # _reduced writes these two slots directly; a Python that renames
        # or adds to them must fail here, not build broken values.
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        assert Sexa.__slots__ == ()

    # -- Sexa's own kernels, against plain Fraction ---------------------------

    @given(ratios, ratios)
    def test_comparisons_match_fraction(self, a, b):
        fa, sa = Fraction(*a), Sexa(*a)
        for other, plain in ((Sexa(*b), Fraction(*b)),
                             (Fraction(*b), Fraction(*b)),
                             (b[0], b[0]), (b[0] > 0, b[0] > 0)):
            for op in COMPARISONS:
                assert op(sa, other) is op(fa, plain)
                assert op(other, sa) is op(plain, fa)

    @pytest.mark.parametrize("x", [Sexa(1, 2), Sexa(0), Sexa(-1, 3),
                                   Sexa(10**400)])
    @pytest.mark.parametrize("f", [0.5, -0.25, 0.0, 1e300, math.inf,
                                   -math.inf, math.nan])
    def test_float_comparisons_match_fraction(self, x, f):
        fx = Fraction(x)
        for op in COMPARISONS:
            assert op(x, f) is op(fx, f)
            assert op(f, x) is op(f, fx)

    @pytest.mark.parametrize("divide", [
        lambda: Sexa(1, 2) / 0,
        lambda: Sexa(1, 2) / Sexa(0),
        lambda: Sexa(1, 2) / Fraction(0),
        lambda: Sexa(1, 2) / False,
        lambda: 0 / Sexa(0),
        lambda: Fraction(1) / Sexa(0),
        lambda: Sexa(0) / Sexa(0),
    ])
    def test_zero_divisor_raises(self, divide):
        with pytest.raises(ZeroDivisionError):
            divide()

    @pytest.mark.parametrize("other", [
        Decimal("0.5"), Decimal("7"), 0.5 + 0j, 2j, None,
        Quantity(Sexa(2), Dimension.LENGTH_NINDAN)])
    def test_other_operands_behave_as_through_fraction(self, other):
        # Fraction's method, then _wrap: a float or complex result is a
        # TypeError, NotImplemented stays NotImplemented, and comparisons
        # are Fraction's own.
        x, fx = Sexa(1, 2), Fraction(1, 2)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            for got, want in ((lambda: op(x, other), lambda: op(fx, other)),
                              (lambda: op(other, x), lambda: op(other, fx))):
                kind, expected = outcome(want)
                if kind == "value" and isinstance(expected, (float, complex)):
                    kind, expected = "raises", TypeError
                assert outcome(got) == (kind, expected)
        for op in COMPARISONS:
            assert outcome(lambda: op(x, other)) == outcome(
                lambda: op(fx, other))
            assert outcome(lambda: op(other, x)) == outcome(
                lambda: op(other, fx))

    @given(ratios)
    def test_hash_and_fraction_keyed_lookup(self, a):
        fa, sa = Fraction(*a), Sexa(*a)
        assert hash(sa) == hash(fa)
        assert sa in {fa} and fa in {sa}
        assert {fa: "f"}[sa] == "f" and {sa: "s"}[fa] == "s"
        if fa.denominator == 1:
            assert hash(sa) == hash(fa.numerator)
            assert {fa.numerator: "i"}[sa] == "i"
