"""Number core: literals, rendering, regularity, reciprocals, roots."""

import copy
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import sexakit
from sexakit import procedures, sexa
from sexakit.errors import (
    InputError,
    IrregularDivisor,
    MalformedLiteral,
    NegativeRadicand,
    NonTerminating,
    NotAPerfectSquare,
    UnwritableValue,
    ZeroInput,
)
from sexakit.sexa import (
    _BLOCKS,
    _CANONICAL,
    _LAST_CANDIDATE,
    _POWER_BITS,
    _PRIME_SEARCH_LIMIT,
    Sexa,
    _digits,
    _malformed,
    _reduced,
    _rough,
    _smallest_prime_factor,
    _smooth,
    halve,
    is_regular,
    parse,
    reciprocal,
    render,
    sqrt_exact,
    square,
)
from sexakit.procedures import divide_by_recognition
from sexakit.units import Dimension, Quantity

#: The grammar ``parse`` accepts, after ``strip``, as a regex: sign,
#: integer groups, and the fractional groups after ";" or ":".  Each
#: group is 0..59 in one or two ASCII digits.  ``parse`` reads literals
#: without it; the tests hold it as the oracle of that grammar.
_GROUP = "[0-5]?[0-9]"
_LITERAL = re.compile(
    rf"(-?)({_GROUP}(?:,{_GROUP})*)(?:[;:]({_GROUP}(?:,{_GROUP})*))?")


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

    @pytest.mark.parametrize("spec", ["", ".3f", "f", "e", "%", ">8", "s"])
    def test_format_takes_no_spec(self, spec):
        # A spec would format through Fraction, whose result differs
        # between versions and can round; str() is the one text.
        for x in (Sexa(1, 3), Sexa("0;30"), Sexa(1, 7)):
            if spec:
                with pytest.raises(TypeError):
                    format(x, spec)
            else:
                assert format(x, spec) == f"{x}" == str(x)


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
        for build in Sexa, Sexa.from_float:
            with pytest.raises(TypeError, match="^Sexa cannot be built from "
                                                "a float"):
                build(0.5)
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

def naive_smooth(n):
    """(rough, k): n without its factors 2, 3 and 5, divided out one at a
    time, and the least k with n // rough dividing 60**k, from how many
    of each it divided out."""
    counts = []
    for p in (2, 3, 5):
        count = 0
        while n % p == 0:
            n //= p
            count += 1
        counts.append(count)
    twos, threes, fives = counts
    return n, max((twos + 1) // 2, threes, fives)


def assert_smooth(n):
    """_smooth(n) is (rough, k) as the one-factor loop gives them, and k
    is the least k with n // rough dividing 60**k, by that definition."""
    rough, k = _smooth(n)
    assert (rough, k) == naive_smooth(n)
    smooth = n // rough
    assert 60**k % smooth == 0
    assert k == 0 or 60**(k - 1) % smooth != 0


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
        assert_parses_as_reference(text)
        x = parse(text)
        assert_writes_as_reference(x)
        assert parse(render(x)) == x

    @pytest.mark.parametrize("x", [
        60**5 - 1, 60**5, 60**5 + 1, 59 * 60**5,
        60**10 - 1, 60**10, 60**10 + 1, 7 * 60**10, -60**10, 60**15 - 60**5,
        Fraction(1, 60**5), Fraction(1, 60**10), Fraction(60**10 - 1, 60**10),
        -Fraction(1, 60**5), Fraction(1, 2**50), Fraction(3**40, 5**30),
    ])
    def test_render_at_chunk_boundaries(self, x):
        assert_writes_as_reference(x)
        assert parse(render(x)) == x
        assert_canonical(x)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300),
           st.integers(1, 10**12))
    def test_smooth_matches_one_factor_loop(self, a, b, c, m):
        assert_smooth(2**a * 3**b * 5**c * m)

    @pytest.mark.parametrize("n", [
        1, 2**10000, 3**5000 * 7, 5**4097, 2**63 * 3**64 * 5**65 * 11**3,
    ], ids=["1", "2**10000", "3**5000*7", "5**4097",
            "2**63*3**64*5**65*11**3"])
    def test_smooth_large_powers(self, n):
        assert_smooth(n)

    def test_smallest_prime_factor_matches_trial_division(self):
        for n in range(1, 10**5 + 1):
            if math.gcd(n, 30) == 1:
                assert _smallest_prime_factor(n) == \
                    reference_smallest_prime_factor(n), n

    @pytest.mark.parametrize("n,p", [
        (49, 7), (121, 11), (77, 7), (169, 13), (23 * 29, 23), (29 * 31, 29),
        (31 * 37, 31), (37 * 41, 37), (99991, 99991), (100003**2, 100003),
        (99991 * 100003, 99991),
    ])
    def test_smallest_prime_factor_near_wheel_gaps(self, n, p):
        assert _smallest_prime_factor(n) \
            == reference_smallest_prime_factor(n) == p

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
        pytest.param(SEMIPRIME**1000, None, id="semiprime**1000"),
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

    @pytest.mark.parametrize("value", [
        Sexa(11, 7),
        Sexa(7, 11),
        Sexa(13, 77),
        Sexa(-13, 7),
        # The numerator alone names no prime; the denominator's 7 is named.
        Sexa(SEMIPRIME, 7),
    ], ids=repr)
    def test_irregular_divisor_names_the_smallest_prime_of_either_term(
            self, value):
        with pytest.raises(IrregularDivisor) as err:
            reciprocal(value)
        assert err.value.prime == 7
        assert is_regular(value) is False

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
         "-13/7 is not a regular number (prime factor 7); "
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


# -- the rough part by a modular power against the valuation loop ------------

#: The rough parts ``_rough`` is checked with: none, the irregular primes
#: 7 and 7**2, the largest prime below 10**6, and SEMIPRIME.
ROUGH_PARTS = (1, 7, 49, 999983, SEMIPRIME)


def of_bits(bits, m):
    """An odd 3**i * 5**j * m of exactly ``bits`` bits."""
    for j in range(bits):
        x = 5**j * m
        while x.bit_length() < bits:
            x *= 3
        if x.bit_length() == bits:
            return x
    raise AssertionError(f"no 3**i * 5**j * {m} of {bits} bits")


def smooth_rough(n):
    """The rough part as the valuation loop gives it."""
    return _smooth(n)[0]


def detail(call):
    """call()'s result with its type, or its error's type, text and prime."""
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "prime", None)
    return type(value), value


class TestRoughPart:
    @given(st.integers(0, 300), st.integers(0, 700), st.integers(0, 500),
           st.sampled_from(ROUGH_PARTS))
    def test_matches_one_factor_loop(self, a, b, c, m):
        # Odd parts of up to about 2300 bits: each side of _POWER_BITS.
        n = 2**a * 3**b * 5**c * m
        assert _rough(n) == naive_smooth(n)[0] == m

    @pytest.mark.parametrize("bits", [_POWER_BITS, _POWER_BITS + 1])
    @pytest.mark.parametrize("m", ROUGH_PARTS)
    def test_odd_part_at_the_power_bound(self, bits, m):
        # The last odd part the power strips, and the first _smooth does.
        odd = of_bits(bits, m)
        assert odd.bit_length() == bits
        for twos in (0, 1, 2, 61):
            assert _rough(odd << twos) == smooth_rough(odd << twos) == m

    @given(st.integers(-40, 40), st.integers(-700, 700),
           st.integers(-500, 500), st.sampled_from(ROUGH_PARTS),
           st.sampled_from(ROUGH_PARTS), st.sampled_from([1, -1]))
    def test_callers_answer_as_the_valuation_loop(self, a, b, c, p, q, sign):
        # is_regular, reciprocal and recognition's quotient test: the same
        # value, or the same error, message and prime, as with _smooth.
        x = sign * Sexa(2)**a * Sexa(3)**b * Sexa(5)**c * Sexa(p, q)
        calls = (lambda: is_regular(x), lambda: reciprocal(x),
                 lambda: divide_by_recognition(1, x),
                 lambda: divide_by_recognition(x, 7))
        got = [detail(call) for call in calls]
        with mock.patch.object(sexa, "_rough", smooth_rough), \
                mock.patch.object(procedures, "_rough", smooth_rough):
            want = [detail(call) for call in calls]
        assert got == want


# -- the block search against the wheel loop it replaced ---------------------

#: Gaps between successive integers coprime to 30, starting from 7.
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def reference_smallest_prime_factor(n: int) -> int | None:
    """The smallest prime factor of n > 1, found by trial division.

    The search stops once its divisors pass ``_PRIME_SEARCH_LIMIT`` (at
    the end of that turn of the wheel); then n has only prime factors
    above the limit, and the result is None.
    """
    for p in (2, 3, 5):
        if n % p == 0:
            return p
    f = 7
    while f <= _PRIME_SEARCH_LIMIT:
        for gap in _WHEEL_GAPS:
            if f * f > n:
                return n
            if n % f == 0:
                return f
            f += gap
    return None


def small_prime_from(n: int) -> int:
    """The least prime >= max(n, 7), for n up to a few million."""
    n = max(n, 7)
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


#: The bounds of every block: each lo, and the last hi.
BLOCK_BOUNDARIES = [lo for lo, hi in _BLOCKS] + [_BLOCKS[-1][1]]

#: A prime within 120 of a block boundary, on either side of it.
primes_near_boundaries = st.builds(
    lambda lo, offset: small_prime_from(lo + offset),
    st.sampled_from(BLOCK_BOUNDARIES), st.integers(-120, 120))


def wheel_blocks() -> list[tuple[int, int]]:
    """The blocks of the wheel search that the block search replaced, as
    [lo, hi) bounds: 1, 2, 4, ... turns t of 30*t + 7 to 30*t + 36, then
    128 turns at a time, cut at the end of the turn that holds
    ``_PRIME_SEARCH_LIMIT``."""
    turns = (_PRIME_SEARCH_LIMIT - 7) // 30 + 1
    blocks, start, size = [], 0, 1
    while start < turns:
        stop = min(start + size, turns)
        blocks.append((30 * start + 7, 30 * stop + 7))
        start, size = stop, min(2 * size, 128)
    return blocks


def prime_flags(limit: int) -> bytearray:
    """flags[k] is 1 exactly when k <= limit is prime: a bytearray sieve
    of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


class TestBlockSearch:
    def test_blocks_are_the_wheel_search_blocks(self):
        assert list(_BLOCKS) == wheel_blocks()
        assert len(_BLOCKS) == 267
        assert _BLOCKS[-1] == (998377, 1000027)
        assert _LAST_CANDIDATE == 1000021
        assert _LAST_CANDIDATE >= _PRIME_SEARCH_LIMIT

    def test_blocks_tile_the_search_with_lo_squared_past_hi(self):
        # The walk of a block is exact only when every composite in it
        # has a prime factor below lo.
        assert _BLOCKS[0][0] == 7
        assert all(a[1] == b[0] for a, b in zip(_BLOCKS, _BLOCKS[1:]))
        assert all(lo * lo >= hi for lo, hi in _BLOCKS)
        lo, hi = _BLOCKS[-1]
        assert lo <= _LAST_CANDIDATE < hi

    @pytest.mark.parametrize("n,p", [
        # isqrt(n) == 1000020: a prime is named as itself.
        (1000020**2 + 19, 1000020**2 + 19),
        (1000003 * 1000039, 1000003),
        # 1000021**2 - 14 and + 12 are the primes either side of the
        # last candidate's square.
        (1000021**2 - 14, 1000021**2 - 14),
        (1000021**2 + 12, None),
        # isqrt(n) == 1000021 and 1000026: past the last candidate, so
        # a prime is not named.
        (1000021**2, 11),
        (1000021**2 + 2 * 1000021 - 20, None),
        (1000026**2 + 5, None),
        (1000026**2 + 2 * 1000026 - 11, None),
        (1000003 * 1000033, 1000003),
        (1000033 * 1000037, None),
        # Two primes of one block: the gcd is their product, then walked.
        (101 * 103, 101),
        (29 * 31, 29),
        (7 * 11 * 13, 7),
        (999979 * 999983, 999979),
        (999979 * 999983 * SEMIPRIME, 999979),
        # A squared prime and another prime of one block: the gcd is
        # their product, the square only once.
        (1009**2 * 1013, 1009),
        (999979**2 * 999983, 999979),
        # Squares of candidates.
        (7**50, 7),
        (97**2, 97),
        (1000003**2, 1000003),
        (1, 1),
    ])
    def test_matches_the_wheel_loop_at_the_limits(self, n, p):
        assert _smallest_prime_factor(n) == \
            reference_smallest_prime_factor(n) == p

    @settings(max_examples=60, deadline=None)
    @given(st.lists(primes_near_boundaries, min_size=1, max_size=3),
           st.sampled_from([1, 1000033, 1000000007, SEMIPRIME]))
    @example([1000033], 1000033)
    def test_matches_the_wheel_loop_across_block_boundaries(
            self, primes, cofactor):
        n = math.prod(primes) * cofactor
        # A prime past the last candidate is named only as n itself.
        p = min(primes)
        expected = p if p <= _LAST_CANDIDATE or n == p else None
        assert _smallest_prime_factor(n) == \
            reference_smallest_prime_factor(n) == expected

    def test_threads_share_one_table(self):
        inputs = [small_prime_from(lo + 1) * 1000000007
                  for lo in BLOCK_BOUNDARIES[::40]] + [SEMIPRIME, 97**2]
        expected = [reference_smallest_prime_factor(n) for n in inputs]
        results = [None] * 4

        def search(i):
            results[i] = [_smallest_prime_factor(n) for n in inputs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sexa._BLOCK_PRODUCTS.clear()
            threads = [threading.Thread(target=search, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        assert len(sexa._BLOCK_PRODUCTS) == len(_BLOCKS)
        is_prime = prime_flags(_BLOCKS[-1][1])
        for lo, hi in _BLOCKS:
            assert sexa._BLOCK_PRODUCTS[lo] == math.prod(
                c for c in range(lo, hi) if is_prime[c])

    def test_no_product_is_built_by_import_or_replay(self):
        script = (
            "import contextlib, io\n"
            "import sexakit\n"
            "from sexakit import cli, sexa\n"
            "print(len(sexa._BLOCK_PRODUCTS))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['replay', '--all'])\n"
            "print(code, len(sexa._BLOCK_PRODUCTS))\n")
        src = os.path.dirname(os.path.dirname(sexakit.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"] * 3


# -- the digit kernels against the one-group loops they replaced -------------

#: Five base-60 digits, below 2**30: one CPython digit per division.
_CHUNK = 60 ** 5


def reference_parse(text: str) -> Sexa:
    """Parse a sexagesimal literal into an exact rational.

    Lenient about non-canonical spellings (leading zero groups, trailing
    fractional zeros, ":" for ";"); strict about the grammar itself.
    """
    if not isinstance(text, str):
        raise MalformedLiteral(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    m = _LITERAL.fullmatch(s)
    if m is None:
        raise _malformed(text, s)
    sign, head, tail = m.groups()
    value = 0
    for d in map(int, (head + "," + tail if tail else head).split(",")):
        value = value * 60 + d
    if sign:
        value = -value
    scale = 60 ** (tail.count(",") + 1) if tail else 1
    g = math.gcd(value, scale)
    return _reduced(value // g, scale // g)


def parsed(read, text):
    """(numerator, denominator) of read(text), or its MalformedLiteral text."""
    try:
        x = read(text)
    except MalformedLiteral as exc:
        return str(exc)
    assert type(x) is Sexa
    return x.numerator, x.denominator


def assert_parses_as_reference(text):
    """parse and reference_parse give the same terms or the same error."""
    assert parsed(parse, text) == parsed(reference_parse, text)


def reference_digits(f: Fraction, k: int) -> str:
    """Canonical literal of f, for the smallest k with f's denominator
    dividing 60**k (the k of ``naive_smooth``).

    The form is canonical by construction: a minimal k leaves no trailing
    zero in the fractional part, and padding only up to k + 1 digits
    leaves no leading zero in the integer part.
    """
    scaled = abs(f.numerator) * (60 ** k // f.denominator)
    digits = []
    while scaled >= _CHUNK:
        scaled, chunk = divmod(scaled, _CHUNK)
        for _ in range(5):
            chunk, d = divmod(chunk, 60)
            digits.append(d)
    while scaled:
        scaled, d = divmod(scaled, 60)
        digits.append(d)
    while len(digits) < k + 1:
        digits.append(0)
    digits.reverse()
    point = len(digits) - k
    text = ",".join(map(str, digits[:point]))
    if k:
        text += ";" + ",".join(map(str, digits[point:]))
    return "-" + text if f.numerator < 0 else text


#: Group counts at the kernels' edges: the last count folded one by one
#: and the first paired (8, 9), odd and even counts, four-digit chunks,
#: and the first split of a part into halves (512, 513) and of a half
#: again (1025).
EDGE_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 10, 16, 17, 33, 511, 512, 513, 514,
               1024, 1025, 1026, 1500]
group_counts = st.sampled_from(EDGE_COUNTS) | st.integers(0, 1500)


@st.composite
def long_digits(draw, counts=group_counts):
    """Digits 0..59, random or all 59, with one run of zeros at any place."""
    n = draw(counts)
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        digits = [rng.randrange(60) for _ in range(n)]
    else:
        digits = [59] * n
    start = rng.randrange(n + 1)
    end = draw(st.sampled_from([start, start + 1, n, n + 600]))
    digits[start:end] = [0] * (min(end, n) - start)
    return digits


def spell(digits, rng):
    """Digit groups as a literal may spell them: "5" or "05"."""
    return ",".join(f"{d:02}" if d < 10 and rng.random() < 0.3 else str(d)
                    for d in digits)


def assert_writes_as_reference(x):
    """render, str, repr and format of x give the reference text."""
    f = Fraction(x)
    _, k = naive_smooth(f.denominator)
    text = reference_digits(f, k)
    assert _digits(f, k) == text
    assert render(x) == text
    x = Sexa(x)
    assert str(x) == format(x, "") == f"{x}" == text
    assert repr(x) == f"Sexa({text!r})"


#: Integer parts at the edges of a digit pair, a four-digit chunk and the
#: first split into halves, and fractional parts of odd and even k.
WHOLE_EDGES = {
    "0": 0, "1": 1, "59": 59, "60": 60, "3599": 3599, "3600": 3600,
    "60**4-1": 60**4 - 1, "60**4": 60**4, "60**4+1": 60**4 + 1,
    "60**512-1": 60**512 - 1, "60**512": 60**512, "60**512+1": 60**512 + 1,
    "60**1024+60**512-1": 60**1024 + 60**512 - 1,
}
FRACTION_EDGES = {
    "0": 0, "1/2": Fraction(1, 2), "59/60": Fraction(59, 60),
    "1/3600": Fraction(1, 3600), "7/60**3": Fraction(7, 60**3),
    "1/2**10": Fraction(1, 2**10), "1/60**4": Fraction(1, 60**4),
    "(60**4+1)/60**5": Fraction(60**4 + 1, 60**5),
    "1/60**512": Fraction(1, 60**512),
    "(60**513-1)/60**513": Fraction(60**513 - 1, 60**513),
    "1/3**1025": Fraction(1, 3**1025),
}


#: Group counts at the edges of the eight-digit words that long literals
#: are read in: the last count folded one by one (8) and the first read
#: as words (9), around two and three words and around 64, 72, 128 and
#: 512 digits, where the words' own pair fold changes its shape.
LANE_COUNTS = [8, 9, 15, 16, 17, 23, 24, 25, 63, 64, 65, 71, 72, 73, 127, 128,
               129, 511, 512, 513, 514]
#: Digits of n groups: random; all 0; all 59; and runs of five 0s and
#: five 59s, which cross every lane and word boundary.
DIGIT_RUNS = {
    "random": lambda n, rng: [rng.randrange(60) for _ in range(n)],
    "zeros": lambda n, rng: [0] * n,
    "nines": lambda n, rng: [59] * n,
    "runs": lambda n, rng: [0 if i // 5 % 2 else 59 for i in range(n)],
}
#: The literal alphabet, and text around it that no literal holds.
LITERAL_TEXT = "0123456789,;:- +\n\u0665"


class TestDigitKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["", "-"]), long_digits(),
           long_digits(st.sampled_from([0, 0, 1, 2, 9]) | group_counts),
           st.sampled_from([";", ":"]), st.randoms(use_true_random=False))
    def test_literals_match_the_loops(self, sign, head, tail, point, rng):
        head = head or [0]
        text = sign + spell(head, rng)
        if tail:
            text += point + spell(tail, rng)
        x = parse(text)
        expected = reference_parse(text)
        assert (x.numerator, x.denominator) == \
            (expected.numerator, expected.denominator)
        assert type(x) is Sexa
        assert_writes_as_reference(x)

    @pytest.mark.parametrize("kind", DIGIT_RUNS)
    @pytest.mark.parametrize("n", LANE_COUNTS)
    def test_lane_edges_parse_as_the_reference(self, n, kind):
        rng = random.Random(n)
        digits = DIGIT_RUNS[kind](n, rng)
        for cut in sorted({1, n // 2, n - 1, n}):
            head, tail = digits[:cut], digits[cut:]
            for sign in ("", "-"):
                for point in (";", ":"):
                    text = sign + spell(head, rng)
                    if tail:
                        text += point + spell(tail, rng)
                    assert_parses_as_reference(text)
                    assert_parses_as_reference(f" \t{text}\n")

    @pytest.mark.parametrize("n", LANE_COUNTS)
    @pytest.mark.parametrize("bad", ["60", "", "123", "5 ", "+1", "-1",
                                     "1;2", "\u0665", "1\n2"])
    def test_a_bad_group_at_a_lane_edge_fails_as_the_reference(self, n, bad):
        rng = random.Random(n)
        groups = [str(rng.randrange(60)) for _ in range(n)]
        for at in sorted({0, 7, 8, n // 2, n - 1} & set(range(n))):
            text = ",".join(groups[:at] + [bad] + groups[at + 1:])
            assert_parses_as_reference(text)
            assert_parses_as_reference(text[:n] + ";" + text[n:])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=LITERAL_TEXT, max_size=40))
    @example("")
    @example(" - ")
    @example("-5;")
    @example("1;2:3")
    @example("\u0665")
    def test_any_text_parses_as_the_reference(self, text):
        assert_parses_as_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(st.from_regex(_LITERAL, fullmatch=True), st.integers(0, 10**6),
           st.text(alphabet=LITERAL_TEXT, max_size=3))
    def test_spliced_literals_parse_as_the_reference(self, text, at, splice):
        # A literal of the grammar, long or short, with a few characters
        # of the alphabet put in at one place: valid or not, parse and
        # the reference agree.
        at %= len(text) + 1
        assert_parses_as_reference(text)
        assert_parses_as_reference(text[:at] + splice + text[at:])

    @pytest.mark.parametrize("whole", WHOLE_EDGES.values(), ids=WHOLE_EDGES)
    @pytest.mark.parametrize("frac", FRACTION_EDGES.values(),
                             ids=FRACTION_EDGES)
    def test_values_at_chunk_and_split_edges(self, whole, frac):
        assert_writes_as_reference(whole + frac)
        assert_writes_as_reference(-(whole + frac))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9000), st.integers(0, 6000), st.integers(0, 3000),
           st.integers(0, 3000), st.integers(1, 10**6))
    def test_smooth_values_match_the_loop(self, bits, a, b, c, m):
        # Numerators of up to 9000 bits over 2**a 3**b 5**c: fractional
        # parts of odd and even k up to 3000 digits.
        assert_writes_as_reference(
            Fraction(m << bits | m, 2**a * 3**b * 5**c))

    def test_long_literal_parses_in_bounded_time(self):
        # 200 000 groups: about 11 s one group per step, under 0.5 s
        # folded in pairs.
        text = ",".join(["59", "0", "7", "30"] * 50_000)
        start = time.perf_counter()
        x = parse(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 2, f"{elapsed:.2f} s"
        # The four-group block 59,0,7,30 repeated 50 000 times.
        block = ((59 * 60 + 0) * 60 + 7) * 60 + 30
        assert x == block * (60**200_000 - 1) // (60**4 - 1)


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


class IntSub(int):
    """An int subclass: Sexa's operators send it to Fraction's."""


class FractionSub(Fraction):
    """A Fraction subclass that is not a Sexa."""


def outcome(call):
    """("value", result) or ("raises", exception type) of call()."""
    try:
        return "value", call()
    except Exception as exc:
        return "raises", type(exc)


def assert_like_result(result, expected):
    """result is Fraction's result expected as Sexa gives it: a Fraction
    as a Sexa, a tuple item by item, anything else of its own type."""
    if isinstance(expected, tuple):
        assert type(result) is tuple and len(result) == len(expected)
        for got, want in zip(result, expected):
            assert_like_result(got, want)
    elif isinstance(expected, Fraction):
        assert_like_fraction(result, expected)
    else:
        assert type(result) is type(expected) and result == expected


#: The rest of Fraction's arithmetic, which Sexa sends through ``_wrap``,
#: on a value x and an operand y.
WRAPPED = {
    "x % y": operator.mod,
    "y % x": lambda x, y: y % x,
    "divmod(x, y)": divmod,
    "divmod(y, x)": lambda x, y: divmod(y, x),
    "x // y": operator.floordiv,
    "y // x": lambda x, y: y // x,
    "round(x, 2)": lambda x, y: round(x, 2),
    "round(x, -1)": lambda x, y: round(x, -1),
    "round(x)": lambda x, y: round(x),
    "x.limit_denominator(10)": lambda x, y: x.limit_denominator(10),
    "from_float(y)": lambda x, y: type(x).from_float(y),
}


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
        # A bool or a subclass of int or Fraction goes to Fraction's own
        # method, with the same value.  A Fraction subclass on the left
        # answers before Sexa can, so that result is Fraction's own.
        fa, sa = Fraction(*a), Sexa(*a)
        for other in (k, Fraction(k, 7), IntSub(k), FractionSub(k, 7), k > 0):
            ops = [operator.add, operator.sub, operator.mul]
            for op in ops + [operator.truediv] * (fa != 0):
                got, want = op(other, sa), op(other, fa)
                if type(other) is FractionSub:
                    assert type(got) is type(want) and got == want
                else:
                    assert_like_fraction(got, want)
            for op in ops + [operator.truediv] * (other != 0):
                assert_like_fraction(op(sa, other), op(fa, other))

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
        with pytest.raises(TypeError, match="does not mix with floats"):
            op(Sexa(1, 2), 0.5)
        with pytest.raises(TypeError, match="does not mix with floats"):
            op(0.5, Sexa(1, 2))

    def test_fractional_power_would_be_a_float(self):
        for base in (2, Fraction(2), Sexa(2)):
            with pytest.raises(TypeError, match="^a non-integer power is "
                                                "not exact; sqrt_exact takes "
                                                "the scribal root$"):
                base ** Sexa(1, 2)

    @pytest.mark.parametrize("function", [render, is_regular, reciprocal,
                                          sqrt_exact])
    @pytest.mark.parametrize("x,like", [
        (1.5, TypeError), (float("nan"), TypeError),
        ("1;30", Sexa("1;30")), ("0.5", MalformedLiteral),
        (Decimal("0.5"), Fraction(1, 2))])
    def test_sexalike_argument_is_built_with_sexa(self, function, x, like):
        # What Sexa() refuses, each refuses; what it builds, each takes.
        if isinstance(like, type):
            with pytest.raises(like):
                function(x)
        else:
            assert outcome(lambda: function(x)) == outcome(
                lambda: function(like))

    @pytest.mark.parametrize("function", [Sexa, Sexa.from_decimal, render,
                                          is_regular, reciprocal, sqrt_exact])
    @pytest.mark.parametrize("x", [Decimal("NaN"), Decimal("-NaN"),
                                   Decimal("sNaN"), Decimal("Infinity"),
                                   Decimal("-Infinity")])
    def test_non_finite_decimal_is_a_malformed_literal(self, function, x):
        # Still a ValueError, as Fraction's own refusal of a NaN is.
        with pytest.raises(MalformedLiteral) as info:
            function(x)
        assert isinstance(info.value, InputError)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == f"{x!r}: not a finite number"

    @pytest.mark.parametrize("x", [Decimal("0.5"), Decimal("-1.25E-3"),
                                   Decimal("7"), Decimal("-0"), 3, True])
    def test_from_decimal_of_a_finite_value(self, x):
        assert_like_fraction(Sexa.from_decimal(x), Fraction.from_decimal(x))

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
        # Fraction's own __reduce__ gives (Sexa, (n, d)), which rebuilds it.
        pickled = [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (*pickled, copy.copy(x), copy.deepcopy(x)):
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
                             (FractionSub(*b), Fraction(*b)),
                             (b[0], b[0]), (IntSub(b[0]), b[0]),
                             (b[0] > 0, b[0] > 0)):
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
        lambda: Sexa(1, 2) / IntSub(0),
        lambda: Sexa(1, 2) / FractionSub(0),
        lambda: IntSub(1) / Sexa(0),
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

    @pytest.mark.parametrize("name", WRAPPED)
    @given(a=ratios, b=ratios)
    def test_wrapped_operations_match_fraction(self, name, a, b):
        # Fraction's result, with a Fraction as a Sexa and an int kept an
        # int.  A float is refused: in a result, and by from_float.
        op, fa, sa = WRAPPED[name], Fraction(*a), Sexa(*a)
        for y in (Sexa(*b), Fraction(*b), b[0], IntSub(b[0]), b[0] > 0,
                  b[0] / b[1]):
            kind, want = outcome(
                lambda: op(fa, Fraction(y) if type(y) is Sexa else y))
            floats = want if isinstance(want, tuple) else (want,)
            if kind == "value" and (
                    any(isinstance(v, float) for v in floats)
                    or name == "from_float(y)" and isinstance(y, float)):
                kind, want = "raises", TypeError
            if kind == "raises":
                with pytest.raises(want):
                    op(sa, y)
            else:
                assert_like_result(op(sa, y), want)

    @given(ratios)
    def test_hash_and_fraction_keyed_lookup(self, a):
        fa, sa = Fraction(*a), Sexa(*a)
        assert hash(sa) == hash(fa)
        assert sa in {fa} and fa in {sa}
        assert {fa: "f"}[sa] == "f" and {sa: "s"}[fa] == "s"
        if fa.denominator == 1:
            assert hash(sa) == hash(fa.numerator)
            assert {fa.numerator: "i"}[sa] == "i"


# -- what Sexa does with each public attribute of Fraction --------------------

#: Each public attribute of Fraction and what Sexa does with it: "own",
#: Sexa binds its own; "closed", Sexa's binding sends Fraction's result
#: through ``_wrap``; "inherited", Sexa keeps Fraction's, for the reason
#: given.  A third item is the first Python that has the attribute.
FRACTION_SURFACE = {
    "__new__": ("own", "parses a literal; refuses a float and a NaN"),
    "__abs__": ("own", "the terms, with the numerator's sign dropped"),
    "__neg__": ("own", "the terms, with the numerator negated"),
    "__pos__": ("own", "the value itself"),
    "__str__": ("own", "the base-60 literal"),
    "__repr__": ("own", "Sexa and the literal"),
    "__format__": ("own", "str() or a refused spec", (3, 12)),
    "__hash__": ("own", "Fraction's, bound again beside __eq__"),
    "from_float": ("own", "refuses a float, as Sexa(1.5) does"),
    "from_decimal": ("own", "refuses a NaN or infinity, as Sexa() does"),
    **dict.fromkeys(
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__gt__",
         "__le__", "__ge__"),
        ("closed", "a kernel on the terms, else Fraction's method")),
    **dict.fromkeys(
        ("__pow__", "__rpow__", "__mod__", "__rmod__", "__divmod__",
         "__rdivmod__", "__floordiv__", "__rfloordiv__", "__round__",
         "limit_denominator"),
        ("closed", "Fraction's method")),
    "__bool__": ("inherited", "a bool"),
    "is_integer": ("inherited", "a bool", (3, 12)),
    "__int__": ("inherited", "an int"),
    "__trunc__": ("inherited", "an int"),
    "__floor__": ("inherited", "an int"),
    "__ceil__": ("inherited", "an int"),
    "numerator": ("inherited", "an int term"),
    "denominator": ("inherited", "an int term"),
    "as_integer_ratio": ("inherited", "the two int terms"),
    "imag": ("inherited", "the int 0"),
    "real": ("inherited", "+x, which is x"),
    "conjugate": ("inherited", "+x, which is x"),
    "__float__": ("inherited", "float(x) asks for a float by name"),
    "__complex__": ("inherited", "complex(x) asks for a complex by name"),
    "__copy__": ("inherited", "type(x)(n, d), a Sexa"),
    "__deepcopy__": ("inherited", "type(x)(n, d), a Sexa"),
    "__reduce__": ("inherited", "unpickled as type(x)(n, d), a Sexa"),
}


def fraction_surface():
    """Fraction's public attributes: each method, property or classmethod
    that Fraction or one of its ``numbers`` bases binds, bar private
    names."""
    return {name for cls in Fraction.__mro__[:-1]
            for name, value in vars(cls).items()
            if (not name.startswith("_") or name.endswith("__"))
            and hasattr(value, "__get__")}


def binding(name):
    """How Sexa binds name: "inherited", "closed" or "own"."""
    if name not in vars(Sexa):
        return "inherited"
    method = vars(Sexa)[name]
    code = getattr(getattr(method, "__func__", method), "__code__", None)
    return "closed" if code and "_wrap" in code.co_names else "own"


class TestInheritedSurface:
    def test_the_table_names_every_public_attribute_of_fraction(self):
        listed = {name for name, (_, _, *since) in FRACTION_SURFACE.items()
                  if sys.version_info >= (since or [(0,)])[0]}
        surface = fraction_surface()
        assert surface - listed == set(), "not in FRACTION_SURFACE"
        assert listed - surface == set(), "not an attribute of Fraction"

    @pytest.mark.parametrize("name", sorted(FRACTION_SURFACE))
    def test_sexa_binds_each_name_as_the_table_says(self, name):
        assert binding(name) == FRACTION_SURFACE[name][0]
