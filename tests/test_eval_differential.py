"""``eval --oracle`` against Python's own parser.

Expressions over the integers 0-59 with ``+ - * /``, unary ``-``,
parentheses and random spacing are evaluated twice: by
``evaluate_expression(text, "oracle")``, and by Python with each literal
written as ``Fraction(n)``.  Python's grammar is the reference for
precedence and associativity, so the two must give the same value, or
both raise ``ZeroDivisionError`` (``ZeroDivisor`` subclasses it).
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sexakit.cli import evaluate_expression

space = st.sampled_from(["", " ", "  ", "\t"])


def grow(inner):
    return st.one_of(
        st.builds("-{}{}".format, space, inner),
        st.builds("({}{}{})".format, space, inner, space),
        st.builds("{}{}{}{}{}".format, inner, space,
                  st.sampled_from("+-*/"), space, inner))


expressions = st.builds(
    "{}{}{}".format, space,
    st.recursive(st.integers(0, 59).map(str), grow, max_leaves=20), space)


@given(expressions)
@example("10 - 2 - 3")
@example("8 / 4 / 2")
@example("-2 * -3 - -1")
@example("1 / (2 - 2)")
def test_oracle_eval_agrees_with_python(text):
    python_text = re.sub(r"\d+", r"Fraction(\g<0>)", text).strip()
    try:
        expected = eval(python_text, {"Fraction": Fraction,
                                      "__builtins__": {}})
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            evaluate_expression(text, "oracle")
    else:
        assert evaluate_expression(text, "oracle") == expected
