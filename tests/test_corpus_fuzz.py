"""Arbitrary corpus text loads or ends in a SexakitError, never another
exception.

Each example writes one corpus file and hands it to ``load_corpus``.
Its lines are drawn from field-line fragments (problem headers, the
``procedure``, ``given``, ``param``, ``expect step`` and ``expect
answer`` fields with names, literals, units and line tags both valid
and malformed, repeats included, spaced with blanks and tabs) and from
arbitrary short lines, which may hold non-ASCII text.  ``load_corpus``
must return a list of problems or raise a ``SexakitError`` (which the
CLI maps to exit 2), and finish inside the deadline.  A loaded step's
line is never empty and never ends in a ``?`` or a blank.  This
complements ``tests/test_cli_fuzz.py``, which never writes a corpus.
"""

from datetime import timedelta

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from sexakit.corpus import PROCEDURES, load_corpus
from sexakit.errors import SexakitError
from sexakit.units import Dimension

NAMES = ["A", "B", "C", "V", "u", "x", "half_B", "total_water", "workers",
         "width", "reach_length", "diff", "depth_factor", "thirteenth", "rhs"]
UNITS = [d.value for d in Dimension] + ["sar60", "susi", "furlong"]
TAGS = ["obv.26", "rev.21?", "rev.21 ?", "?", "??", "? ?", "", "x@y"]

#: A literal: base-60 digit groups with an optional fractional part and
#: sign, or a few free characters.
literals = st.one_of(
    st.builds(
        "{}{}{}".format, st.sampled_from(["", "-"]),
        st.lists(st.integers(0, 70), min_size=1, max_size=6).map(
            lambda groups: ",".join(map(str, groups))),
        st.sampled_from(["", ";30", ";0,5", ":5", ";"])),
    st.text("0123456789,;:-. xA", max_size=8))
names = st.one_of(st.sampled_from(NAMES), st.text("ab_= @", max_size=4))


@st.composite
def field_lines(draw):
    """One corpus line built from the format's own fragments."""
    kind = draw(st.sampled_from(["header", "procedure", "given", "param",
                                 "expect step", "expect answer", "expect"]))
    if kind == "header":
        return draw(st.sampled_from(
            ["[problem t.p1]", "[problem t.p2]", "[problem bad id]", "[x"]))
    if kind == "procedure":
        name = draw(st.one_of(st.sampled_from(sorted(PROCEDURES)), names))
        return f"procedure {draw(st.sampled_from(['= ', '', '=']))}{name}"
    value = draw(literals)
    if kind in ("given", "expect answer"):
        value += " " + draw(st.sampled_from(UNITS))
    elif kind == "expect step":
        value += " @ " + draw(st.sampled_from(TAGS))
    separator = draw(st.sampled_from([" = ", "=", " ", " == ", "\t=\t"]))
    comment = draw(st.sampled_from(["", "  # note", "#"]))
    gap = draw(st.sampled_from([" ", "\t", " \t"]))
    return f"{kind.replace(' ', gap)}{gap}{draw(names)}{separator}{value}" \
           f"{comment}"


#: A short line: 7-bit text, or any text at all.
short_lines = st.one_of(st.text(st.characters(max_codepoint=127),
                                max_size=12), st.text(max_size=12))
corpus_texts = st.lists(st.one_of(field_lines(), short_lines),
                        max_size=12).map("\n".join)


@st.composite
def record_heads(draw):
    """No head; or a header and a procedure line, with or without the
    fields that procedure requires (and then some of those it may
    carry, each given in its dimension), so that some examples load."""
    procedure = draw(st.sampled_from([None, *sorted(PROCEDURES)]))
    if procedure is None:
        return ""
    head = ["[problem t.fuzz]", f"procedure = {procedure}"]
    if draw(st.booleans()):
        spec = PROCEDURES[procedure]
        params = [*spec.params, *(name for name in spec.optional_params
                                  if draw(st.booleans()))]
        givens = [*spec.givens, *(given for given in spec.optional_givens
                                  if draw(st.booleans()))]
        head += [f"param {name} = 1" for name in params]
        head += [f"given {name} = 1 {dim.value}" for name, dim in givens]
    return "\n".join(head) + "\n"


#: A record head that loads: a quadratic with its three params.
QUADRATIC_HEAD = ("[problem t.fuzz]\nprocedure = quadratic\n"
                  "param A = 1\nparam B = 1\nparam C = 1\n")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "fuzz.corpus"


@settings(max_examples=300, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(record_heads(), corpus_texts)
@example(head=QUADRATIC_HEAD, text="expect step u = 1 @ rev.21 ?")
@example(head=QUADRATIC_HEAD, text="expect step u = 1 @ ? ?")
def test_any_corpus_text_loads_or_raises_a_sexakit_error(
        corpus_path, head, text):
    corpus_path.write_text(head + text, encoding="utf-8")
    try:
        problems = load_corpus(corpus_path)
    except SexakitError:
        return
    assert isinstance(problems, list)
    # A loaded step names its line without the "(?)" marks and blanks.
    for problem in problems:
        for step in problem.expected_steps:
            assert step.line
            assert step.line[-1] != "?" and not step.line[-1].isspace()
