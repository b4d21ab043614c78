"""Corpus loading, replay verification, and the enlarged-canal system."""

import copy
import errno
import io
import os
import pickle
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import sexakit.corpus
import sexakit.geometry
import sexakit.procedures
import sexakit.units
from sexakit.corpus import (
    PROCEDURES,
    ExpectedStep,
    ProcedureSpec,
    TabletProblem,
    _lines,
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
from sexakit.sexa import Sexa, parse, reciprocal, render
from sexakit.units import Dimension, Quantity
from test_generated_corpus import PROBLEMS as GENERATED, gen


#: A TabletProblem's mapping fields.
MAPPINGS = ("givens", "parameters", "expected_answers", "answer_texts")


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
        path = bundled_corpus_path()
        assert isinstance(path, Path) and path.is_file()
        assert load_corpus(path) == load_corpus()

    def test_a_path_of_another_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            load_corpus(5)

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
        rebuilt = TabletProblem(
            id=p.id, procedure=p.procedure, givens=p.givens,
            parameters=p.parameters, expected_steps=p.expected_steps,
            expected_answers=p.expected_answers)
        assert rebuilt == p and repr(rebuilt) == repr(p)
        assert rebuilt.answer_texts == p.answer_texts \
            == {n: str(q) for n, q in p.expected_answers.items()}

    def test_a_loaded_problem_is_read_only(self, bundled):
        assert TabletProblem.__hash__ is None
        for p in bundled:
            for name in MAPPINGS:
                mapping = getattr(p, name)
                for key in [*mapping, "new"]:
                    with pytest.raises(TypeError):
                        mapping[key] = Sexa(3)
                    with pytest.raises(TypeError):
                        del mapping[key]
            with pytest.raises(TypeError):
                hash(p)

    def test_a_problem_keeps_its_own_copies(self, bundled):
        # With its answer texts given, and settled from its answers.
        for p in bundled:
            for pass_texts in (True, False):
                given = {name: dict(getattr(p, name)) for name in MAPPINGS}
                steps = list(p.expected_steps)
                rebuilt = TabletProblem(
                    p.id, p.procedure, given["givens"], given["parameters"],
                    steps, given["expected_answers"],
                    given["answer_texts"] if pass_texts else None)
                for mapping in given.values():
                    mapping.clear()
                    mapping["new"] = Sexa(3)
                steps.clear()
                assert rebuilt == p
                assert rebuilt.expected_steps == p.expected_steps
                for name in MAPPINGS:
                    assert getattr(rebuilt, name) == getattr(p, name), name

    def test_pickle_copy_and_deepcopy_give_an_equal_problem(self, bundled):
        for p in bundled:
            copies = [pickle.loads(pickle.dumps(p, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(p), copy.deepcopy(p)]
            for other in copies:
                assert other == p and repr(other) == repr(p)
                for name in MAPPINGS:
                    assert getattr(other, name) == getattr(p, name), name
                    with pytest.raises(TypeError):
                        getattr(other, name)["new"] = Sexa(3)

    def test_empty_file(self, tmp_path):
        assert load_corpus(write_corpus(tmp_path, "")) == []
        assert load_corpus(write_corpus(tmp_path, "# only comments\n")) == []

    def test_env_var_override(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path, "")
        monkeypatch.setenv("SEXAKIT_CORPUS", str(path))
        assert load_corpus() == []

    def test_long_literal_loads_in_bounded_time(self, tmp_path):
        # A corpus line has no length cap: a 200 000-group literal took
        # about 11 s to parse one group per step, under 0.5 s folded.
        huge = ",".join(["59", "0", "7", "05"] * 50_000)
        path = write_corpus(tmp_path, minimal_record("quadratic").replace(
            "param A = 1", f"param A = {huge}"))
        start = time.perf_counter()
        problem, = load_corpus(path)
        elapsed = time.perf_counter() - start
        assert problem.parameters["A"] == parse(huge)
        assert elapsed < 2, f"{elapsed:.2f} s"

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

    @pytest.mark.parametrize("line", [
        "procedure quadratic", "procedure =  = quadratic", "procedure =",
        "procedure quadratic =", "procedure == quadratic",
        "procedure = quadratic = quadratic"])
    def test_procedure_needs_one_equals_sign(self, tmp_path, line):
        path = write_corpus(tmp_path, f"[problem t.p1]\n{line}\n")
        with pytest.raises(CorpusParseError) as err:
            load_corpus(path)
        assert type(err.value) is CorpusParseError
        assert str(err.value) == "line 2: procedure needs '= <name>'"

    @pytest.mark.parametrize("line", [
        "procedure = quadratic", "procedure=quadratic",
        "procedure   =   quadratic  # the one spelling"])
    def test_procedure_spacing_is_free(self, tmp_path, line):
        path = write_corpus(tmp_path, f"[problem t.p1]\n{line}\n"
                            "param A = 1\nparam B = 5\nparam C = 6\n")
        assert load_corpus(path)[0].procedure is PROCEDURES["quadratic"]

    @pytest.mark.parametrize("gap", [" ", "\t", " \t ", "\t\t"])
    def test_any_whitespace_ends_a_field_kind(self, tmp_path, gap):
        # "expect"'s sub-kind ends at a run of whitespace too, as the
        # field's own kind does.
        path = write_corpus(tmp_path, (
            "[problem t.p1]\nprocedure = quadratic\n"
            f"param{gap}A = 1\nparam B = 5\nparam C = 6\n"
            f"expect{gap}step{gap}u = 6 @ obv.1\n"
            f"expect answer{gap}u = 6 nindan\n"))
        problem = load_corpus(path)[0]
        assert problem.parameters["A"] == 1
        assert problem.expected_steps == (ExpectedStep("u", Sexa(6), "obv.1"),)
        assert problem.expected_answers == {
            "u": Quantity(Sexa(6), Dimension.LENGTH_NINDAN)}

    @pytest.mark.parametrize("tag", ["obv.1?", "obv.1 ?", "obv.1 ? ?",
                                     "obv.1\t??"])
    def test_uncertain_tag_names_its_line(self, tmp_path, tag):
        # The "(?)" marks and the whitespace among or before them are not
        # part of the line.
        path = write_corpus(tmp_path, (
            "[problem t.p1]\nprocedure = quadratic\n"
            "param A = 1\nparam B = 5\nparam C = 6\n"
            f"expect step u = 6 @ {tag}\n"))
        step, = load_corpus(path)[0].expected_steps
        assert (step.line, step.uncertain) == ("obv.1", True)

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
        # A tag that is only the "(?)" mark names no line.
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\nexpect step a = 1 @ ?\n", "line-tag"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\nexpect step a = 1 @ ??\n", "line-tag"),
        ("[problem t.p1]\nprocedure = quadratic\nparam A = 1\nparam B = 1\n"
         "param C = 1\nexpect step a = 1 @ ? ?\n", "line-tag"),
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
        # Not the last procedure wins: the repeat is rejected by its name.
        ("procedure = labor-depth", "procedure 'labor-depth'"),
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

    def test_a_path_with_a_nul_byte_is_a_parse_error(self):
        # open() refuses it with a ValueError, before any system call.
        with pytest.raises(CorpusParseError) as err:
            load_corpus("a\0b")
        assert str(err.value) \
            == "cannot read corpus 'a\\x00b': embedded null byte"

    def test_seven_bit_only(self, tmp_path):
        path = write_corpus(tmp_path, "[problem t.p1]\n# kùš\n")
        with pytest.raises(CorpusParseError):
            load_corpus(path)

    @pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d",
                                           "\x1e"])
    def test_a_line_ends_only_at_a_newline(self, tmp_path, separator):
        # str.splitlines would end the comment's line at the separator, and
        # number every later line one past what grep -n gives.
        text = (f"[problem t.p1]\nprocedure = quadratic # a{separator}b\n"
                "param A = 1\nparam B = 5\nparam C = 6\n")
        problem, = load_corpus(write_corpus(tmp_path, text))
        assert problem.parameters["C"] == 6
        with pytest.raises(CorpusParseError, match="unrecognized") as err:
            load_corpus(write_corpus(tmp_path, text + "wibble\n"))
        assert err.value.line == 6

    def test_crlf_and_cr_end_a_line_as_newline_does(self, tmp_path):
        path = tmp_path / "crlf.corpus"
        path.write_bytes(b"[problem t.p1]\r\nprocedure = quadratic\r"
                         b"param A = 1\r\nparam B = 5\nparam C = 6\r\n")
        problem, = load_corpus(path)
        assert problem.parameters["C"] == 6
        path.write_bytes(path.read_bytes() + b"wibble\r\n")
        with pytest.raises(CorpusParseError, match="unrecognized") as err:
            load_corpus(path)
        assert err.value.line == 6

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_a_unicode_line_separator_is_not_7_bit(self, tmp_path,
                                                    separator):
        path = tmp_path / "separator.corpus"
        path.write_text(f"[problem t.p1]\nprocedure = quadratic\n"
                        f"param A = 1{separator}param B = 5\nparam C = 6\n",
                        encoding="utf-8")
        with pytest.raises(CorpusParseError, match="7-bit") as err:
            load_corpus(path)
        assert err.value.line == 3

    def test_find_problem(self, bundled):
        assert find_problem(bundled, "smt25.p1").id == "smt25.p1"
        with pytest.raises(UnknownProblem):
            find_problem(bundled, "nosuch")


GOLDEN = Path(__file__).resolve().parent / "golden"


def load_outcome(path):
    """What loading ``path`` gives: each problem with the report texts
    that its equality skips, or the error's type, message, line and
    column."""
    try:
        problems = load_corpus(path)
    except CorpusParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return [(p, [s.text for s in p.expected_steps], dict(p.answer_texts))
            for p in problems]


#: The bytes the reader's differential draws from: ASCII, each newline,
#: two- and three-byte characters, a byte that starts no character and
#: a character cut short.
READER_PIECES = [b"a", b"\n", b"\r", b"\r\n", "\u00e9".encode(),
                 "\u20ac".encode(), b"\xf9", b"\xe2\x82"]


@pytest.fixture(scope="module")
def reader_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "reader.corpus"


def split_or_error(path):
    """The items of the file's text, read whole in text mode as UTF-8,
    split at "\n", less the empty item after a last "\n" (or of an empty
    file); or, for a file that is not UTF-8, the load's message with the
    byte offset that decoding the whole file gives."""
    try:
        with open(path, encoding="utf-8") as file:
            items = file.read().split("\n")
        return items[:-1] if items[-1] == "" else items
    except UnicodeDecodeError as exc:
        return (f"corpus {str(path)!r} is not UTF-8 text: {exc.reason} "
                f"at byte {exc.start}")


#: The text reader's own chunk size, in bytes.
DEFAULT_CHUNK = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE


def chunked(chunk):
    """Patch ``sexakit.corpus.open`` so that the text file it opens reads
    ``chunk`` bytes at a time (CPython's writable ``_CHUNK_SIZE``)."""
    def chunked_open(*args, **kwargs):
        file = open(*args, **kwargs)
        file._CHUNK_SIZE = chunk
        return file
    return mock.patch.object(sexakit.corpus, "open", chunked_open,
                             create=True)


class FailsAfterOneBlock(io.BufferedReader):
    """A file opened for reading whose reads after the first fail, as a
    disk error part way through a file would.  ``FailsAfterOneBlock.open``
    stands in for ``open`` in text mode, reading 32 bytes at a time."""

    def __init__(self, path):
        super().__init__(io.FileIO(path))
        self.reads = 0

    @classmethod
    def open(cls, path, encoding):
        file = io.TextIOWrapper(cls(path), encoding=encoding)
        file._CHUNK_SIZE = 32
        return file

    def _count(self):
        self.reads += 1
        if self.reads > 1:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def read(self, size=-1):
        self._count()
        return super().read(size)

    def read1(self, size=-1):
        self._count()
        return super().read1(size)


class TestLineBlocks:
    """A load reads its file through the text reader, a chunk at a time;
    where the chunks end changes nothing that it returns or raises."""

    @given(data=st.lists(st.sampled_from(READER_PIECES), max_size=40).map(
               b"".join),
           chunk=st.one_of(st.integers(1, 8), st.just(DEFAULT_CHUNK)))
    @example(data=b"", chunk=1)
    @example(data=b"a\n", chunk=1)
    @example(data=b"\n\n\n\n", chunk=2)
    @example(data=b"a\r", chunk=1)
    @example(data=b"a\r\nb", chunk=2)
    # A character split across 1-byte reads, then cut short: the bad
    # byte is the character's first, not the one read last.
    @example(data="a\u20ac".encode() + b"\xe2\x82a", chunk=1)
    @example(data=b"a\xe2\x82", chunk=1)
    def test_lines_are_the_split_of_the_text(self, reader_path, data, chunk):
        reader_path.write_bytes(data)
        with chunked(chunk):
            try:
                got = list(_lines(reader_path))
            except CorpusParseError as exc:
                got = str(exc)
        assert got == split_or_error(reader_path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_that_is_not_utf8_is_reported_without_an_offset(self):
        # A pipe cannot tell its position, so the message names no byte.
        read_end, write_end = os.pipe()
        os.write(write_end, b"[problem t.p1]\n# k\xf9\n")
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        try:
            with pytest.raises(CorpusParseError) as err:
                load_corpus(path)
        finally:
            os.close(read_end)
        assert str(err.value) == (
            f"corpus {path!r} is not UTF-8 text: invalid start byte")

    @pytest.mark.parametrize("name", ["generated", *sorted(
        path.name for path in GOLDEN.glob("*.corpus"))])
    def test_a_load_is_the_same_at_every_block_size(self, tmp_path, name):
        if name == "generated":
            path = tmp_path / name
            path.write_text(gen.write_corpus(GENERATED), "ascii")
        else:
            path = GOLDEN / name
        outcomes = []
        for chunk in (1, 7, DEFAULT_CHUNK):
            with chunked(chunk):
                outcomes.append(load_outcome(path))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] or name == "replay-no-records.corpus"

    @pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
    def test_a_bad_byte_is_reported_before_an_earlier_bad_line(
            self, tmp_path, chunk):
        # The bad literal on line 2 is parsed first; the bad byte lies
        # more than two chunks later, and is still the error reported.
        head = b"[problem t.p1]\nparam A = 4;x\n"
        padding = b"# padding\n" * (2 * chunk // 10 + 1)
        path = tmp_path / "late.corpus"
        path.write_bytes(head + padding + b"# k\xf9\n")
        with chunked(chunk):
            with pytest.raises(CorpusParseError) as err:
                load_corpus(path)
            assert str(err.value) == (
                f"corpus {str(path)!r} is not UTF-8 text: invalid start "
                f"byte at byte {len(head + padding) + 3}")
            path.write_bytes(head + padding)
            with pytest.raises(BadLiteral, match="line 2"):
                load_corpus(path)

    @pytest.mark.parametrize("chunk", [1, DEFAULT_CHUNK])
    @pytest.mark.parametrize("tail,error", [
        ("", None), ("\u00e9", "line 7: corpus files must be 7-bit text")],
        ids=["loads", "not-7-bit"])
    def test_a_long_line_reads_in_linear_time(self, tmp_path, chunk, tail,
                                              error):
        # A 1 MiB comment with no newline, as one file's last line.  Were
        # its pieces joined again at each of 2**20 one-byte reads, they
        # would copy about 5 * 10**11 characters.
        path = tmp_path / "long.corpus"
        path.write_text(minimal_record("quadratic") + "\n# "
                        + "x" * (1 << 20) + tail, encoding="utf-8")
        start = time.perf_counter()
        with chunked(chunk):
            if error is None:
                problem, = load_corpus(path)
                assert problem.id == "t.min"
            else:
                with pytest.raises(CorpusParseError) as err:
                    load_corpus(path)
                assert str(err.value) == error
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"{elapsed:.2f} s"

    def test_a_read_error_after_the_first_block(self, tmp_path):
        # A disk error part way through the file is still an unreadable
        # corpus, and is reported before the bad line of the first chunk.
        path = tmp_path / "eio.corpus"
        path.write_text("[problem t.p1]\nwibble\n" + "# pad\n" * 20)
        with mock.patch.object(sexakit.corpus, "open",
                               FailsAfterOneBlock.open, create=True):
            with pytest.raises(CorpusParseError) as err:
                load_corpus(path)
        assert str(err.value) == (f"cannot read corpus {str(path)!r}: "
                                  f"{os.strerror(errno.EIO)}")


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
                   for field in (*spec.params, *dict(spec.givens))]
OPTIONAL_FIELDS = [(spec.name, kind, field) for spec in PROCEDURES.values()
                   for kind, names in (("param", spec.optional_params),
                                       ("given", dict(spec.optional_givens)))
                   for field in names]
#: Each procedure with each given it reads, and that given's dimension.
GIVENS = [(spec.name, field, dim) for spec in PROCEDURES.values()
          for field, dim in spec.givens + spec.optional_givens]
#: Each of those givens with a unit of another dimension.
MISPLACED_GIVENS = [(name, field, dim, unit) for name, field, dim in GIVENS
                    for unit in ("nindan", "workers", "kus", "sar", "1")
                    if unit != dim.value]
#: Each procedure with a field it does not read: another's optional
#: field in either kind, or a name no procedure reads.
UNKNOWN_FIELDS = [
    (spec.name, kind, field) for spec in PROCEDURES.values()
    for kind, known in (("param", spec.params + spec.optional_params),
                        ("given", dict(spec.givens + spec.optional_givens)))
    for field in sorted({f for _, _, f in OPTIONAL_FIELDS} | {"zeta"})
    if field not in known]


def field_line(kind, field):
    return f"{kind} {field} = 1" + (" volume-sar" if kind == "given" else "")


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

    @pytest.mark.parametrize("name,kind,field", OPTIONAL_FIELDS)
    def test_optional_field_is_accepted(self, tmp_path, name, kind, field):
        text = minimal_record(name) + "\n" + field_line(kind, field)
        problem, = load_corpus(write_corpus(tmp_path, text))
        values = problem.parameters if kind == "param" else problem.givens
        assert field in values

    def test_every_given_has_its_dimension(self):
        assert {(name, field): dim for name, field, dim in GIVENS} == {
            ("quadratic", "V"): Dimension.VOLUME_SAR,
            ("labor-depth", "total_water"): Dimension.VOLUME_SAR,
            ("labor-depth", "workers"): Dimension.WORKER_COUNT,
            ("labor-depth", "width"): Dimension.LENGTH_NINDAN}

    @pytest.mark.parametrize("name,field,dim,unit", MISPLACED_GIVENS)
    def test_given_in_another_dimension_is_refused_at_its_line(
            self, tmp_path, name, field, dim, unit):
        text = minimal_record(name, drop=field) + f"\ngiven {field} = 1 {unit}"
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert err.value.line == text.count("\n") + 1
        assert str(err.value) == f"line {err.value.line}: given {field} " \
                                 f"must be {dim.value}, got {unit}"

    def test_given_before_the_procedure_line_is_refused_at_its_line(
            self, tmp_path):
        text = minimal_record("quadratic").replace(
            "procedure = quadratic", "given V = 2 sar\nprocedure = quadratic")
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert str(err.value) == "line 2: given V must be volume-sar, got sar"

    @pytest.mark.parametrize("unit,scale", [("volume-sar", 1), ("sar60", 3600),
                                            ("susi", 60)])
    def test_volume_given_reads_in_each_volume_unit(self, tmp_path, unit,
                                                    scale):
        text = minimal_record("quadratic") + f"\ngiven V = 2 {unit}"
        problem, = load_corpus(write_corpus(tmp_path, text))
        assert problem.givens["V"] == Quantity(2 * scale, Dimension.VOLUME_SAR)

    def test_unknown_fields_are_checked_per_kind(self):
        assert ("quadratic", "given", "excess") in UNKNOWN_FIELDS
        assert ("quadratic", "param", "V") in UNKNOWN_FIELDS
        assert ("labor-depth", "param", "excess") in UNKNOWN_FIELDS

    @pytest.mark.parametrize("name,kind,field", UNKNOWN_FIELDS)
    def test_unknown_field_is_named(self, tmp_path, name, kind, field):
        text = minimal_record(name) + "\n" + field_line(kind, field)
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert err.value.line == 1
        assert str(err.value).endswith(
            f"problem t.min has unknown fields: {field}")

    def test_unknown_fields_list_params_then_givens_as_written(self,
                                                               tmp_path):
        text = minimal_record("labor-depth") + (
            "\ngiven V = 1 nindan\nparam canal_konstant = 0;30"
            "\ngiven excess = 1 nindan\nparam A = 1")
        with pytest.raises(CorpusParseError) as err:
            load_corpus(write_corpus(tmp_path, text))
        assert str(err.value).endswith("problem t.min has unknown fields: "
                                       "canal_konstant, A, V, excess")


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
        assert err.value.line is None       # the record expects no step

    @pytest.mark.parametrize("c, stage, line", [
        ("2", "solve-quadratic", "a.1"),    # radicand 2 is no square
        ("4", "length", "a.4"),             # S = 11;22,30 is irregular
    ])
    def test_procedure_error_names_the_first_step_not_produced(
            self, tmp_path, c, stage, line):
        path = write_corpus(tmp_path, "\n".join([
            "[problem t.bad]",
            "procedure = quadratic",
            "given V = 1 volume-sar",
            "param A = 1",
            "param B = 0",
            f"param C = {c}",
            "expect step u = 2 @ a.1",
            "expect step v = 1;30 @ a.2",
            "expect step S = 11;22,30 @ a.3",
            "expect step x = 1 @ a.4",
        ]))
        with pytest.raises(ProcedureError) as err:
            replay(load_corpus(path)[0])
        assert (err.value.stage, err.value.line) == (stage, line)

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
        assert [render(s.magnitude()) for s in trace] == [
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
        assert err.value.line is None       # every step was produced
        assert isinstance(err.value.cause, EquationNotSatisfied)
        assert str(err.value) == \
            f"{problem_id}: verify: {equation} does not hold"
