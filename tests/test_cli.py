"""Command-line surface: subcommands, modes, and the frozen exit codes."""

import errno
import inspect
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

import sexakit
from sexakit import cli, errors
from sexakit.cli import (
    EXIT_INPUT,
    EXIT_MATH,
    EXIT_MISMATCH,
    EXIT_OK,
    _MAX_NESTING,
    evaluate_expression,
    main,
)
from sexakit.errors import ExpressionError, NoFiniteQuotient
from test_corpus import FailsAfterOneBlock
from test_generated_corpus import gen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalExpression:
    @pytest.mark.parametrize("text,expected", [
        ("1,9;22,30 / 2", "34;41,15"),
        ("0", "0"),
        ("5 + 3", "8"),
        ("(1 + 2) * 0;30", "1;30"),
        ("-0;30 + 1", "0;30"),
        ("34;41,15 * 34;41,15", "20,3;13,21,33,45"),
        ("1 ÷ 0;30 × 2", "4"),       # unicode operators
        ("8;6,40 - 0;21,40", "7;45"),
    ])
    def test_values(self, capsys, text, expected):
        code, out, _ = run(capsys, "eval", text)
        assert code == EXIT_OK
        assert out.strip() == expected

    def test_operator_precedence(self):
        assert evaluate_expression("1 + 2 * 3") == 7
        assert evaluate_expression("2 * 3 + 1") == 7
        assert evaluate_expression("10 - 2 - 3") == 5

    def test_scribal_division_rejects_irregular(self, capsys):
        code, _, err = run(capsys, "eval", "7;45 / 46;30")
        assert code == EXIT_MATH
        assert "46;30" in err

    def test_recognize_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "7;45 / 46;30", "--recognize")
        assert (code, out.strip()) == (EXIT_OK, "0;10")

    def test_recognize_needs_finite_quotient(self):
        with pytest.raises(NoFiniteQuotient):
            evaluate_expression("1 / 7", "recognize")

    def test_oracle_mode_falls_back_to_fraction(self, capsys):
        code, out, _ = run(capsys, "eval", "1 / 7", "--oracle")
        assert (code, out.strip()) == (EXIT_OK, "1/7")

    @pytest.mark.parametrize("flags", [["--oracle", "--recognize"],
                                       ["--recognize", "--oracle"]])
    def test_recognize_and_oracle_are_exclusive(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "1;30/7", *flags])
        assert exc.value.code == EXIT_INPUT
        assert "not allowed with" in capsys.readouterr().err

    def test_division_by_zero(self, capsys):
        for flags in ([], ["--recognize"], ["--oracle"]):
            code, _, _ = run(capsys, "eval", "1 / 0", *flags)
            assert code == EXIT_MATH

    @pytest.mark.parametrize("bad", [
        "1 +", "* 2", "(1", "1)", "1 $ 2", "", "1 2",
    ])
    def test_syntax_errors(self, capsys, bad):
        code, _, err = run(capsys, "eval", bad)
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_unclosed_parenthesis_message(self, capsys):
        assert run(capsys, "eval", "(1 2") \
            == (EXIT_INPUT, "", "error: missing closing parenthesis\n")

    def test_bad_literal_is_input_error(self, capsys):
        code, _, _ = run(capsys, "eval", "1,61 + 1")
        assert code == EXIT_INPUT

    def test_expression_error_type(self):
        with pytest.raises(ExpressionError):
            evaluate_expression("1 +")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "1 + 1", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"value": "2"}

    @pytest.mark.parametrize("expression", [
        "(" * 2000 + "1" + ")" * 2000,
        "-" * 3000 + "1",
    ], ids=["parentheses", "unary-minus"])
    def test_deep_nesting_is_input_error(self, capsys, expression):
        code, out, err = run(capsys, "eval", "--", expression)
        assert code == EXIT_INPUT
        assert out == "" and err.startswith("error: ")
        assert "nests deeper" in err and "Traceback" not in err

    def test_nesting_up_to_the_limit(self):
        n = _MAX_NESTING
        assert evaluate_expression("(" * n + "1" + ")" * n) == 1
        assert evaluate_expression("-" * n + "1") == 1
        assert evaluate_expression("-(" * (n // 2) + "2" + ")" * (n // 2)) == 2
        # siblings do not nest: the depth falls back on every ")"
        assert evaluate_expression(" + ".join(["(-(1))"] * (3 * n))) == -3 * n
        for deeper in ("(" * (n + 1) + "1" + ")" * (n + 1),
                       "-" * (n + 1) + "1",
                       "-(" * (n // 2) + "-2" + ")" * (n // 2)):
            with pytest.raises(ExpressionError):
                evaluate_expression(deeper)


class TestSimpleCommands:
    def test_recip(self, capsys):
        code, out, _ = run(capsys, "recip", "40,0")
        assert (code, out.strip()) == (EXIT_OK, "0;0,1,30")

    def test_recip_irregular(self, capsys):
        code, _, err = run(capsys, "recip", "13")
        assert code == EXIT_MATH
        assert "13" in err

    def test_sqrt(self, capsys):
        code, out, _ = run(capsys, "sqrt", "21,9;8,26,15")
        assert (code, out.strip()) == (EXIT_OK, "35;37,30")

    def test_sqrt_not_square(self, capsys):
        code, _, err = run(capsys, "sqrt", "2")
        assert code == EXIT_MATH
        assert "square" in err

    def test_solve_quadratic(self, capsys):
        code, out, _ = run(capsys, "solve-quadratic",
                           "14;3,45", "1,9;22,30", "4;41,15")
        assert (code, out.strip()) == (EXIT_OK, "u = 5")

    def test_solve_quadratic_trace(self, capsys):
        code, out, _ = run(capsys, "solve-quadratic",
                           "14;3,45", "1,9;22,30", "4;41,15", "--trace")
        lines = out.strip().splitlines()
        assert lines[0] == "half_B = 34;41,15 @ derived"
        assert lines[-1] == "u = 5"

    def test_sum_diff(self, capsys):
        code, out, _ = run(capsys, "sum-diff", "0;10", "0;10")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["x = 0;30", "y = 0;20"]

    def test_sum_diff_json_includes_trace(self, capsys):
        code, out, _ = run(capsys, "sum-diff", "1", "6", "--json")
        payload = json.loads(out)
        assert (payload["x"], payload["y"]) == ("3", "2")
        assert payload["steps"][0]["label"] == "half_diff"


#: 1000000007 * 1000000009: both primes lie above the prime search limit.
SEMIPRIME = "1,39,13,44,30,51,1,43,42,14,23"


class TestLargeIrregularInput:
    def test_literal_is_the_semiprime(self):
        assert evaluate_expression(SEMIPRIME) == 1000000007 * 1000000009

    @pytest.mark.parametrize("argv", [
        ["recip", SEMIPRIME],
        ["eval", f"1 / {SEMIPRIME}"],
        ["eval", f"1 / {SEMIPRIME}", "--recognize"],
    ])
    def test_rejected_in_bounded_time(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_MATH, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestGeomCommands:
    def test_trapezoid(self, capsys):
        code, out, _ = run(capsys, "geom", "trapezoid", "5", "3", "8")
        assert (code, out.strip()) == (EXIT_OK, "S = 32 nindan-kus")

    def test_volume(self, capsys):
        code, out, _ = run(capsys, "geom", "volume", "32", "45")
        assert (code, out.strip()) == (EXIT_OK, "V = 24,0 volume-sar")

    def test_labor_depth(self, capsys):
        code, out, _ = run(capsys, "geom", "labor-depth",
                           "6", "5", "40,0", "0;30", "--unit", "sar60")
        assert code == EXIT_OK
        assert out.strip().splitlines() == [
            "z = 4;30 kus", "z_water = 3;36 kus"]

    def test_labor_depth_trace_json(self, capsys):
        code, out, _ = run(capsys, "geom", "labor-depth",
                           "6", "5", "40,0", "0;30", "--unit", "sar60",
                           "--json")
        payload = json.loads(out)
        assert payload["z"] == "4;30"
        assert [s["value"] for s in payload["steps"]][:2] == ["0;12", "1,12,0"]

    def test_nonpositive_is_math_error(self, capsys):
        code, _, _ = run(capsys, "geom", "trapezoid", "0", "3", "8")
        assert code == EXIT_MATH


class TestReplayCommand:
    def test_replay_all_passes(self, capsys):
        code, out, _ = run(capsys, "replay", "--all")
        assert code == EXIT_OK
        assert "smt24.p1 PASS" in out
        assert "smt24.p2 PASS" in out
        assert "smt25.p1 PASS" in out

    def test_replay_single(self, capsys):
        code, out, _ = run(capsys, "replay", "smt25.p1")
        assert code == EXIT_OK
        assert "smt25.p1 answer:z MATCH 4;30 kus 4;30 kus" in out

    def test_replay_json(self, capsys):
        code, out, _ = run(capsys, "replay", "smt24.p1", "--json")
        payload = json.loads(out)
        assert payload[0]["problem"] == "smt24.p1"
        assert payload[0]["pass"] is True

    def test_cold_start_imports_only_what_the_command_uses(self):
        # A fresh interpreter without site: importing the CLI pulls in
        # none of dataclasses, inspect, typing (and json), and a text
        # replay leaves json unimported; --json then imports it.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import sexakit.cli\n"
            "print(*sorted({'dataclasses', 'inspect', 'typing', 'json'}\n"
            "              & (set(sys.modules) - before)), sep=',')\n"
            "import contextlib, io\n"
            "for argv in (['replay', '--all'], ['replay', '--all', '--json']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = sexakit.cli.main(argv)\n"
            "    print(code, 'json' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(sexakit.__file__))
        done = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["", "0 False", "0 True"]

    def test_replay_all_leaves_pathlib_unimported(self):
        # Only bundled_corpus_path needs pathlib, and a load does not call
        # it.  Without site, which may import pathlib itself, a replay of
        # the bundled corpus does not import it.
        script = (
            "import contextlib, io, sys\n"
            "import sexakit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = sexakit.cli.main(['replay', '--all'])\n"
            "print(code, 'pathlib' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(sexakit.__file__))}
        done = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True,
            text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0 False\n"

    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "replay", "nosuch")
        assert code == EXIT_INPUT
        assert "nosuch" in err

    def test_missing_selector(self, capsys):
        code, _, _ = run(capsys, "replay")
        assert code == EXIT_INPUT

    def test_mismatching_corpus_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("\n".join([
            "[problem t.p1]",
            "procedure = quadratic",
            "param A = 14;3,45",
            "param B = 1,9;22,30",
            "param C = 4;41,15",
            "expect step u = 6 @ obv.33",
        ]))
        code, out, _ = run(capsys, "replay", "--all", "--corpus", str(path))
        assert code == EXIT_MISMATCH
        assert "t.p1 u MISMATCH 6 5" in out

    def test_corpus_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("[problem t.p1]\nprocedure = quadratic\n"
                        "param A = 61\nparam B = 1\nparam C = 1\n")
        code, _, err = run(capsys, "replay", "--all", "--corpus", str(path))
        assert code == EXIT_INPUT
        assert "61" in err

    def test_unknown_expect_kind_exits_two_at_its_line(self, capsys,
                                                       tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("[problem t.p1]\nprocedure = quadratic\n"
                        "expect stepp u = 1 @ obv.1\n")
        assert run(capsys, "replay", "--all", "--corpus", str(path)) \
            == (EXIT_INPUT, "", "error: line 3: expect must be 'step' or "
                "'answer', got 'stepp'\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n\n"])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_corpus_without_records_exits_two(self, capsys, tmp_path, text,
                                              flags):
        # Replaying nothing verifies nothing: not a pass, in either mode.
        path = tmp_path / "empty.corpus"
        path.write_text(text)
        code, out, err = run(capsys, "replay", "--all", "--corpus",
                             str(path), *flags)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: corpus has no [problem] records\n"

    @pytest.mark.parametrize("target", ["missing", "directory", "latin1",
                                        "nul"])
    def test_unreadable_corpus_exits_two(self, capsys, tmp_path, target):
        path = {"missing": tmp_path / "missing.corpus",
                "directory": tmp_path,
                "latin1": tmp_path / "latin1.corpus",
                "nul": tmp_path / "a\0b.corpus"}[target]
        (tmp_path / "latin1.corpus").write_bytes(b"# k\xf9\n")
        code, out, err = run(capsys, "replay", "--all", "--corpus", str(path))
        assert code == EXIT_INPUT
        assert out == "" and err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_env_var_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "alt.corpus"
        path.write_text("\n".join([
            "[problem alt.p1]",
            "procedure = quadratic",
            "param A = 1",
            "param B = 5",
            "param C = 6",
            "expect step u = 6 @ x.1",
        ]))
        monkeypatch.setenv("SEXAKIT_CORPUS", str(path))
        code, out, _ = run(capsys, "replay", "alt.p1")
        assert code == EXIT_OK
        assert "alt.p1 PASS" in out


#: The errors behind exit 2: ``InputError`` and everything under it.
INPUT_ERRORS = {"InputError", "MalformedLiteral", "ExpressionError",
                "CorpusParseError", "BadLiteral", "UnknownProcedure",
                "UnknownProblem"}
SEXAKIT_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.SexakitError)]


class TestExitCodes:
    def test_input_family_is_every_input_error(self):
        assert {cls.__name__ for cls in SEXAKIT_ERRORS
                if issubclass(cls, errors.InputError)} == INPUT_ERRORS

    @pytest.mark.parametrize("cls", SEXAKIT_ERRORS, ids=lambda c: c.__name__)
    def test_every_error_maps_to_its_exit_code(self, capsys, monkeypatch,
                                               cls):
        def command(args):
            # Built without its __init__, so no class needs its own
            # arguments here; the message is the one argument.
            raise cls.__new__(cls, "boom")

        monkeypatch.setattr(cli, "_cmd_recip", command)
        code, out, err = run(capsys, "recip", "1")
        assert code == (EXIT_INPUT if cls.__name__ in INPUT_ERRORS
                        else EXIT_MATH)
        assert (out, err) == ("", "error: boom\n")


#: The CLI in a child interpreter that imports this tree's sexakit, and
#: buffers its stdout as by default: under PYTHONUNBUFFERED each write
#: fails at once, and no write error is left for the flush at exit.
CLI = [sys.executable, "-m", "sexakit.cli"]
CLI_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": os.path.dirname(os.path.dirname(sexakit.__file__))}
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


def assert_one_write_error(err, code):
    """The child's stderr holds one error line, for code, and no
    traceback."""
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [f"error: cannot write output: {os.strerror(code)}"]
    assert "Traceback" not in err


class TestOutputThatCannotBeWritten:
    """Output that cannot be written is exit 2 with one error line, never
    a traceback and exit 1, which means a replay mismatch."""

    @pytest.mark.parametrize("target", [
        pytest.param("full", marks=needs_dev_full), "pipe"])
    def test_exits_two_and_points_stdout_at_devnull(self, capsys,
                                                    monkeypatch, target):
        if target == "full":
            fd, code = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
        else:
            read_end, fd = os.pipe()
            os.close(read_end)
            code = errno.EPIPE
        with open(fd, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["eval", "1 + 2"]) == EXIT_INPUT
            # What stdout still holds goes to /dev/null when it closes.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        assert capsys.readouterr().err == \
            f"error: cannot write output: {os.strerror(code)}\n"

    def test_an_error_line_that_cannot_be_written_is_dropped(
            self, monkeypatch):
        read_end, fd = os.pipe()
        os.close(read_end)
        with open(fd, "w") as stdout, \
                open(fd, "w", buffering=1, closefd=False) as stderr:
            monkeypatch.setattr(sys, "stdout", stdout)
            monkeypatch.setattr(sys, "stderr", stderr)
            assert main(["eval", "1 + 2"]) == EXIT_INPUT

    def test_a_read_error_is_not_a_write_error(self, capsys, tmp_path):
        path = tmp_path / "eio.corpus"
        path.write_text("# pad\n" * 20)
        with mock.patch.object(cli.corpus_mod, "open",
                               FailsAfterOneBlock.open, create=True):
            code, out, err = run(capsys, "replay", "--all", "--corpus",
                                 str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"error: cannot read corpus {str(path)!r}: "
                       f"{os.strerror(errno.EIO)}\n")

    @pytest.mark.parametrize("buffering", [-1, 1])
    @pytest.mark.parametrize("target", [
        pytest.param("full", marks=needs_dev_full), "pipe"])
    def test_help_that_cannot_be_written(self, capsys, monkeypatch, target,
                                         buffering):
        # argparse drops a write error of its own; the help text is
        # written where main's handler sees the error, buffered or not.
        if target == "full":
            fd, code = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
        else:
            read_end, fd = os.pipe()
            os.close(read_end)
            code = errno.EPIPE
        with open(fd, "w", buffering=buffering) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["--help"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: cannot write output: {os.strerror(code)}\n"

    def test_help_that_can_be_written_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr() == (cli.build_parser().format_help(), "")

    def test_a_usage_error_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: sexakit ")
        assert err.splitlines()[-1].startswith(
            "sexakit: error: argument command: invalid choice: 'nosuch'")

    @needs_dev_full
    @pytest.mark.parametrize("argv", [["eval", "1 + 2"], ["replay", "--all"],
                                      ["--help"]])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_full_device_in_a_child(self, argv, unbuffered):
        env = {**CLI_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else CLI_ENV
        with open("/dev/full", "w") as full:
            done = subprocess.run([*CLI, *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        assert done.returncode == EXIT_INPUT
        assert_one_write_error(done.stderr, errno.ENOSPC)

    def test_help_read_one_line_in_a_child(self):
        # As `sexakit --help | head -1`: the help fits the pipe, so the
        # child has written it all and exits 0.
        with subprocess.Popen([*CLI, "--help"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=CLI_ENV) as child:
            assert child.stdout.readline().startswith("usage: sexakit ")
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == EXIT_OK
        assert err == ""

    def test_a_pipe_closed_after_one_line_in_a_child(self, tmp_path):
        # About 215 KB of report: far more than a pipe holds, so the child
        # is still writing when the pipe closes.
        path = tmp_path / "large.corpus"
        path.write_text(gen.write_corpus(gen.corpus(seed=6, count=300)),
                        "ascii")
        with subprocess.Popen(
                [*CLI, "replay", "--all", "--corpus", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=CLI_ENV) as child:
            assert child.stdout.readline().startswith("gen.")
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == EXIT_INPUT
        assert_one_write_error(err, errno.EPIPE)
