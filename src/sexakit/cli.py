"""Command-line frontend.

Subcommands::

    eval             evaluate an infix expression over sexagesimal literals
    recip            reciprocal of a regular number
    sqrt             exact square root
    solve-quadratic  completing the square for A*u^2 - B*u = C
    sum-diff         recover x, y from x - y and x*y
    geom             trapezoid | volume | labor-depth
    replay           run corpus problems and verify every value

Division in ``eval`` is scribal by default (the divisor must be regular);
``--recognize`` accepts any divisor whose quotient is finitely writable,
and ``--oracle`` switches to unrestricted exact rational division, falling
back to p/q output when the result has no finite base-60 form.

Exit codes are frozen for scripting: 0 success/verified, 1 replay
mismatch, 2 malformed input (or output that cannot be written), 3
violated mathematical precondition.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import corpus as corpus_mod
from .errors import (
    CorpusParseError,
    ExpressionError,
    InputError,
    SexakitError,
    UnknownProblem,
    ZeroDivisor,
)
from .geometry import (
    SMALL_CANAL_CONSTANT,
    CanalConstant,
    depth_from_labor,
    prism_volume,
    trapezoid_cross_section,
)
from .procedures import (
    QuadraticProblem,
    StepTrace,
    SumDifferenceProblem,
    divide_by_recognition,
    solve_quadratic_scribal,
    solve_sum_difference,
)
from .sexa import Sexa, reciprocal, render, sqrt_exact
from .units import _VOLUME_ALIASES, Dimension, Quantity, sar_to_volume_sar

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_MATH = 3


# -- expression evaluation -----------------------------------------------------

_OPERATORS = {"+", "-", "*", "/", "(", ")"}
#: One token after optional whitespace: a run of literal characters, an
#: operator or one of its other spellings, or (second group) any other
#: character, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:([0-9,;:]+|[-+*/()×·÷−])|(\S))")
_SPELLINGS = {"×": "*", "·": "*", "÷": "/", "−": "-"}
#: Deepest nesting of "(" and unary "-" that ``eval`` accepts; each level
#: is at most three Python frames (operand, expression, term), so this
#: stays well inside the recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    tokens = []
    for token, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ExpressionError(f"unexpected character {bad!r}")
        tokens.append(_SPELLINGS.get(token, token))
    return tokens


def _scribal_divide(n: Sexa, d: Sexa) -> Sexa:
    return n * reciprocal(d)


def _oracle_divide(n: Sexa, d: Sexa) -> Sexa:
    if d == 0:
        raise ZeroDivisor("division by zero")
    return n / d


def evaluate_expression(text: str, mode: str = "scribal") -> Sexa:
    """Evaluate an infix expression; mode is scribal|recognize|oracle.

    Recursive descent over the tokens, kept reversed so that the next
    one is ``tokens[-1]``.  ``depth`` counts the "(" and unary "-" that
    enclose an operand; ``operand`` refuses one past ``_MAX_NESTING``.
    """
    divide = {
        "scribal": _scribal_divide,
        "recognize": divide_by_recognition,
        "oracle": _oracle_divide,
    }[mode]
    tokens = _tokenize(text)[::-1]

    def take() -> str:
        if not tokens:
            raise ExpressionError("unexpected end of expression")
        return tokens.pop()

    def operand(depth: int) -> Sexa:
        token = take()
        if token in ("-", "("):
            if depth >= _MAX_NESTING:
                raise ExpressionError(
                    f"expression nests deeper than {_MAX_NESTING} levels")
            if token == "-":
                return -operand(depth + 1)
            value = expression(depth + 1)
            if take() != ")":
                raise ExpressionError("missing closing parenthesis")
            return value
        if token in _OPERATORS:
            raise ExpressionError(f"expected a literal, got {token!r}")
        return Sexa(token)

    def term(depth: int) -> Sexa:
        value = operand(depth)
        while tokens and tokens[-1] in ("*", "/"):
            op, right = take(), operand(depth)
            value = value * right if op == "*" else divide(value, right)
        return value

    def expression(depth: int) -> Sexa:
        value = term(depth)
        while tokens and tokens[-1] in ("+", "-"):
            op, right = take(), term(depth)
            value = value + right if op == "+" else value - right
        return value

    value = expression(0)
    if tokens:
        raise ExpressionError(f"trailing input at {tokens[-1]!r}")
    return value


# -- output helpers ------------------------------------------------------------

def _print_value(value: Sexa, args) -> int:
    text = render(value, fraction_fallback=getattr(args, "oracle", False))
    if args.json:
        # Imported under --json only: a text run does not pay for json.
        import json
        text = json.dumps({"value": text})
    print(text)
    return EXIT_OK


def _print_result(args, values: dict[str, Sexa | Quantity],
                  trace: StepTrace | None = None) -> int:
    """Print named results as ``name = value`` lines, after the trace text
    when --trace asks for it.  With --json, print one object: the values,
    then the ``unit`` they share when they are quantities, then the trace
    ``steps``.
    """
    if not args.json:
        if trace is not None and args.trace:
            print(trace.to_text())
        for name, value in values.items():
            print(f"{name} = {value}")
        return EXIT_OK
    result = {name: render(v.magnitude if isinstance(v, Quantity) else v)
              for name, v in values.items()}
    quantities = [v for v in values.values() if isinstance(v, Quantity)]
    if quantities:
        result["unit"] = quantities[0].dim.value
    if trace is not None:
        result.update(trace.to_dict())
    import json
    print(json.dumps(result))
    return EXIT_OK


# -- subcommand handlers -------------------------------------------------------

def _cmd_eval(args) -> int:
    mode = "oracle" if args.oracle else "recognize" if args.recognize \
        else "scribal"
    return _print_value(evaluate_expression(args.expression, mode), args)


def _cmd_recip(args) -> int:
    return _print_value(reciprocal(Sexa(args.value)), args)


def _cmd_sqrt(args) -> int:
    return _print_value(sqrt_exact(Sexa(args.value)), args)


def _cmd_solve_quadratic(args) -> int:
    problem = QuadraticProblem(Sexa(args.a), Sexa(args.b), Sexa(args.c))
    root, trace = solve_quadratic_scribal(problem)
    return _print_result(args, {"u": root}, trace)


def _cmd_sum_diff(args) -> int:
    problem = SumDifferenceProblem(Sexa(args.diff), Sexa(args.prod))
    x, y, trace = solve_sum_difference(problem)
    return _print_result(args, {"x": x, "y": y}, trace)


def _cmd_geom_trapezoid(args) -> int:
    section = trapezoid_cross_section(
        Quantity(Sexa(args.upper), Dimension.LENGTH_NINDAN),
        Quantity(Sexa(args.lower), Dimension.LENGTH_NINDAN),
        Quantity(Sexa(args.depth), Dimension.LENGTH_KUS))
    return _print_result(args, {"S": section})


def _cmd_geom_volume(args) -> int:
    volume = prism_volume(
        Quantity(Sexa(args.section), Dimension.CROSS_SECTION),
        Quantity(Sexa(args.length), Dimension.LENGTH_NINDAN))
    return _print_result(args, {"V": volume})


def _cmd_geom_labor_depth(args) -> int:
    total = sar_to_volume_sar(Sexa(args.total), args.unit)
    depth, water_depth, trace = depth_from_labor(
        total, Sexa(args.reach),
        Quantity(Sexa(args.workers), Dimension.WORKER_COUNT),
        Quantity(Sexa(args.width), Dimension.LENGTH_NINDAN),
        CanalConstant(Sexa(args.constant)))
    return _print_result(args, {"z": depth, "z_water": water_depth}, trace)


def _cmd_replay(args) -> int:
    if args.all and args.problem is not None:
        raise UnknownProblem("give a problem id or --all, not both")
    problems = corpus_mod.load_corpus(args.corpus)
    if args.all:
        if not problems:
            # Nothing replayed is nothing verified: an empty or truncated
            # corpus must not pass.
            raise CorpusParseError("corpus has no [problem] records")
        selected = sorted(problems, key=lambda p: p.id)
    else:
        if args.problem is None:
            raise UnknownProblem("give a problem id or --all")
        selected = [corpus_mod.find_problem(problems, args.problem)]
    reports = [corpus_mod.replay(p) for p in selected]
    if args.json:
        import json
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for report in reports:
            print(report.to_text())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


# -- parser wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sexakit",
        description="Exact sexagesimal arithmetic and Susa tablet replays.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true",
                       help="structured output")
        return p

    p = with_json(sub.add_parser("eval", help="evaluate an expression"))
    p.add_argument("expression")
    division = p.add_mutually_exclusive_group()
    division.add_argument(
        "--recognize", action="store_true",
        help="allow irregular divisors when the quotient is finite")
    division.add_argument("--oracle", action="store_true",
                          help="unrestricted exact rational division")
    p.set_defaults(func=_cmd_eval)

    p = with_json(sub.add_parser("recip", help="reciprocal of a regular number"))
    p.add_argument("value")
    p.set_defaults(func=_cmd_recip)

    p = with_json(sub.add_parser("sqrt", help="exact square root"))
    p.add_argument("value")
    p.set_defaults(func=_cmd_sqrt)

    p = with_json(sub.add_parser(
        "solve-quadratic", help="complete the square for A*u^2 - B*u = C"))
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p.add_argument("c", metavar="C")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_solve_quadratic)

    p = with_json(sub.add_parser(
        "sum-diff", help="recover x, y from x - y and x*y"))
    p.add_argument("diff")
    p.add_argument("prod")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_sum_diff)

    geom = sub.add_parser("geom", help="canal geometry")
    geom_sub = geom.add_subparsers(dest="geom_command", required=True)

    p = with_json(geom_sub.add_parser(
        "trapezoid", help="cross-section from breadths and depth"))
    p.add_argument("upper")
    p.add_argument("lower")
    p.add_argument("depth")
    p.set_defaults(func=_cmd_geom_trapezoid)

    p = with_json(geom_sub.add_parser(
        "volume", help="prism volume from cross-section and length"))
    p.add_argument("section")
    p.add_argument("length")
    p.set_defaults(func=_cmd_geom_volume)

    p = with_json(geom_sub.add_parser(
        "labor-depth", help="depth from water volume and work norms"))
    p.add_argument("total", help="reserved water volume")
    p.add_argument("reach", help="nindan of canal per worker")
    p.add_argument("workers")
    p.add_argument("width", help="canal width in nindan")
    p.add_argument("--unit", choices=list(_VOLUME_ALIASES),
                   default="volume-sar", help="unit of the water volume")
    p.add_argument("--constant", default=render(SMALL_CANAL_CONSTANT.ratio),
                   help="canal constant z'/z (default %(default)s)")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_geom_labor_depth)

    p = with_json(sub.add_parser("replay", help="verify corpus problems"))
    p.add_argument("problem", nargs="?", help="problem id, e.g. smt24.p1")
    p.add_argument("--all", action="store_true", help="replay every problem")
    p.add_argument("--corpus", default=None,
                   help="corpus file (default: $SEXAKIT_CORPUS or bundled)")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # A write error still buffered surfaces here, not at exit.
        sys.stdout.flush()
        return code
    except SexakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_MATH
    except OSError as exc:
        # Only a write to stdout gets here: a corpus that cannot be read
        # raises CorpusParseError.
        try:
            print(f"error: cannot write output: {exc.strerror or exc}",
                  file=sys.stderr)
        except OSError:
            pass
        # What stdout still holds then goes to /dev/null, so the flush at
        # exit cannot fail again (after a broken pipe, say).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
