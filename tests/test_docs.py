"""The documented surface: README's examples run, and every export resolves.

A README example that stops working, or a name left in an ``__all__``
after its definition is deleted, fails here rather than in a user's
import.
"""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sexakit
from sexakit import corpus, geometry, procedures, sexa, units
from sexakit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_tablet_chain(capsys):
    exec(fenced_block("Library example", "python"), {})
    assert capsys.readouterr().out.splitlines() == [
        "5",
        "half_B = 34;41,15",
        "half_B_sq = 20,3;13,21,33,45",
        "AC = 1,5;55,4,41,15",
        "radicand = 21,9;8,26,15",
        "root = 35;37,30",
        "root_plus = 1,10;18,45",
        "u = 5",
    ]


def test_corpus_example_is_a_record_that_replays(capsys, tmp_path):
    path = tmp_path / "example.corpus"
    path.write_text(fenced_block("The corpus", ""), encoding="utf-8")
    assert main(["replay", "--all", "--corpus", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] \
        == "smt24.p1 PASS (2 checks)"


COMMANDS = [line for line in fenced_block("Command line", "sh").splitlines()
            if line.startswith("sexakit ")]
#: A comment that gives the printed value starts with it ("34;41,15",
#: "x = 0;30, y = 0;20"); "exit N" gives the exit code instead.
VALUE_COMMENT = re.compile(r"(\w+ = )?[-\d]")


def test_command_block_is_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize(
    "line", COMMANDS, ids=lambda line: " ".join(line.split("#")[0].split()))
def test_readme_command(capsys, line):
    command, _, comment = line.partition("#")
    comment = comment.strip()
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    exit_code = re.match(r"exit (\d)", comment)
    if exit_code:
        assert code == int(exit_code.group(1))
        return
    assert code == 0
    if VALUE_COMMENT.match(comment):
        value = comment.split(" (", 1)[0]
        assert ", ".join(out.splitlines()) == value


MODULES = [importlib.import_module(f"sexakit.{info.name}")
           for info in pkgutil.iter_modules(sexakit.__path__)]


@pytest.mark.parametrize("module", [sexakit, *MODULES],
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


#: Every name the package exported when its __init__ listed them by hand.
EXPORTED_BEFORE = {
    "errors",
    "Sexa", "parse", "render",
    "halve", "square", "sqrt_exact", "reciprocal", "is_regular",
    "Dimension", "Quantity", "KUS_PER_NINDAN",
    "qmul", "qdiv", "sar_to_volume_sar", "parse_quantity",
    "Step", "StepTrace", "QuadraticProblem", "SumDifferenceProblem",
    "solve_quadratic_scribal", "solve_sum_difference",
    "divide_by_recognition", "replay_smt24_p2",
    "CanalConstant", "SMALL_CANAL_CONSTANT",
    "trapezoid_cross_section", "prism_volume",
    "breadths_from_constraints", "length_from_volume", "depth_from_labor",
    "PROCEDURES", "ProcedureSpec", "ExpectedStep", "TabletProblem",
    "CheckRow", "ReplayReport", "bundled_corpus_path", "load_corpus",
    "find_problem", "replay",
}


def test_package_exports_are_the_module_lists():
    assert sexakit.__all__ == [
        "errors", *sexa.__all__, *units.__all__, *procedures.__all__,
        *geometry.__all__, *corpus.__all__]
    assert len(set(sexakit.__all__)) == len(sexakit.__all__)
    for name in sexakit.__all__:
        assert hasattr(sexakit, name), name


def test_every_earlier_export_remains():
    assert EXPORTED_BEFORE <= set(sexakit.__all__)


# -- the lazy namespace: each name loads its own module on first use ----------

def source_of(name: str):
    """The object the package exports as name, read from its module."""
    if name == "errors":
        return sexakit.errors
    for module in (sexa, units, procedures, geometry, corpus):
        if name in module.__all__:
            return getattr(module, name)
    raise LookupError(name)


def test_bare_import_loads_no_submodule():
    # Without site, which imports modules of its own; the standard
    # modules named are ones that some submodule imports.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import sexakit\n"
              "print(*sorted(set(sys.modules) - before))\n")
    src = os.path.dirname(os.path.dirname(sexakit.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "sexakit" in loaded
    assert [m for m in loaded if m.startswith("sexakit.")] == []
    assert {"fractions", "decimal", "enum", "argparse"}.isdisjoint(loaded)


@pytest.mark.parametrize("name", sexakit.__all__)
def test_first_use_loads_the_name_and_keeps_it(monkeypatch, name):
    # As in a fresh import: the name is not yet bound in the package.
    monkeypatch.delitem(vars(sexakit), name, raising=False)
    value = getattr(sexakit, name)
    assert value is source_of(name)
    assert vars(sexakit)[name] is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sexakit import *", namespace)
    for name in sexakit.__all__:
        assert namespace[name] is source_of(name), name


def test_dir_lists_every_export_before_its_first_use(monkeypatch):
    for name in sexakit.__all__:
        monkeypatch.delitem(vars(sexakit), name, raising=False)
    assert set(sexakit.__all__) <= set(dir(sexakit))
    assert {"__version__", "__getattr__"} <= set(dir(sexakit))


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'sexakit' has no attribute 'nosuch'$"):
        sexakit.nosuch
