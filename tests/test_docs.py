"""The documented surface: README's examples run, and every export resolves.

A README example that stops working, or a name left in an ``__all__``
after its definition is deleted, fails here rather than in a user's
import.
"""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import sexakit
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


COMMANDS = [line for line in fenced_block("Command line", "sh").splitlines()
            if line.startswith("sexakit ")]
#: A comment that gives the printed value starts with it ("34;41,15",
#: "x = 0;30, y = 0;20"); "exit N" gives the exit code instead.
VALUE_COMMENT = re.compile(r"(\w+ = )?[-\d]")


def test_command_block_is_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize(
    "line", COMMANDS, ids=lambda line: " ".join(line.split("#")[0].split()))
def test_readme_command(capsys, monkeypatch, line):
    monkeypatch.delenv("SEXAKIT_CORPUS", raising=False)
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
