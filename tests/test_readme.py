"""The README's examples run: its library example, its `hermops` command lines and its selectors."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hermops.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
LINES = [line.strip() for _, body in BLOCKS for line in body.splitlines()]
COMMANDS = [shlex.split(line, comments=True)[1:] for line in LINES if line.startswith("hermops ")]
SELECTORS = [shlex.split(line, comments=True) for line in LINES if line.startswith(("--seq ", "--factored "))]
FILE_SCHEMA = next(body for _, body in BLOCKS if body.startswith('{"gammas"'))


def test_the_readme_shows_commands_and_selectors():
    assert len(COMMANDS) >= 8 and len(SELECTORS) >= 8


def test_library_example_prints_its_comments():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["11/128*x^4 + 19/64*x^2 - 55/128", "[4, 5, 6, 7, 8, 9, 10]"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("selector", SELECTORS, ids=" ".join)
def test_selector_line_runs_ratios(tmp_path, monkeypatch, capsys, selector):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.json").write_text(FILE_SCHEMA, encoding="utf-8")
    assert main(["ratios", *selector, "--kmax", "3"]) == 0, capsys.readouterr().err
