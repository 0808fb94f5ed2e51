"""The README's CLI cookbook and library snippet give the results they state."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from c4ramsey.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first fenced block of the given language after a heading."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in code_block("CLI cookbook", "sh").splitlines() if line.startswith("c4ramsey ")]
COOKBOOK = [line.split("#", 1) for line in COMMANDS if "#" in line]

# cookbook command -> the result its comment states, which stdout must hold
STATED = {
    "c4ramsey bound --m 1 --r 36": "43",
    "c4ramsey bound --r 7": "11",
    "c4ramsey bound --r 22": "28",
    "c4ramsey bound --m 2 --r 3 4": "15",
    'c4ramsey derive "C4,K11"': "43",
    'c4ramsey search --targets "C4,C4" --n 6': "Infeasible",
    'c4ramsey search --targets "C4,K3" --n-min 5 --n-max 7': "R = 7",
}


def test_every_stated_result_is_checked():
    assert {command.strip() for command, comment in COOKBOOK if comment.startswith(" -> ")} == set(STATED)


@pytest.mark.parametrize("command", sorted(STATED))
def test_cookbook_line_gives_its_stated_result(command):
    comment = dict((c.strip(), note) for c, note in COOKBOOK)[command]
    assert STATED[command] in comment
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(shlex.split(command)[1:]) == 0
    assert STATED[command] in out.getvalue()


def test_every_cookbook_command_runs_in_order_in_an_empty_directory(tmp_path, monkeypatch):
    # each line as a shell runs it, a trailing "> FILE" included: the files
    # that later lines read are written by earlier ones
    monkeypatch.chdir(tmp_path)
    assert len(COMMANDS) == 16
    for command in COMMANDS:
        argv = shlex.split(command, comments=True)[1:]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv[:-2] if ">" in argv else argv) == 0, command
        if ">" in argv:
            Path(argv[-1]).write_text(out.getvalue())
    assert "C4,K3 | exact | 7 | small search | computational" in Path("my.txt").read_text()


def test_library_snippet_prints_what_it_states():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("Library", "python"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "177"
    assert lines[-1] == "C4,K4 | lower | 10 | computed: witness | computational"
