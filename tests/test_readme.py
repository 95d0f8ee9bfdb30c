"""The README stays runnable: its Quick start executes and every Command
line entry parses."""

import re
import shlex
from pathlib import Path

import pytest

from phaselock.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The first fenced block after ``heading``."""
    text = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", text, re.S).group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(_block("## Quick start"), str(README), "exec"), namespace)
    assert namespace["report"].classification == "semistable-candidate"
    assert namespace["cert"].passed


@pytest.mark.parametrize("line", _block("## Command line").splitlines())
def test_command_line_entry_parses(line):
    argv = shlex.split(line.replace("[", "").replace("]", ""))
    assert argv[0] == "phaselock"
    build_parser().parse_args(argv[1:])
