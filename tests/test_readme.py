"""The README's examples run as written: its Python blocks against the
installed API, and each ``bhc`` line of its "Command line" block through the
CLI."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from bhc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
COMMANDS = [
    line
    for line in re.search(r"^## Command line\n\n```sh\n(.*?)^```", TEXT, re.S | re.M)[1].splitlines()
    if line.startswith("bhc ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_example_runs(line):
    result = CliRunner().invoke(main, shlex.split(line)[1:])
    assert result.exit_code == 0, result.output
