"""The README's library quick start, command lines and refusal examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from rtwlogic import cli, experiments, rng

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no sh block under 'Command line'"
    lines = [" ".join(shlex.split(line, comments=True))
             for line in block.group(1).splitlines() if line.startswith("rtwlogic ")]
    assert lines, "no rtwlogic lines under 'Command line'"
    return lines


def _refusal_examples() -> list[str]:
    """Each backticked CLI command in the Refusal column of the Caps table."""
    section = README.read_text(encoding="utf-8").split("### Caps", 1)[1].split("\n\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "no Caps table"
    subcommands = {line.split()[1] for line in _command_lines()}
    examples = [span for row in rows for span in re.findall(r"`([^`]+)`", row.split(" | ")[-1])
                if span.split()[0] in subcommands]
    assert examples, "no refusal examples in the Caps table"
    return examples


def test_library_quick_start_runs(capsys) -> None:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick start'"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_quick_start"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("ticks") and "periods," in lines[0]
    assert lines[1].startswith("(Fraction(")


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_block_runs(capsys, line: str) -> None:
    assert cli.main(line.split()[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("line", _refusal_examples())
def test_refusal_example_exits_two(monkeypatch, capsys, line: str) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError("drew signs or expanded before refusing")

    for module, name in ((rng, "role_words"), (rng, "sign_matrix"), (experiments, "expand")):
        monkeypatch.setattr(module, name, no_work)
    assert cli.main(line.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
