"""The README's library quick start, command lines and refusal examples run as written."""

from __future__ import annotations

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from rtwlogic import cli, engines, experiments, rng
from rtwlogic.identify import required_periods

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no sh block under 'Command line'"
    lines = [" ".join(shlex.split(line, comments=True))
             for line in block.group(1).splitlines() if line.startswith("rtwlogic ")]
    assert lines, "no rtwlogic lines under 'Command line'"
    return lines


def _caps_rows() -> list[str]:
    section = README.read_text(encoding="utf-8").split("### Caps", 1)[1].split("\n\n#", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def _refusal_examples() -> list[str]:
    """Each backticked CLI command in the Refusal column of the Caps table."""
    rows = _caps_rows()
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
        raise AssertionError("drew signs before refusing")

    for name in ("role_words", "sign_matrix"):
        monkeypatch.setattr(rng, name, no_work)
    assert cli.main(line.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def _largest_admitted(count, lo: int, hi: int) -> int:
    """Largest x in [lo, hi) whose count fits ENGINE_TRIAL_BYTES_CAP; count grows with x."""
    cap = engines.ENGINE_TRIAL_BYTES_CAP
    assert count(lo) <= cap < count(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(mid) <= cap else (lo, mid)
    return lo


def test_caps_rows_state_the_admitted_limits() -> None:
    # each memory count's admitted limit, bisected on the count itself, must
    # appear comma-grouped in its row, so a changed count fails until the
    # README follows
    eng, exp = engines, experiments
    half = Fraction(1, 2)
    limits = {
        "identification trial": [_largest_admitted(
            lambda n: eng._identification_trial_bytes(n, required_periods(n, "1/1000")), 1, 2**40
        )],
        "per-period engine": [_largest_admitted(eng._period_bytes, 1, 2**40)],
        "`not-demo`": [_largest_admitted(lambda n: exp._not_demo_bytes(n, half), 1, 2**40)],
        "baseline trial": [_largest_admitted(lambda p: eng._baseline_trial_bytes(n, p), 1, 2**40)
                           for n in (31, 14)],
    }
    rows = _caps_rows()
    for name, values in limits.items():
        (row,) = [r for r in rows if r.startswith(f"| `ENGINE_TRIAL_BYTES_CAP`: {name} |")]
        for value in values:
            assert re.search(rf"(?<![\d,]){value:,}(?!,?\d)", row), f"{name}: {value:,}"
