"""Command line interface: flags, exit codes, deterministic output."""

from __future__ import annotations

import json

import pytest

from rtwlogic import experiments
from rtwlogic.cli import main


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_zero_prob_csv(capsys) -> None:
    rc, out, _ = _run(capsys, ["zero-prob", "--bits", "3", "--trials", "20000"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "section,key,value"
    assert "experiment,name,zero-probability" in lines
    assert "result,passed,true" in lines


def test_zero_prob_json(capsys) -> None:
    rc, out, _ = _run(
        capsys, ["zero-prob", "--bits", "2", "--trials", "5000", "--format", "json"]
    )
    assert rc == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert d["parameters"]["bits"] == 2


def test_range_exhaustive(capsys) -> None:
    rc, out, _ = _run(
        capsys,
        ["range", "--bits", "3", "--lambda", "1/3", "--exhaustive", "--format", "json"],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["observed"]["min_abs"] == "8/27"
    assert d["observed"]["max_abs"] == "64/27"


def test_resolution(capsys) -> None:
    rc, out, _ = _run(capsys, ["resolution", "--bits", "200", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["observed"]["resolution_bits"] == 317


def test_identify(capsys) -> None:
    rc, out, _ = _run(
        capsys,
        ["identify", "--bits", "6", "--epsilon", "1/100", "--trials", "2000",
         "--format", "json"],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["observed"]["wrong_complete_trials"] == 0


def test_not_demo(capsys) -> None:
    rc, out, _ = _run(
        capsys,
        ["not-demo", "--bits", "2", "--lambda", "1/2", "--target", "1",
         "--periods", "200", "--format", "json"],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["observed"]["former_l_scale"] == "1/4"


def test_bench_writes_file_and_reruns_identically(tmp_path, capsys) -> None:
    args = ["bench", "--bits", "4,6", "--trials", "50", "--no-baseline"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, args + ["--out", str(p1)])[0] == 0
    assert _run(capsys, args + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys) -> None:
    args = ["resolution", "--bits", "50"]
    rc, out, _ = _run(capsys, args)
    assert rc == 0
    path = tmp_path / "r.csv"
    assert _run(capsys, args + ["--out", str(path)])[0] == 0
    assert path.read_text(encoding="utf-8") == out


def test_failed_check_exits_one(capsys) -> None:
    # a two-point sweep with wildly different per-bit budgets cannot meet the
    # flatness criterion, so the report honestly fails
    rc, out, _ = _run(
        capsys,
        ["bench", "--bits", "2,64", "--epsilon", "1/2", "--trials", "20",
         "--no-baseline"],
    )
    assert rc == 1
    assert "result,passed,false" in out.splitlines()


def _exit_code(argv: list[str]) -> int:
    # flag parse errors raise SystemExit(2); domain validation returns 2
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def test_bad_arguments_exit_two(capsys) -> None:
    for argv in (
        ["zero-prob"],                                        # missing --bits
        ["zero-prob", "--bits", "0"],
        ["zero-prob", "--bits", "3", "--trials", "x"],
        ["range", "--bits", "3", "--lambda", "2"],
        ["range", "--bits", "3", "--lambda", "0"],
        ["identify", "--bits", "4", "--epsilon", "1"],
        ["bench", "--bits", "4,banana"],
        ["frobnicate"],
    ):
        assert _exit_code(argv) == 2, argv
        capsys.readouterr()


def test_cap_violations_exit_two(capsys) -> None:
    rc, _, err = _run(capsys, ["identify", "--bits", "20", "--baseline",
                               "--trials", "10"])
    assert rc == 2
    assert "14" in err
    rc, _, err = _run(capsys, ["range", "--bits", "25", "--exhaustive"])
    assert rc == 2


def test_identify_above_64_bits(capsys) -> None:
    rc, out, err = _run(capsys, ["identify", "--bits", "100", "--trials", "20"])
    assert rc == 0, err
    assert "parameters,bits,100" in out.splitlines()


def test_unexpected_error_exits_three(monkeypatch, capsys) -> None:
    def boom(*args, **kwargs):
        raise RuntimeError("engine fault\nsecond line")

    monkeypatch.setattr(experiments, "identification_experiment", boom)
    rc, out, err = _run(capsys, ["identify", "--bits", "4", "--trials", "10"])
    assert rc == 3
    assert out == ""
    assert err == "error: RuntimeError: engine fault second line\n"
