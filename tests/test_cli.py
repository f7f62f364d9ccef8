"""Command line interface: flags, exit codes, deterministic output."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from rtwlogic import experiments, rng
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
        ["range", "--bits", "8", "--trials", "0"],            # no period to sample
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


def test_bench_refuses_raised_baseline_cap(capsys) -> None:
    rc, out, err = _run(capsys, ["bench", "--bits", "4", "--baseline-cap", "15"])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# sha256 of each report at fixed flags, one line per subcommand and format;
# a refactor that changes any report byte changes its digest
GOLDEN_REPORTS = {
    "zero-prob --bits 3 --trials 20000 --format csv":
        "45fb34f1bbc8f7a5a894c51263839158f3b23b8b7e42bb66e09e770684dc25b0",
    "zero-prob --bits 3 --trials 20000 --format json":
        "ee6bcad75fb5f758162d411ab8205b0e629875121ad72ba4db5a689afa1840f1",
    "range --bits 4 --lambda 1/2 --exhaustive --format csv":
        "bbe78b5f236dcb96b1274241ab3483babeb4231d9b3a8513569933481ec23832",
    "range --bits 4 --lambda 1/2 --exhaustive --format json":
        "3ec1a50ffb6b52a937d540326bfd1c75ebaf03dd290b28870dba948875a5f47c",
    "range --bits 8 --lambda 1/2 --trials 200 --format csv":
        "4afcc1b0f8d6f85b5c119b42c16b5aacaf0c8b6603bd3ed8e530c27bdd20f596",
    "range --bits 8 --lambda 1/2 --trials 200 --format json":
        "6b51f78165592de8baedd381888a86271976f00f26e9bad0270ba20b3d517b70",
    "resolution --bits 200 --lambda 1/2 --format csv":
        "547065e26f49f1cab96f4c19d9c9c847b64ef051801ae2db708865d83031127e",
    "resolution --bits 200 --lambda 1/2 --format json":
        "5bf772cb01f95dbb29078dd241b996c17213f3211f8e6455e828b02ca7e737e3",
    "identify --bits 8 --epsilon 1/1000 --trials 500 --format csv":
        "dfe93f0f22eeb3605986e24ab0db47429c2921034a29f5bc146f975f2f2e2935",
    "identify --bits 8 --epsilon 1/1000 --trials 500 --format json":
        "e52226f927f734ef5ec76334ce74e130ea14a94f57ecf9c29a2b343b2d8aae77",
    "bench --bits 4,6,8 --trials 50 --format csv":
        "3e2ae84ca4b7dfb56c35e8851ce23c2e0c40fd573c5e24d1189cfc53d2288e5e",
    "bench --bits 4,6,8 --trials 50 --format json":
        "ef1c63bb9616443663b66c4fd4c51877d687db5e50a2dae282d70b900c1a752e",
    "not-demo --bits 3 --lambda 1/2 --target 2 --periods 200 --format csv":
        "7d27faba952e8e25e9089a0418d74c68aaedf7e4007de94bab570337da189e3e",
    "not-demo --bits 3 --lambda 1/2 --target 2 --periods 200 --format json":
        "0c62954ab6d81aa5c2a62f7674e640e00aaae1851b73fc71e94b5b743972baca",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_REPORTS))
def test_report_bytes_are_golden(tmp_path, capsys, command) -> None:
    path = tmp_path / "report"
    assert _run(capsys, command.split() + ["--out", str(path)])[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORTS[command]


def test_identify_above_64_bits(capsys) -> None:
    rc, out, err = _run(capsys, ["identify", "--bits", "100", "--trials", "20"])
    assert rc == 0, err
    assert "parameters,bits,100" in out.splitlines()


def test_identify_memory_cap_exits_two(monkeypatch, capsys) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    monkeypatch.setattr(rng, "sign_tensor", no_signs)
    monkeypatch.setattr(rng, "sign_words", no_signs)
    monkeypatch.setattr(rng, "sign_planes", no_signs)
    for argv in (["identify", "--bits", "1000000", "--trials", "1"],
                 ["bench", "--bits", "4,1000000", "--trials", "1"]):
        rc, out, err = _run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "capped at" in err


def test_reference_memory_cap_exits_two(monkeypatch, capsys) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    monkeypatch.setattr(rng, "sign_matrix", no_signs)
    for argv in (["range", "--bits", "16777217", "--trials", "1"],
                 ["not-demo", "--bits", "1", "--periods", "100000000"]):
        rc, out, err = _run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "capped at" in err


@pytest.fixture
def int_str_digits():
    """Pin Python's int to str digit limit at 4300, its default; restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int to str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def test_range_unprintable_bound_exits_two(monkeypatch, capsys, int_str_digits) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the digit check")

    monkeypatch.setattr(rng, "sign_matrix", no_signs)
    # at lambda = 1/2 the bound (3/2)^N has a 4301-digit numerator at N = 9013
    for bits in ("9013", "10000"):
        rc, out, err = _run(capsys, ["range", "--bits", bits, "--trials", "2"])
        assert rc == 2, bits
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{bits} bits" in err and "4300 digits" in err


def test_range_largest_printable_bound_runs(capsys, int_str_digits) -> None:
    # 3^9012 has 4300 digits, the most the limit lets str() print
    rc, out, err = _run(capsys, ["range", "--bits", "9012", "--trials", "2"])
    assert rc == 0, err
    assert "parameters,bits,9012" in out.splitlines()
    # a limit of 0 lifts the check
    int_str_digits(0)
    rc, out, err = _run(capsys, ["range", "--bits", "9013", "--trials", "2"])
    assert rc == 0, err


def test_unexpected_error_exits_three(monkeypatch, capsys) -> None:
    def boom(*args, **kwargs):
        raise RuntimeError("engine fault\nsecond line")

    monkeypatch.setattr(experiments, "identification_experiment", boom)
    rc, out, err = _run(capsys, ["identify", "--bits", "4", "--trials", "10"])
    assert rc == 3
    assert out == ""
    assert err == "error: RuntimeError: engine fault second line\n"
