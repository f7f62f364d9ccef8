"""Command line interface: flags, exit codes, deterministic output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import engines, experiments, rng
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


def test_bad_arguments_exit_two(monkeypatch, capsys) -> None:
    for argv in (
        ["zero-prob"],                                        # missing --bits
        ["zero-prob", "--bits", "0"],
        ["zero-prob", "--bits", "3", "--trials", "x"],
        ["range", "--bits", "3", "--lambda", "2"],
        ["range", "--bits", "3", "--lambda", "0"],
        ["range", "--bits", "8", "--trials", "0"],            # no period to sample
        ["identify", "--bits", "4", "--epsilon", "1"],
        ["bench", "--bits", "4,banana"],
        # a baseline cap below 1 runs no baseline under a report that names one
        ["bench", "--bits", "4", "--trials", "5", "--baseline-cap", "-1"],
        ["bench", "--bits", "4", "--trials", "5", "--baseline-cap", "0"],
        ["frobnicate"],
        # a seed outside 0..2^64 - 1 would alias one inside under another name
        ["identify", "--bits", "16", "--trials", "300", "--seed", str(2**64)],
        ["identify", "--bits", "16", "--trials", "300", "--seed", str(-(2**64))],
        ["zero-prob", "--bits", "3", "--seed", str(2**64 + 5)],
        ["range", "--bits", "8", "--seed", "-1"],
        ["bench", "--bits", "4", "--seed", str(2**64)],
        ["not-demo", "--bits", "2", "--seed", "-5"],
    ):
        assert main(argv) == 2, argv
        capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("drew signs before refusing")

    # each of these refusals names the flag at fault, before any draw
    monkeypatch.setattr(rng, "role_words", no_work)
    for argv, message in (
        (["identify", "--bits", "4", "--trials", "0"], "error: trials must be >= 1\n"),
        (["bench", "--bits", "4", "--trials", "0"], "error: trials must be >= 1\n"),
        (["not-demo", "--bits", "3", "--periods", "0"], "error: periods must be >= 1\n"),
        (["bench", "--bits", ""], "argument --bits: need at least one bit count\n"),
    ):
        rc, out, err = _run(capsys, argv)
        assert (rc, out) == (2, ""), argv
        assert err.endswith(message), (argv, err)


def test_seed_accepts_both_ends_of_its_range(capsys) -> None:
    # 0 and 2^64 - 1 run, and the report states the seed as given
    for seed in (0, 2**64 - 1):
        argv = ["zero-prob", "--bits", "3", "--trials", "200", "--seed", str(seed)]
        rc, out, err = _run(capsys, argv)
        assert (rc, err) == (0, "")
        assert f"parameters,seed,{seed}\n" in out


def test_parse_errors_return_two_with_usage(capsys) -> None:
    # argparse's own refusals return 2 instead of raising SystemExit
    for argv, message in (
        (["not-demo", "--bits", "2", "--lambda", "0"], "lambda must satisfy 0 < lambda <= 1"),
        (["bench", "--epsilon", "1"], "epsilon must satisfy 0 < epsilon < 1"),
        (["range", "--bits", "2", "--lambda", "1/0"], "not a rational number: '1/0'"),
        (["identify", "--bits", "x"], "invalid int value: 'x'"),
        (["identify", "--bits", "4", "--seed", "x"], "invalid int value: 'x'"),
        (["range", "--bits", "2", "--seed", str(2**64)],
         f"argument --seed: seed must satisfy 0 <= seed < 2^64, got {2**64}"),
        # a negative rational as a separate word is read as the flag's value,
        # and a missing value is still missing
        (["range", "--bits", "3", "--lambda", "-1/2"],
         "argument --lambda: lambda must satisfy 0 < lambda <= 1"),
        (["identify", "--bits", "4", "--epsilon", "-1/1000"],
         "argument --epsilon: epsilon must satisfy 0 < epsilon < 1"),
        (["range", "--bits", "3", "--lambda"], "argument --lambda: expected one argument"),
        (["bench", "--epsilon", "--bits", "4"], "argument --epsilon: expected one argument"),
        # so is it after an abbreviated flag, where range's --e is --exhaustive
        *((["range", "--bits", "3", flag, "-1/2"],
           "argument --lambda: lambda must satisfy 0 < lambda <= 1")
          for flag in ("--lam", "--la", "--l")),
        *((["identify", "--bits", "4", flag, "-1/1000"],
           "argument --epsilon: epsilon must satisfy 0 < epsilon < 1")
          for flag in ("--eps", "--ep", "--e")),
        (["bench", "--ep", "-1/2"], "argument --epsilon: epsilon must satisfy 0 < epsilon < 1"),
        (["range", "--bits", "3", "--e", "-1/2"],
         "argument --exhaustive: ignored explicit argument '-1/2'"),
    ):
        rc, out, err = _run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith(f"usage: rtwlogic {argv[0]}")
        assert message in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, argv
    # the separate word is refused exactly as the `=` form is
    for command, flag, value in (("range", "--lambda", "-1/2"), ("range", "--lambda", "-1"),
                                 ("identify", "--epsilon", "-1/1000")):
        apart = _run(capsys, [command, "--bits", "3", flag, value])
        assert apart[0] == 2
        assert apart == _run(capsys, [command, "--bits", "3", f"{flag}={value}"])


@pytest.mark.parametrize("argv", [
    ["bench", "--trials", "20"],  # the default --bits
    ["bench", "--bits", "4,6", "--trials", "20", "--no-baseline"],
    ["range", "--bits", "4", "--lambda", "1/3", "--exhaustive", "--format", "json"],
    ["not-demo", "--bits", "2", "--periods", "50"],
])
def test_repeated_in_process_calls_write_identical_bytes(tmp_path, capsys, argv) -> None:
    # main reuses one parser per process, so nothing a run does to the parsed
    # arguments may leak into the next run's defaults
    p1, p2 = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, argv + ["--out", str(p1)])[0] == 0
    assert _run(capsys, argv + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_error_after_a_run_returns_two_with_the_same_usage(capsys) -> None:
    bad = ["range", "--bits", "2", "--lambda", "0"]
    rc, _, first = _run(capsys, bad)
    assert rc == 2
    assert _run(capsys, ["range", "--bits", "2", "--lambda", "1/2"])[0] == 0
    rc, out, again = _run(capsys, bad)
    assert rc == 2
    assert out == ""
    assert again == first
    assert again.startswith("usage: rtwlogic range")


def test_help_returns_zero(capsys) -> None:
    rc, out, _ = _run(capsys, ["range", "--help"])
    assert rc == 0
    assert out.startswith("usage: rtwlogic range")


def test_cap_violations_exit_two(capsys) -> None:
    rc, _, err = _run(capsys, ["identify", "--bits", "20", "--baseline",
                               "--trials", "10"])
    assert rc == 2
    assert "14" in err
    rc, _, err = _run(capsys, ["range", "--bits", "25", "--exhaustive"])
    assert rc == 2


def test_resolution_cap(capsys, monkeypatch) -> None:
    # the power cap is the one cap on N: at lambda = 1/2 the ratio 3/1 has
    # 2 + 1 bits, the fewest of any lambda, so N = 666,666 builds a power of
    # 1999998 bits and runs, and N = 666,667 is refused before the power is
    # built
    cap = experiments.RESOLUTION_POWER_BITS_CAP
    rc, out, _ = _run(capsys, ["resolution", "--bits", "666666", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["observed"]["resolution_bits"] == 1056641

    def no_power(*args):
        raise AssertionError("computed a power")

    monkeypatch.setattr(Fraction, "__pow__", no_power)
    rc, out, err = _run(capsys, ["resolution", "--bits", "666667"])
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: resolution at 666667 bits and lambda = 1/2 builds a power of about "
        f"2000001 bits; capped at {cap}\n"
    )


def test_resolution_power_cap(capsys, monkeypatch) -> None:
    # lambda = 2^-20: the ratio (2^20 + 1)/(2^20 - 1) has 21 + 20 bits, so
    # N = 48780 builds a power of 1999980 bits, at most the cap, and
    # N = 48781 one of 2000021; 1/10^100's ratio has 333 + 333 bits
    cap = experiments.RESOLUTION_POWER_BITS_CAP
    rc, out, _ = _run(capsys, ["resolution", "--bits", "48780", "--lambda", f"1/{2**20}"])
    assert rc == 0 and 48780 * 41 <= cap

    def no_power(*args):
        raise AssertionError("computed a power")

    monkeypatch.setattr(Fraction, "__pow__", no_power)
    for bits, lam, power in ((48781, 2**20, 48781 * 41), (10**5, 10**100, 10**5 * 666)):
        rc, out, err = _run(capsys, ["resolution", "--bits", str(bits), "--lambda", f"1/{lam}"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"about {power} bits; capped at {cap}" in err


def test_bench_refuses_raised_baseline_cap(capsys) -> None:
    rc, out, err = _run(capsys, ["bench", "--bits", "4", "--baseline-cap", "15"])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# sha256 of each report at fixed flags, one line per subcommand and format;
# a refactor that changes any report byte changes its digest
GOLDEN_REPORTS = {
    "zero-prob --bits 3 --trials 20000 --format csv":
        "201d6a06f39b892abc77427b7fe704b6174b0ba8c2678bf264984ad8eebd06c4",
    "zero-prob --bits 3 --trials 20000 --format json":
        "9222ed87f7b9e1058d273872d4d3ee1eae20c48ce3a3b28c411c0cbb534f7a01",
    "range --bits 4 --lambda 1/2 --exhaustive --format csv":
        "bbe78b5f236dcb96b1274241ab3483babeb4231d9b3a8513569933481ec23832",
    "range --bits 4 --lambda 1/2 --exhaustive --format json":
        "3ec1a50ffb6b52a937d540326bfd1c75ebaf03dd290b28870dba948875a5f47c",
    "range --bits 8 --lambda 1/2 --trials 200 --format csv":
        "bc367994e2df95f0b992fa3a70f2df4307e90bcffb46302c00028befe5e246c3",
    "range --bits 8 --lambda 1/2 --trials 200 --format json":
        "1456946a2a21ba21611bd79700cc8b1f8c9932db2412f8a513a03cdcedb27401",
    "resolution --bits 200 --lambda 1/2 --format csv":
        "547065e26f49f1cab96f4c19d9c9c847b64ef051801ae2db708865d83031127e",
    "resolution --bits 200 --lambda 1/2 --format json":
        "5bf772cb01f95dbb29078dd241b996c17213f3211f8e6455e828b02ca7e737e3",
    "identify --bits 8 --epsilon 1/1000 --trials 500 --format csv":
        "10ba0c7319313916612ef2f8d99ba58a588416645b29a1027f5fbccde968171f",
    "identify --bits 8 --epsilon 1/1000 --trials 500 --format json":
        "4f8592fd2fee153b041a64af251563c40248274113626b1bba6184e45ef3dc2e",
    "bench --bits 4,6,8 --trials 50 --format csv":
        "bacb7b3d4aaeee2539f930d5dd60206845807eea57b5d4d1cf6ce7aab2f4b710",
    "bench --bits 4,6,8 --trials 50 --format json":
        "c33c986692d5ea024c61648fa18295b477e2bdba84cc70045eec3ffef1cbd559",
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
    monkeypatch.setattr(rng, "role_words", no_signs)
    for argv in (["identify", "--bits", "20000000", "--trials", "1"],
                 ["bench", "--bits", "4,20000000", "--trials", "1"]):
        rc, out, err = _run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "capped at" in err


def test_reference_memory_cap_exits_two(monkeypatch, capsys) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    monkeypatch.setattr(rng, "sign_matrix", no_signs)
    monkeypatch.setattr(rng, "role_words", no_signs)
    for argv in (["range", "--bits", "572662273", "--trials", "1"],
                 ["not-demo", "--bits", "300000", "--lambda", "1"]):
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

    # Monte Carlo range draws its signs through rng.role_words
    monkeypatch.setattr(rng, "role_words", no_signs)
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


# boundary values of each flag: bit counts at the plane-word edges and at
# each bit cap +- 1, counts -1..2, rationals near 0, at 1 and past both,
# seeds at and past both ends of 0..2^64 - 1
_BIT_CAPS = (experiments.EXHAUSTIVE_BITS_CAP, experiments.BASELINE_BITS_CAP,
             experiments.ZERO_PROB_BITS_CAP)
_BITS = sorted({0, 1, 2, 63, 64, 65} | {cap + d for cap in _BIT_CAPS for d in (-1, 0, 1)})
_COUNTS = ["-1", "0", "1", "2"]
_RATIONALS = ["0", "1/1000000000000", "1/2", "999999999999/1000000000000", "1", "2", "-1/2"]
_SEEDS = ["0", str(2**64 - 1), str(2**64), "-1"]
# at lambda = 1/2, resolution's power cap admits N <= 666,666 and not-demo's
# value cap N <= 250,000
_LARGE_BITS = {"resolution": [666_665, 666_666, 666_667], "not-demo": [249_999, 250_000, 250_001]}
# each subcommand's flags: its count flag is always given, so no example
# runs a default of thousands of trials
_COUNT_FLAG = {"zero-prob": "--trials", "range": "--trials", "identify": "--trials",
               "bench": "--trials", "not-demo": "--periods"}
_FLAGS = {
    "zero-prob": {"--seed": _SEEDS},
    "range": {"--lambda": _RATIONALS, "--exhaustive": None, "--seed": _SEEDS},
    "resolution": {"--lambda": _RATIONALS},
    "identify": {"--epsilon": _RATIONALS, "--seed": _SEEDS, "--baseline": None},
    "bench": {"--epsilon": _RATIONALS, "--seed": _SEEDS, "--no-baseline": None,
              "--baseline-cap": [str(v) for v in (-1, 0, 1, 13, 14, 15)], "--timing": None},
    "not-demo": {"--lambda": _RATIONALS, "--seed": _SEEDS},
}


@st.composite
def _argument_lists(draw, command: str) -> list[str]:
    """One boundary-heavy argument list of `command`, its flags in drawn order."""
    if command == "bench":
        # a 0 in the list is refused before the rest is read; single 0s come
        # from the other subcommands
        values = draw(st.lists(st.sampled_from(_BITS[1:]), min_size=1, max_size=3))
        args = [["--bits", ",".join(map(str, values))]]
    else:
        bits = draw(st.sampled_from(_BITS + _LARGE_BITS.get(command, [])))
        args = [["--bits", str(bits)]]
    if command in _COUNT_FLAG:
        args.append([_COUNT_FLAG[command], draw(st.sampled_from(_COUNTS))])
    if command == "not-demo":
        args.append(["--target", str(draw(st.integers(0, bits + 1)))])
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            args.append([flag] if values is None else [flag, draw(st.sampled_from(values))])
    args.append(["--format", draw(st.sampled_from(["csv", "json"]))])
    return [command] + [part for arg in draw(st.permutations(args)) for part in arg]


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=100)
@given(data=st.data())
def test_boundary_arguments_report_or_exit_two(command: str, data) -> None:
    # every argument list either writes a report whose verdict is its exit
    # code, 0 or 1, or is refused with exit 2, an empty stdout and one
    # `error:` line; exit 3 or an exception fails.  A low memory cap keeps
    # each admitted example small, and lets not-demo run at small N only
    argv = data.draw(_argument_lists(command))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(engines, "ENGINE_TRIAL_BYTES_CAP", 1 << 20), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 2:
        lines = err.splitlines()
        assert out == "", argv
        assert [line for line in lines if "error:" in line] == lines[-1:], (argv, err)
        assert len(lines) == 1 or lines[0].startswith(f"usage: rtwlogic {command}"), (argv, err)
        return
    assert err == "", (argv, err)
    if "json" in argv:
        assert json.loads(out)["passed"] is (rc == 0), argv
    else:
        assert f"result,passed,{'true' if rc == 0 else 'false'}" in out.splitlines(), argv
