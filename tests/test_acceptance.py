"""End-to-end acceptance suite.

Nine checks, one printed verdict line each (run pytest with -s to see the
lines on passing runs).  Every tolerance is pinned here:

  1. zero-probability of the uniform superposition at lam=1, 3 sigma
  2. exhaustive amplitude bounds (1 +/- lam)^N at lam=1/2, exact
  3. amplitude resolution: 317 bits at (200, 1/2), integer ceiling below 2N
  4. identification no-decision bound N*0.25^M + 3 sigma, zero wrong strings
  5. scaling separation: baseline log2 slope 1.0 +/- 0.1, shifted-scheme
     budget cost per bit flat within +/- 15 percent
  6. per-period mismatch rate 0.5 +/- 0.005; the 83-period verification
     budget checked analytically
  7. waveform readout == exact symbolic evaluation, zero tolerance
  8. inverter gate: involution at lam=1, lam^2 coefficient rule matching the
     pointwise waveform product exactly
  9. byte-identical CLI reruns
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

from rtwlogic import algebra as alg
from rtwlogic import engines as eng
from rtwlogic import experiments as exp
from rtwlogic import identify as idf
from rtwlogic import rtw
from rtwlogic import signal as sig
from rtwlogic.cli import main as cli_main


def _criterion(tag: str, label: str, body: Callable[[], str]) -> None:
    try:
        detail = body()
    except BaseException as err:
        print(f"[{tag}] FAIL {label}: {err}")
        raise
    print(f"[{tag}] PASS {label}: {detail}")


def test_1_zero_probability_three_sigma() -> None:
    def body() -> str:
        pieces = []
        for n, trials in ((1, 10**5), (2, 10**5), (3, 10**5), (5, 10**5),
                          (8, 10**5), (10, 10**6)):
            t0 = time.monotonic()
            r = exp.zero_probability_experiment(n, trials, seed=1)
            elapsed = time.monotonic() - t0
            est = r.observed["estimate"]
            target = r.theoretical["probability_float"]
            tol = r.theoretical["three_sigma"]
            assert abs(est - target) <= tol, (n, est, target, tol)
            assert r.passed
            assert elapsed < 60.0, (n, elapsed)
            pieces.append(f"N={n}:{est:.6f}~{target:.6f}")
        return "; ".join(pieces)

    _criterion("acceptance 1/9", "nonzero-readout probability 0.5^N within 3 sigma",
               body)


def test_2_amplitude_bounds_exhaustive_exact() -> None:
    def body() -> str:
        t0 = time.monotonic()
        for n in range(1, 7):
            r = exp.amplitude_range_experiment(n, "1/2", exhaustive=True)
            assert r.passed
            assert r.observed["min_abs"] == Fraction(1, 2) ** n
            assert r.observed["max_abs"] == Fraction(3, 2) ** n
            assert r.observed["min_attained"] and r.observed["max_attained"]
            assert r.observed["all_within_bounds"]
            assert r.observed["samples"] == 4**n
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, elapsed
        return f"N=1..6 attain 0.5^N and 1.5^N exactly in {elapsed:.1f}s"

    _criterion("acceptance 2/9", "uniform-superposition amplitude bounds at lam=1/2",
               body)


def test_3_resolution_bits() -> None:
    def body() -> str:
        assert exp.resolution_bits(200, "1/2") == 317
        for n in range(1, 1001):
            bits = exp.resolution_bits(n, "1/2")
            if n <= 2:
                # N*log2(3) is 1.585 and 3.170: the integer ceiling lands
                # exactly on the 2N rail for these two sizes only, while the
                # real-valued range ratio 3^N / 4^N is already strictly below
                assert bits == 2 * n, (n, bits)
            else:
                assert bits < 2 * n, (n, bits)
            assert exp.dynamic_range_below_double("1/2")
        return ("resolution_bits(200, 1/2) == 317; ceiling < 2N for N in "
                "3..1000 and == 2N only at N in {1, 2}; 3^N < 4^N exact throughout")

    _criterion("acceptance 3/9", "dynamic-range resolution stays below 2 bits per noise-bit",
               body)


def test_4_identification_error_bound() -> None:
    def body() -> str:
        pieces = []
        for n, m in ((4, 3), (8, 5), (16, 6)):
            r = exp.identification_experiment(n, trials=10**5, seed=1, max_periods=m)
            bound = r.theoretical["undecided_bound_float"]
            tol = r.theoretical["three_sigma"]
            rate = r.observed["undecided_rate"]
            assert bound == min(1.0, n * 0.25**m)
            assert rate <= bound + tol, (n, m, rate, bound, tol)
            assert r.observed["wrong_complete_trials"] == 0
            assert r.observed["wrong_decided_bits"] == 0
            assert r.observed["contradictions"] == 0
            assert r.passed
            pieces.append(f"({n},{m}):{rate:.5f}<={bound:.5f}+{tol:.5f}")
        return "; ".join(pieces)

    _criterion("acceptance 4/9",
               "undecided rate within N*0.25^M + 3 sigma, recovery 100% correct",
               body)


def test_5_scaling_separation() -> None:
    def body() -> str:
        t0 = time.monotonic()
        base = exp.identification_benchmark(
            list(range(4, 15)), epsilon="1/1000000", trials=150, seed=29,
            include_baseline=True,
        )
        slope = base.observed["baseline_log2_slope"]
        assert abs(slope - 1.0) <= 0.1, slope
        assert base.passed
        flat = exp.identification_benchmark(
            [8, 16, 32, 64], epsilon="1/1000", trials=2000, seed=31,
            include_baseline=False,
        )
        spread = flat.observed["tsinbl_cost_per_bit_max_rel_dev"]
        assert spread <= 0.15, spread
        assert all(row["tsinbl_wrong_trials"] == 0 for row in flat.rows)
        assert flat.passed
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, elapsed
        return (f"baseline log2 slope {slope:.4f} in 1.0+/-0.1; "
                f"budget cost/bit spread {spread:.4f} <= 0.15; {elapsed:.0f}s")

    _criterion("acceptance 5/9", "exponential baseline vs linear shifted-scheme cost",
               body)


def test_6_mismatch_rate_and_verification_budget() -> None:
    def body() -> str:
        periods = 10**5
        mismatches, b1, b2 = eng.mismatch_rate_engine(8, periods, seed=1)
        rate = mismatches / periods
        assert b1 != b2
        assert abs(rate - 0.5) <= 0.005, rate
        # the 1e-25 scale is not reachable by sampling; check the period
        # budget analytically: the per-period mismatch chance is 1/2, so
        # 83 periods push the single-candidate false-match odds to 2^-83,
        # which sits inside [1e-26, 1e-24]; the strict inversion of 1e-25
        # itself needs one more period
        assert idf.verification_error_bound(83) == Fraction(1, 2**83)
        assert idf.verification_periods(Fraction(1, 2**83)) == 83
        assert Fraction(1, 10**26) < Fraction(1, 2**83) < Fraction(1, 10**24)
        assert round(math.log2(10**25)) == 83
        assert idf.verification_periods(Fraction(1, 10**25)) == 84
        return f"mismatch rate {rate:.5f} in 0.5+/-0.005; 2^-83 pins the 1e-25 scale"

    _criterion("acceptance 6/9", "distinct strings mismatch half the periods",
               body)


def test_7_readout_equals_symbolic_oracle() -> None:
    def body() -> str:
        t0 = time.monotonic()
        checked = 0
        for n in range(1, 9):
            u = alg.uniform_superposition(n)
            for seed in range(100):
                refs = rtw.build_reference_system(seed, n, 4, lam=Fraction(1, 2))
                for shifted in (False, True):
                    tr = sig.trace_superposition(refs, u, shifted=shifted)
                    outs = sig.readout(tr)
                    for k, v in enumerate(outs):
                        expect = alg.evaluate_symbolic(
                            u, refs.period_signs(k), refs.lam
                        )
                        assert v == expect, (n, seed, shifted, k)
                        checked += 1
        elapsed = time.monotonic() - t0
        return f"{checked} readouts exactly equal symbolic values in {elapsed:.1f}s"

    _criterion("acceptance 7/9", "waveform readout == exact symbolic evaluation",
               body)


def test_8_not_gate_identities() -> None:
    def body() -> str:
        # involution and H<->L swap at lam = 1
        one = Fraction(1)
        for n in (2, 3, 4):
            u = alg.expand(alg.uniform_superposition(n))
            s = alg.Superposition(
                n, {0: Fraction(2), (1 << n) - 1: Fraction(-1, 3), 1: Fraction(5, 7)}
            )
            for r in range(1, n + 1):
                swapped = alg.apply_not(u, r, one)
                assert swapped == u  # uniform is invariant under the swap
                t = alg.apply_not(s, r, one)
                assert {w.bits: c for w, c in t.items()} == {
                    w.with_bit_flipped(r).bits: c for w, c in s.items()
                }
                assert alg.apply_not(t, r, one) == s

        # lam = 1/2: coefficient rule against the pointwise waveform product
        lam = Fraction(1, 2)
        refs = rtw.build_reference_system(6, 3, 50, lam=lam)
        u_fact = alg.uniform_superposition(3)
        ticks_checked = 0
        for r in (1, 2, 3):
            inverted = alg.apply_not(u_fact, r, lam)
            for w, c in alg.expand(inverted).items():
                assert c == (lam * lam if w.value(r) == "H" else 1)
            for shifted in (False, True):
                gate = sig.trace_selection(refs, [(r, "H"), (r, "L")], shifted=shifted)
                lhs = sig.multiply_traces(
                    sig.trace_superposition(refs, u_fact, shifted=shifted), gate
                )
                rhs = sig.trace_superposition(refs, inverted, shifted=shifted)
                assert lhs.samples == rhs.samples
                ticks_checked += len(lhs.samples)
        return (f"involution and swap exact at lam=1; lam^2 rule matches the "
                f"waveform product on {ticks_checked} ticks")

    _criterion("acceptance 8/9", "inverter gate identities", body)


def test_9_cli_byte_identical_reruns(tmp_path) -> None:
    def body() -> str:
        cases = [
            ["zero-prob", "--bits", "3", "--trials", "20000"],
            ["range", "--bits", "4", "--exhaustive"],
            ["resolution", "--bits", "200"],
            ["identify", "--bits", "6", "--epsilon", "1/100", "--trials", "2000"],
            ["bench", "--bits", "4,6", "--trials", "50"],
            ["not-demo", "--bits", "2", "--lambda", "1/2", "--target", "1",
             "--periods", "200"],
            ["zero-prob", "--bits", "2", "--trials", "5000", "--format", "json"],
        ]
        for argv in cases:
            p1 = tmp_path / "first.out"
            p2 = tmp_path / "second.out"
            assert cli_main(argv + ["--out", str(p1)]) == 0, argv
            assert cli_main(argv + ["--out", str(p2)]) == 0, argv
            assert p1.read_bytes() == p2.read_bytes(), argv
        return f"{len(cases)} command lines re-ran byte-identically"

    _criterion("acceptance 9/9", "deterministic CLI reports", body)
