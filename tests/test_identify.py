"""Time-shifted identification and the per-candidate verification baseline."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import identify as idf
from rtwlogic import rtw
from rtwlogic import signal as sig
from rtwlogic.experiments import identification_trial_exact
from rtwlogic.rng import hidden_bits_for, trial_master_seed

# ------------------------------------------------------------- error math


def test_error_bound_values() -> None:
    assert idf.error_bound(8, 5) == Fraction(1, 128)
    assert idf.error_bound(4, 3) == Fraction(1, 16)
    assert idf.error_bound(16, 6) == Fraction(1, 256)
    assert idf.error_bound(3, 0) == Fraction(3)


def test_required_periods_frozen() -> None:
    assert idf.required_periods(16, Fraction(1, 1000)) == 7
    assert idf.required_periods(8, "1/1000") == 7
    assert idf.required_periods(1, Fraction(1, 4)) == 1
    with pytest.raises(ValueError):
        idf.required_periods(4, 0)
    with pytest.raises(ValueError):
        idf.required_periods(4, 1)


@settings(max_examples=80, deadline=None)
@given(
    num_bits=st.integers(min_value=1, max_value=1000),
    eps=st.fractions(
        min_value=Fraction(1, 10**12), max_value=Fraction(99, 100), max_denominator=10**12
    ),
)
def test_required_periods_minimality(num_bits: int, eps: Fraction) -> None:
    m = idf.required_periods(num_bits, eps)
    assert idf.error_bound(num_bits, m) <= eps
    if m > 0:
        assert idf.error_bound(num_bits, m - 1) > eps


def test_one_epsilon_rule() -> None:
    # every entry point refuses through identify.check_epsilon, with its message
    unknown, refs, _ = _hidden_trace(8, 2, 4, 0b01, shifted=False)
    entry_points = (
        idf.check_epsilon,
        lambda eps: idf.required_periods(4, eps),
        idf.verification_periods,
        lambda eps: idf.ErrorBudget.from_epsilon(4, eps),
        lambda eps: idf.baseline_search(unknown, refs, eps),
    )

    class Sub(Fraction):
        pass

    tiny = Fraction(1, 10**30)
    big = 10**40
    # the bounds, values just inside and outside them, floats, bools,
    # strings, a Fraction subclass and large ints
    accept = (
        tiny, 1 - tiny, Fraction(big, big + 1), Fraction(1, big), 0.5, 5e-324,
        0.9999999999999999, "1/1000", " 0.999 ", "1e-30", Sub(1, 2),
    )
    refuse = (
        0, 1, "3/2", Fraction(-1, 3), -tiny, 1 + tiny, Fraction(big + 1, big), 0.0, -0.0,
        1.0, -0.5, True, False, "0", "1", "1.0000001", Sub(1), Sub(0), Sub(3, 2),
        big, -big,
    )
    for eps in accept:
        got = idf.check_epsilon(eps)
        assert type(got) is Fraction and got == Fraction(eps) and 0 < got < 1
    for eps in refuse:
        assert not 0 < Fraction(eps) < 1
        for call in entry_points:
            with pytest.raises(ValueError, match="epsilon must satisfy 0 < epsilon < 1"):
                call(eps)
    eps = Fraction(1, 1000)
    assert idf.check_epsilon(eps) is eps
    assert idf.check_epsilon("1/1000") == Fraction(1, 1000)


def test_verification_periods_exact_inversion() -> None:
    assert idf.verification_error_bound(83) == Fraction(1, 2**83)
    assert idf.verification_periods(Fraction(1, 2**83)) == 83
    assert idf.verification_periods(Fraction(1, 10**25)) == 84
    assert idf.verification_periods(Fraction(1, 2)) == 1


@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=1, max_value=200))
def test_verification_periods_minimality(m: int) -> None:
    eps = idf.verification_error_bound(m)
    assert idf.verification_periods(eps) == m
    assert idf.verification_periods(eps * Fraction(99, 100)) == m + 1


def test_error_budget() -> None:
    eb = idf.ErrorBudget.from_epsilon(8, "1/1000")
    assert eb.max_periods == 7
    assert eb.epsilon == Fraction(1, 2048)
    assert eb.ticks == 2 * 8 * 7
    eb = idf.ErrorBudget.from_periods(3, 2)
    assert eb.epsilon == Fraction(3, 16)
    assert eb.clamped_epsilon == Fraction(3, 16)
    eb = idf.ErrorBudget.from_periods(8, 1)
    assert eb.epsilon == Fraction(2)
    assert eb.clamped_epsilon == 1


def test_epsilon_budgets_are_shared_per_typed_key() -> None:
    # one immutable budget per (N, epsilon) key; a key of another type
    # gets its own budget, and a refused epsilon is refused every time
    eb = idf.ErrorBudget.from_epsilon(8, "1/1000")
    assert idf.ErrorBudget.from_epsilon(8, "1/1000") is eb
    assert idf.ErrorBudget.from_epsilon(8, Fraction(1, 1000)) == eb
    assert idf.ErrorBudget.from_epsilon(8, Fraction(1, 1000)) is not eb
    assert idf.ErrorBudget.from_epsilon(True, Fraction(1, 2)).num_bits is True
    assert idf.ErrorBudget.from_epsilon(1, Fraction(1, 2)).num_bits is not True
    with pytest.raises(dataclasses.FrozenInstanceError):
        eb.max_periods = 1
    for _ in range(2):
        with pytest.raises(ValueError, match="0 < epsilon < 1"):
            idf.ErrorBudget.from_epsilon(8, 1)


# --------------------------------------------------------- identification


def _hidden_trace(seed: int, num_bits: int, periods: int, bits: int, shifted: bool = True):
    refs = rtw.build_reference_system(seed, num_bits, periods)
    w = alg.ProductString(num_bits, bits)
    return sig.trace_product(refs, w, shifted=shifted), refs, w


def test_identify_recovers_known_string() -> None:
    for seed in range(12):
        for bits in (0, 3, 5, 7):
            unknown, refs, w = _hidden_trace(seed, 3, 9, bits)
            res = idf.tsinbl_identify(unknown, refs, max_periods=8)
            if res.complete:
                assert res.product_string() == w
            else:
                # bits that did decide must still be right
                for bit, letter in res.decided.items():
                    assert letter == w.value(bit)


def test_identification_result_is_compact() -> None:
    # slotted result; decided reads as a {bit: letter} mapping in bit order
    for seed in range(6):
        unknown, refs, w = _hidden_trace(seed, 5, 4, 0b10110)
        res = idf.tsinbl_identify(unknown, refs, max_periods=3)
        assert not hasattr(res, "__dict__")
        expect = {r: w.value(r) for r in range(1, 6) if r not in res.undecided}
        assert res.decided == expect and dict(res.decided) == expect
        assert list(res.decided) == sorted(expect)
        assert len(res.decided) == len(expect)
        assert repr(res.decided) == repr(dict(sorted(expect.items())))
        for bad in (0, 6, "1", *res.undecided):
            assert bad not in res.decided
            with pytest.raises(KeyError):
                res.decided[bad]
        if res.complete:
            assert res.undecided == frozenset()
        # decided and undecided partition 1..N
        assert set(res.decided) | res.undecided == set(range(1, 6))
        assert not set(res.decided) & res.undecided
    # two masks in ProductString order: known bits, and those decided H
    res = idf.IdentificationResult(4, 0b1011, 0b0010, 2, 9)
    assert res.decided == {1: "L", 3: "H", 4: "L"}
    assert res.undecided == {2} and not res.complete
    full = idf.IdentificationResult(4, 0b1111, 0b0110, 2, 9)
    assert full.complete and full.undecided == frozenset()
    assert full.product_string() == alg.ProductString.from_letters("LHHL")
    for known, high in ((16, 0), (-1, 0), (0b0011, 0b0100), (0b0011, -1)):
        with pytest.raises(ValueError):
            idf.IdentificationResult(4, known, high, 2, 9)


def test_identify_single_bit_decision_rule() -> None:
    # find a seed whose L1 reference flips in period 1, then check both
    # hidden values by hand: the unknown flips with it only when L1 is a factor
    l1 = rtw.stream_index(1, rtw.ROLE_B)
    seed = next(
        s
        for s in range(1000)
        if rtw.build_reference_system(s, 1, 4).signs[l1, 1]
        != rtw.build_reference_system(s, 1, 4).signs[l1, 0]
    )
    for bits, letter in ((0, "L"), (1, "H")):
        unknown, refs, w = _hidden_trace(seed, 1, 4, bits)
        res = idf.tsinbl_identify(unknown, refs, max_periods=3)
        assert res.decided[1] == letter
        assert res.periods_used == 1
        assert res.complete


def test_identify_reports_undecided_bit() -> None:
    # a bit stays open when neither of its streams flips inside the window
    def quiet(s: int, m: int) -> bool:
        refs = rtw.build_reference_system(s, 2, m + 2)
        return all(
            refs.signs[slot, k] == refs.signs[slot, 0]
            for slot in (rtw.stream_index(1, rtw.ROLE_A), rtw.stream_index(1, rtw.ROLE_B))
            for k in range(1, m + 1)
        )

    m = 2
    seed = next(s for s in range(5000) if quiet(s, m))
    unknown, refs, w = _hidden_trace(seed, 2, m + 2, 0b10)
    res = idf.tsinbl_identify(unknown, refs, max_periods=m)
    assert 1 in res.undecided
    assert not res.complete
    with pytest.raises(ValueError):
        res.product_string()


def test_identify_is_lambda_agnostic() -> None:
    for seed in range(10):
        base = None
        for lam in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            refs = rtw.build_reference_system(seed, 4, 8, lam=lam)
            w = alg.ProductString(4, 0b0110)
            res = idf.tsinbl_identify(sig.trace_product(refs, w, shifted=True), refs, 6)
            key = (dict(res.decided), set(res.undecided), res.periods_used, res.ticks_observed)
            if base is None:
                base = key
            assert key == base


def test_identify_budget_accounting() -> None:
    unknown, refs, w = _hidden_trace(4, 5, 12, 0b10101)
    res = idf.tsinbl_identify(unknown, refs, max_periods=10)
    spp = refs.grid.subclocks_per_period
    assert 1 <= res.periods_used <= 10
    assert 1 <= res.ticks_observed <= 10 * spp
    if res.complete:
        # observation stops at the tick of the last decision
        assert res.ticks_observed <= res.periods_used * spp


def test_identify_input_validation() -> None:
    unknown, refs, _ = _hidden_trace(4, 3, 5, 2, shifted=False)
    with pytest.raises(ValueError):
        idf.tsinbl_identify(unknown, refs, max_periods=3)
    short, refs2, _ = _hidden_trace(4, 3, 3, 2)
    with pytest.raises(ValueError):
        idf.tsinbl_identify(short, refs2, max_periods=4)
    other = rtw.build_reference_system(4, 4, 5)
    tr = sig.trace_product(other, alg.ProductString(4, 1), shifted=True)
    with pytest.raises(ValueError):
        idf.tsinbl_identify(tr, refs, max_periods=3)
    long, _, _ = _hidden_trace(4, 3, 6, 2)
    with pytest.raises(ValueError, match="reference system too short: need 5 periods, got 3"):
        idf.tsinbl_identify(long, refs2, max_periods=4)


def test_identification_result_json() -> None:
    unknown, refs, w = _hidden_trace(1, 2, 8, 0b01)
    res = idf.tsinbl_identify(unknown, refs, max_periods=6)
    d = res.to_json_dict()
    assert set(d) == {"decided", "undecided", "periods_used", "ticks"}
    assert all(isinstance(k, str) for k in d["decided"])


def test_exact_trial_helper_agrees_with_direct_path() -> None:
    # the experiment helper must be the same computation as building the
    # hidden trace and identifying it by hand
    for index in range(15):
        ts = trial_master_seed(3, index)
        bits = hidden_bits_for(ts, 4)
        hidden, res = identification_trial_exact(3, index, 4, 5)
        unknown, refs, w = _hidden_trace(ts, 4, 6, bits)
        assert hidden == w
        direct = idf.tsinbl_identify(unknown, refs, max_periods=5)
        assert res == direct


def _sign_of(value: Fraction) -> int:
    return (value.numerator > 0) - (value.numerator < 0)


def _per_tick_identify(unknown: sig.SignalTrace, refs: rtw.ReferenceSystem, max_periods: int):
    """The reference scan: every tick of the window in order, written out literally."""
    spp = refs.grid.subclocks_per_period
    start = spp  # first tick of period 1
    end = start + max_periods * spp
    signs = refs.signs[:, : max_periods + 1].tolist()
    decided: dict[int, str] = {}
    prev_sign = _sign_of(unknown.samples[start - 1])
    last_decision_tick = start - 1
    ticks_seen = 0
    for tick in range(start, end):
        ticks_seen += 1
        slot = tick % spp  # the one stream switching now: bit slot // 2 + 1
        period = tick // spp  # switching instant of `period`'s sign for this stream
        cur_sign = _sign_of(unknown.samples[tick])
        unknown_flipped = cur_sign != prev_sign
        prev_sign = cur_sign
        if signs[slot][period] == signs[slot][period - 1]:
            continue  # reference kept its sign: no information on this bit
        # the flipping reference carries H (odd slot, role A) or L (even
        # slot, role B); the unknown follows it iff it is one of its factors
        carried = rtw.VALUE_H if slot % 2 else rtw.VALUE_L
        inverse = rtw.VALUE_L if carried == rtw.VALUE_H else rtw.VALUE_H
        value = carried if unknown_flipped else inverse
        bit = slot // 2 + 1
        seen = decided.get(bit)
        if seen is None:
            decided[bit] = value
            last_decision_tick = tick
            if len(decided) == refs.num_bits:
                ticks_seen = tick - start + 1
                break
        elif seen != value:
            # cannot happen on a noiseless product trace
            raise AssertionError(
                f"contradictory decision for bit {bit}: {seen} then {value}"
            )
    if len(decided) == refs.num_bits:
        periods_used = last_decision_tick // spp
    else:
        periods_used = max_periods
        ticks_seen = end - start
    undecided = frozenset(range(1, refs.num_bits + 1)) - set(decided)
    return decided, undecided, periods_used, ticks_seen


def _assert_scans_agree(unknown: sig.SignalTrace, refs: rtw.ReferenceSystem, m: int) -> None:
    # the same result fields, or the same AssertionError message
    try:
        expect = _per_tick_identify(unknown, refs, m)
    except AssertionError as err:
        with pytest.raises(AssertionError) as raised:
            idf.tsinbl_identify(unknown, refs, m)
        assert str(raised.value) == str(err)
        return
    res = idf.tsinbl_identify(unknown, refs, m)
    assert res.num_bits == refs.num_bits
    assert (dict(res.decided), res.undecided, res.periods_used, res.ticks_observed) == expect


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    num_bits=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=6),
    lam=st.sampled_from((Fraction(1), Fraction(1, 2))),
    data=st.data(),
)
def test_identify_scans_only_reference_flips(seed, num_bits, m, lam, data) -> None:
    # the scanner visits the flip ticks only; it must read as the tick-by-tick scan
    refs = rtw.build_reference_system(seed, num_bits, m + 1, lam=lam)
    bits = data.draw(st.integers(min_value=0, max_value=2**num_bits - 1))
    unknown = sig.trace_product(refs, alg.ProductString(num_bits, bits), shifted=True)
    _assert_scans_agree(unknown, refs, m)
    if m > 1:
        _assert_scans_agree(unknown, refs, m - 1)  # a window shorter than the trace


def test_identify_scan_on_contradicting_and_zero_traces() -> None:
    # a hand-made trace that contradicts itself: L_1 (slot 0) flips at
    # ticks 4 and 8, and the unknown follows the first flip only; bit 2's
    # streams never flip, so the scan does not stop before tick 8
    grid = rtw.ClockGrid(2, 4)
    signs = np.ones((4, 4), dtype=np.int8)
    signs[0] = [1, -1, 1, 1]
    refs = rtw.ReferenceSystem(grid, Fraction(1), 0, signs)
    samples = [Fraction(1)] * 4 + [Fraction(-1)] * 12
    unknown = sig.SignalTrace(grid, True, tuple(samples))
    with pytest.raises(AssertionError, match="^contradictory decision for bit 1: L then H$"):
        _per_tick_identify(unknown, refs, 3)
    _assert_scans_agree(unknown, refs, 3)
    # at lambda = 1 a uniform superposition is zero whenever a bit's two
    # carriers disagree, so its trace flips to and from zero
    zeros = 0
    for seed in range(40):
        refs = rtw.build_reference_system(seed, 3, 5, lam=1)
        unknown = sig.trace_superposition(refs, alg.uniform_superposition(3), shifted=True)
        zeros += unknown.samples.count(0)
        for m in (1, 4):
            _assert_scans_agree(unknown, refs, m)
    assert zeros > 0


# --------------------------------------------------------------- baseline


def test_baseline_verify_accepts_the_hidden_string() -> None:
    unknown, refs, w = _hidden_trace(8, 3, 20, 0b011, shifted=False)
    res = idf.baseline_verify(unknown, w, refs, max_periods=20)
    assert res.matched
    assert res.mismatch_period is None
    assert res.periods_checked == 20


def test_baseline_verify_rejects_at_first_mismatch() -> None:
    unknown, refs, w = _hidden_trace(8, 3, 20, 0b011, shifted=False)
    wrong = w.with_bit_flipped(2)
    res = idf.baseline_verify(unknown, wrong, refs, max_periods=20)
    assert not res.matched
    assert res.mismatch_period is not None
    assert res.periods_checked == res.mismatch_period + 1
    # readouts really differ at the reported period and nowhere earlier
    a = sig.readout(unknown)
    b = sig.product_readouts(refs, wrong)
    assert a[res.mismatch_period] != b[res.mismatch_period]
    assert a[: res.mismatch_period] == b[: res.mismatch_period]


def test_baseline_verify_requires_unshifted() -> None:
    unknown, refs, w = _hidden_trace(8, 3, 20, 0b011, shifted=True)
    with pytest.raises(ValueError):
        idf.baseline_verify(unknown, w, refs, max_periods=10)


def test_baseline_search_worst_case_is_last_candidate() -> None:
    # all-H sits at catalog position 2^N, so the scan pays the full sweep
    unknown, refs, w = _hidden_trace(6, 3, 40, 0b111, shifted=False)
    res = idf.baseline_search(unknown, refs, epsilon=Fraction(1, 10**6))
    assert res.found == w
    assert res.tests_performed == 8
    assert res.periods_per_test == idf.verification_periods(Fraction(1, 10**6))


def test_baseline_search_finds_each_candidate() -> None:
    for bits in range(8):
        unknown, refs, w = _hidden_trace(17, 3, 40, bits, shifted=False)
        res = idf.baseline_search(unknown, refs, epsilon=Fraction(1, 10**6))
        assert res.found == w
        assert res.tests_performed == bits + 1


def test_baseline_search_cap() -> None:
    n = idf.DEFAULT_SEARCH_CAP + 1
    unknown, refs, w = _hidden_trace(2, n, 1, 1, shifted=False)
    with pytest.raises(ValueError, match=f"cap of {idf.DEFAULT_SEARCH_CAP}"):
        idf.baseline_search(unknown, refs, epsilon="1/100")
