"""Time-shifted identification and the per-candidate verification baseline."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import identify as idf
from rtwlogic import rtw
from rtwlogic import signal as sig
from rtwlogic.experiments import hidden_bits_for, identification_trial_exact, trial_master_seed

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
