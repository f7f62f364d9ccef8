"""Waveform traces: products, superpositions, readout windows, CSV export."""

from __future__ import annotations

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import rtw
from rtwlogic import signal as sig


def _refs(seed: int = 5, n: int = 3, periods: int = 8, lam=Fraction(1, 2)):
    return rtw.build_reference_system(seed, n, periods, lam=lam)


def test_trace_product_magnitude_counts_l_factors() -> None:
    refs = _refs()
    lam = refs.lam
    for letters, n_l in (("HHH", 0), ("LHH", 1), ("LLH", 2), ("LLL", 3)):
        tr = sig.trace_product(refs, alg.ProductString.from_letters(letters))
        assert all(abs(v) == lam**n_l for v in tr.samples)


def test_trace_selection_supports_repeats() -> None:
    # picking both carriers of one bit yields the inverter waveform lam*A*B
    refs = _refs()
    tr = sig.trace_selection(refs, [(2, "H"), (2, "L")], shifted=True)
    g = refs.grid
    a = rtw.stream_index(2, rtw.ROLE_A)
    b = rtw.stream_index(2, rtw.ROLE_B)
    columns = list(refs.columns(shifted=True))
    assert len(columns) == g.num_ticks
    for t in range(g.num_ticks):
        expect = refs.lam * columns[t][a] * columns[t][b]
        assert tr.samples[t] == expect


def test_trace_selection_rejects_unknown_bit() -> None:
    refs = _refs()
    with pytest.raises(ValueError):
        sig.trace_selection(refs, [(4, "H")])
    with pytest.raises(ValueError):
        sig.trace_selection(refs, [(1, "X")])


def test_readout_samples_last_subclock() -> None:
    refs = _refs()
    tr = sig.trace_product(refs, alg.ProductString.from_letters("HLH"), shifted=True)
    outs = sig.readout(tr)
    g = refs.grid
    assert len(outs) == g.num_periods
    spp = g.subclocks_per_period
    for k, v in enumerate(outs):
        assert v == tr.samples[k * spp + spp - 1]


def test_shifted_and_unshifted_readouts_agree() -> None:
    refs = _refs(seed=31, n=4, periods=10)
    w = alg.ProductString.from_letters("HLLH")
    plain = sig.readout(sig.trace_product(refs, w, shifted=False))
    shifted = sig.readout(sig.trace_product(refs, w, shifted=True))
    assert plain == shifted


def test_readout_matches_symbolic_oracle() -> None:
    # readout per period must equal the exact algebra evaluated at that
    # period's signs, for products and for the uniform superposition
    refs = _refs(seed=12, n=4, periods=6)
    u = alg.uniform_superposition(4)
    w = alg.ProductString.from_letters("LHLH")
    for shifted in (False, True):
        tr_w = sig.trace_product(refs, w, shifted=shifted)
        tr_u = sig.trace_superposition(refs, u, shifted=shifted)
        for k, (vw, vu) in enumerate(zip(sig.readout(tr_w), sig.readout(tr_u))):
            signs = refs.period_signs(k)
            assert vw == alg.evaluate_product(w, signs, refs.lam)
            assert vu == alg.evaluate_symbolic(u, signs, refs.lam)


def test_fast_readout_paths_match_traces() -> None:
    refs = _refs(seed=77, n=3, periods=20)
    w = alg.ProductString.from_letters("HLL")
    assert sig.product_readouts(refs, w) == sig.readout(sig.trace_product(refs, w))
    u = alg.uniform_superposition(3)
    assert sig.superposition_readouts(refs, u) == sig.readout(
        sig.trace_superposition(refs, u)
    )


def test_trace_multiplicativity_over_disjoint_picks() -> None:
    refs = _refs(seed=9, n=4, periods=5)
    for shifted in (False, True):
        t1 = sig.trace_selection(refs, [(1, "H"), (3, "L")], shifted=shifted)
        t2 = sig.trace_selection(refs, [(2, "L"), (4, "H")], shifted=shifted)
        joint = sig.trace_selection(
            refs, [(1, "H"), (2, "L"), (3, "L"), (4, "H")], shifted=shifted
        )
        assert sig.multiply_traces(t1, t2) == joint


def test_multiply_traces_rejects_mixed_modes() -> None:
    refs = _refs()
    a = sig.trace_product(refs, alg.ProductString.from_letters("HHH"), shifted=True)
    b = sig.trace_product(refs, alg.ProductString.from_letters("HHH"), shifted=False)
    with pytest.raises(ValueError):
        sig.multiply_traces(a, b)


def test_shifted_product_changes_only_at_factor_slots() -> None:
    refs = _refs(seed=21, n=4, periods=12)
    w = alg.ProductString.from_letters("HLHL")
    own_slots = set()
    for bit in range(1, 5):
        role = rtw.ROLE_A if w.value(bit) == "H" else rtw.ROLE_B
        own_slots.add(rtw.stream_index(bit, role))
    tr = sig.trace_product(refs, w, shifted=True)
    spp = refs.grid.subclocks_per_period
    for t in range(1, refs.grid.num_ticks):
        if tr.samples[t] != tr.samples[t - 1]:
            assert t % spp in own_slots


def test_superposition_trace_equals_expanded_sum() -> None:
    refs = _refs(seed=3, n=3, periods=4)
    f = alg.FactoredSuperposition(
        3,
        c_h=(Fraction(1), Fraction(-1, 2), Fraction(2)),
        c_l=(Fraction(1, 3), Fraction(1), Fraction(0)),
    )
    e = alg.expand(f)
    for shifted in (False, True):
        tr = sig.trace_superposition(refs, f, shifted=shifted)
        parts = [
            (c, sig.trace_product(refs, w, shifted=shifted)) for w, c in e.items()
        ]
        for t in range(refs.grid.num_ticks):
            assert tr.samples[t] == sum(c * p.samples[t] for c, p in parts)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=5),
    index=st.integers(min_value=1, max_value=32),
)
def test_product_readout_oracle_property(seed: int, n: int, index: int) -> None:
    refs = rtw.build_reference_system(seed, n, 4)
    w = alg.ProductString.from_index((index - 1) % 2**n + 1, num_bits=n)
    outs = sig.product_readouts(refs, w)
    for k, v in enumerate(outs):
        assert v == alg.evaluate_product(w, refs.period_signs(k), refs.lam)


def test_write_trace_csv_fraction_style() -> None:
    refs = _refs(seed=5, n=2, periods=2)
    tr = sig.trace_product(refs, alg.ProductString.from_letters("LL"))
    buf = io.StringIO()
    sig.write_trace_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tick,period,scp,amplitude"
    assert len(lines) == 1 + refs.grid.num_ticks
    tick, period, scp, amp = lines[1].split(",")
    assert (tick, period, scp) == ("0", "0", "0")
    assert Fraction(amp) == tr.samples[0]


def test_write_trace_csv_decimal_style() -> None:
    refs = _refs(seed=5, n=2, periods=2, lam=Fraction(1, 4))
    tr = sig.trace_product(refs, alg.ProductString.from_letters("LL"))
    buf = io.StringIO()
    sig.write_trace_csv(tr, buf, style="decimal")
    body = buf.getvalue().splitlines()[1:]
    # lam^2 = 1/16 renders as an exact decimal
    assert all(line.endswith("0.0625") or line.endswith("-0.0625") for line in body)
    with pytest.raises(ValueError):
        sig.write_trace_csv(tr, io.StringIO(), style="engineering")
