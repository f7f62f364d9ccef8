"""Reference streams and the sub-clock grid."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import rtw


def test_grid_layout() -> None:
    g = rtw.ClockGrid(3, 4)
    assert g.subclocks_per_period == 6
    assert g.subclock_duration == Fraction(1, 6)
    assert g.num_ticks == 24
    assert g.readout_tick(0) == 5
    assert g.readout_tick(3) == 23
    assert g.period_of(13) == 2
    assert g.scp_of(13) == 1


def test_grid_tick_bounds() -> None:
    g = rtw.ClockGrid(2, 3)
    with pytest.raises(ValueError):
        g.check_tick(-1)
    with pytest.raises(ValueError):
        g.check_tick(g.num_ticks)


def test_stream_index_slots() -> None:
    # L_r (role B) owns even slot 2(r-1); H_r (role A) the odd slot next to it
    assert rtw.stream_index(1, rtw.ROLE_B) == 0
    assert rtw.stream_index(1, rtw.ROLE_A) == 1
    assert rtw.stream_index(2, rtw.ROLE_B) == 2
    assert rtw.stream_index(5, rtw.ROLE_A) == 9


def test_reference_system_ordering_and_shifts() -> None:
    refs = rtw.build_reference_system(1, 3, 4)
    slots = [(s.bit, s.role, s.shift_index) for s in refs.streams]
    assert slots == [
        (1, "B", 0), (1, "A", 1),
        (2, "B", 2), (2, "A", 3),
        (3, "B", 4), (3, "A", 5),
    ]
    assert refs.stream(2, rtw.ROLE_B).shift_index == 2
    for j, s in enumerate(refs.streams):
        assert refs.stream_by_slot(j) is s


def test_build_validation() -> None:
    with pytest.raises(ValueError):
        rtw.build_reference_system(1, 0, 4)
    with pytest.raises(ValueError):
        rtw.build_reference_system(1, 3, 0)
    with pytest.raises(ValueError):
        rtw.build_reference_system(1, 3, 4, lam=0)
    with pytest.raises(ValueError):
        rtw.build_reference_system(1, 3, 4, lam=Fraction(3, 2))
    rtw.build_reference_system(1, 3, 4, lam=1)


def test_gen_rtw_deterministic_binary() -> None:
    a = rtw.gen_rtw(9, (2, rtw.ROLE_A), 50)
    b = rtw.gen_rtw(9, (2, rtw.ROLE_A), 50)
    assert a == b
    assert set(a.signs) <= {-1, 1}
    assert len(a.signs) == 50


def test_value_at_unshifted_is_period_sign() -> None:
    g = rtw.ClockGrid(3, 5)
    s = rtw.gen_rtw(4, (2, rtw.ROLE_B), 5)
    for t in range(g.num_ticks):
        assert rtw.value_at(s, t, g, shifted=False) == s.signs[t // 6]


def test_value_at_shifted_switch_times() -> None:
    # period k's sign is adopted at tick k*2N + shift and held for 2N ticks;
    # ticks before the first switch replay signs[0]
    g = rtw.ClockGrid(3, 5)
    s = rtw.gen_rtw(4, (3, rtw.ROLE_A), 5)
    shift = s.shift_index
    assert shift == 5
    for t in range(g.num_ticks):
        if t < shift:
            expect = s.signs[0]
        else:
            expect = s.signs[(t - shift) // 6]
        assert rtw.value_at(s, t, g, shifted=True) == expect


def test_shifted_changes_only_in_own_slot() -> None:
    refs = rtw.build_reference_system(7, 4, 30)
    g = refs.grid
    spp = g.subclocks_per_period
    for s in refs.streams:
        prev = rtw.value_at(s, 0, g, shifted=True)
        for t in range(1, g.num_ticks):
            cur = rtw.value_at(s, t, g, shifted=True)
            if cur != prev:
                assert t % spp == s.shift_index
            prev = cur


def test_at_most_one_switch_per_tick() -> None:
    refs = rtw.build_reference_system(5, 5, 20)
    g = refs.grid
    vals = {
        j: [rtw.value_at(s, t, g, shifted=True) for t in range(g.num_ticks)]
        for j, s in enumerate(refs.streams)
    }
    for t in range(1, g.num_ticks):
        changed = [j for j in vals if vals[j][t] != vals[j][t - 1]]
        assert len(changed) <= 1


def test_readout_window_carries_period_signs() -> None:
    # by the last sub-clock of period k every shifted stream has switched to
    # its period-k sign, so shifted and unshifted readouts agree for k >= 0
    refs = rtw.build_reference_system(11, 4, 25)
    g = refs.grid
    for k in range(g.num_periods):
        t = g.readout_tick(k)
        for s in refs.streams:
            assert rtw.value_at(s, t, g, shifted=True) == s.signs[k]
            assert rtw.value_at(s, t, g, shifted=False) == s.signs[k]


def test_period_signs_match_streams() -> None:
    refs = rtw.build_reference_system(3, 3, 10)
    for k in (0, 4, 9):
        table = refs.period_signs(k)
        for s in refs.streams:
            assert table[(s.bit, s.role)] == s.signs[k]


def test_columns_read_value_at() -> None:
    # columns(shifted)[t][slot] is the slot's stream value at tick t
    refs = rtw.build_reference_system(13, 3, 7)
    g = refs.grid
    for shifted in (False, True):
        columns = list(refs.columns(shifted))
        assert len(columns) == g.num_ticks
        for t, column in enumerate(columns):
            assert column == tuple(
                rtw.value_at(s, t, g, shifted=shifted) for s in refs.streams
            )


def test_period_columns_match_period_signs() -> None:
    refs = rtw.build_reference_system(17, 4, 9)
    columns = list(refs.period_columns())
    assert len(columns) == refs.grid.num_periods
    for k, column in enumerate(columns):
        table = refs.period_signs(k)
        for bit in range(1, refs.num_bits + 1):
            for role in (rtw.ROLE_A, rtw.ROLE_B):
                assert column[rtw.stream_index(bit, role)] == table[(bit, role)]


def test_logic_value_scaling() -> None:
    lam = Fraction(1, 3)
    refs = rtw.build_reference_system(2, 2, 6, lam=lam)
    g = refs.grid
    columns = list(refs.columns(shifted=False))
    for t in (0, 5, 11, g.num_ticks - 1):
        for bit in (1, 2):
            h = alg.selection_evaluator([(bit, rtw.VALUE_H)], lam)(columns[t])
            l = alg.selection_evaluator([(bit, rtw.VALUE_L)], lam)(columns[t])
            assert h == rtw.value_at(refs.stream(bit, rtw.ROLE_A), t, g, shifted=False)
            assert l == lam * rtw.value_at(refs.stream(bit, rtw.ROLE_B), t, g, shifted=False)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    num_bits=st.integers(min_value=1, max_value=6),
    periods=st.integers(min_value=1, max_value=12),
)
def test_readout_agreement_property(seed: int, num_bits: int, periods: int) -> None:
    refs = rtw.build_reference_system(seed, num_bits, periods)
    g = refs.grid
    for k in range(periods):
        t = g.readout_tick(k)
        for s in refs.streams:
            assert rtw.value_at(s, t, g, shifted=True) == rtw.value_at(s, t, g, shifted=False)
