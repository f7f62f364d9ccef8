"""Reference streams and the sub-clock grid."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import rng, rtw


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
    # row s of the sign matrix is the stream that owns (and switches in) slot s
    refs = rtw.build_reference_system(1, 3, 4)
    assert refs.signs.shape == (6, 4)
    slots = [
        (bit, role, rtw.stream_index(bit, role))
        for bit in range(1, 4)
        for role in (rtw.ROLE_B, rtw.ROLE_A)
    ]
    assert slots == [
        (1, "B", 0), (1, "A", 1),
        (2, "B", 2), (2, "A", 3),
        (3, "B", 4), (3, "A", 5),
    ]
    for bit, role, slot in slots:
        assert refs.signs[slot].tolist() == [rng.sign_at(1, slot, k) for k in range(4)]


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
    # one stream's signs are a pure function of (seed, stream) and are +-1
    slot = rtw.stream_index(2, rtw.ROLE_A)
    a = rtw.build_reference_system(9, 2, 50).signs[slot]
    b = rtw.build_reference_system(9, 2, 50).signs[slot]
    assert (a == b).all()
    assert set(a.tolist()) <= {-1, 1}
    assert len(a) == 50


def test_value_at_unshifted_is_period_sign() -> None:
    refs = rtw.build_reference_system(4, 3, 5)
    slot = rtw.stream_index(2, rtw.ROLE_B)
    signs = refs.signs[slot]
    for t, column in enumerate(refs.columns(shifted=False)):
        assert column[slot] == signs[t // 6]
    assert t == refs.grid.num_ticks - 1


def test_value_at_shifted_switch_times() -> None:
    # period k's sign is adopted at tick k*2N + shift and held for 2N ticks;
    # ticks before the first switch replay signs[0]
    refs = rtw.build_reference_system(4, 3, 5)
    shift = rtw.stream_index(3, rtw.ROLE_A)
    assert shift == 5
    signs = refs.signs[shift]
    for t, column in enumerate(refs.columns(shifted=True)):
        if t < shift:
            expect = signs[0]
        else:
            expect = signs[(t - shift) // 6]
        assert column[shift] == expect
    assert t == refs.grid.num_ticks - 1


def test_shifted_changes_only_in_own_slot() -> None:
    refs = rtw.build_reference_system(7, 4, 30)
    g = refs.grid
    spp = g.subclocks_per_period
    columns = list(refs.columns(shifted=True))
    for slot in range(spp):
        prev = columns[0][slot]
        for t in range(1, g.num_ticks):
            cur = columns[t][slot]
            if cur != prev:
                assert t % spp == slot
            prev = cur


def test_at_most_one_switch_per_tick() -> None:
    refs = rtw.build_reference_system(5, 5, 20)
    g = refs.grid
    columns = list(refs.columns(shifted=True))
    assert len(columns) == g.num_ticks
    for t in range(1, g.num_ticks):
        changed = [
            j for j in range(g.subclocks_per_period) if columns[t][j] != columns[t - 1][j]
        ]
        assert len(changed) <= 1


def test_readout_window_carries_period_signs() -> None:
    # by the last sub-clock of period k every shifted stream has switched to
    # its period-k sign, so shifted and unshifted readouts agree for k >= 0
    refs = rtw.build_reference_system(11, 4, 25)
    g = refs.grid
    shifted = list(refs.columns(shifted=True))
    unshifted = list(refs.columns(shifted=False))
    for k in range(g.num_periods):
        t = g.readout_tick(k)
        period = tuple(refs.signs[:, k].tolist())
        assert shifted[t] == period
        assert unshifted[t] == period


def test_period_signs_match_streams() -> None:
    refs = rtw.build_reference_system(3, 3, 10)
    for k in (0, 4, 9):
        table = refs.period_signs(k)
        assert len(table) == 6
        for bit in range(1, 4):
            for role in (rtw.ROLE_A, rtw.ROLE_B):
                assert table[(bit, role)] == refs.signs[rtw.stream_index(bit, role), k]


def _value_at(signs: np.ndarray, slot: int, tick: int, spp: int, shifted: bool) -> int:
    """Literal switching schedule: slot s adopts its period-k sign at tick k*2N + s."""
    if not shifted:
        return int(signs[slot, tick // spp])
    return int(signs[slot, max(tick - slot, 0) // spp])  # ticks before s replay period 0


def test_columns_read_value_at() -> None:
    # columns(shifted)[t][slot] is the slot's stream value at tick t, checked
    # against the literal schedule in both modes, period-0 warm-up included
    cases = [(13, 3, 7)] + [
        (seed, n, p)
        for seed in (0, 1, -5, 2**70 + 3)
        for n in (1, 2, 3)
        for p in (1, 2, 5)
    ]
    for seed, n, p in cases:
        refs = rtw.build_reference_system(seed, n, p)
        g = refs.grid
        spp = g.subclocks_per_period
        for shifted in (False, True):
            columns = list(refs.columns(shifted))
            assert len(columns) == g.num_ticks
            for t, column in enumerate(columns):
                assert column == tuple(
                    _value_at(refs.signs, s, t, spp, shifted) for s in range(spp)
                )


def test_signs_are_one_read_only_sign_matrix() -> None:
    for seed in (7, -5, 2**64 - 1, 2**70 + 3):
        refs = rtw.build_reference_system(seed, 3, 9)
        assert refs.signs.dtype == np.int8
        assert (refs.signs == rng.sign_matrix(seed, 6, 9)).all()
        for s, k in ((0, 0), (1, 8), (4, 3), (5, 5), (2, 7)):
            assert refs.signs[s, k] == rng.sign_at(seed, s, k)
        assert not refs.signs.flags.writeable
        with pytest.raises(ValueError):
            refs.signs[0, 0] = -refs.signs[0, 0]


def test_reference_system_validates_signs() -> None:
    grid = rtw.ClockGrid(2, 3)
    good = rng.sign_matrix(4, 4, 3)
    refs = rtw.ReferenceSystem(grid, Fraction(1, 2), 4, good)
    good[0, 0] = -good[0, 0]  # the caller's array stays writeable; refs keeps a copy
    assert refs.signs[0, 0] == -good[0, 0]
    assert not refs.signs.flags.writeable
    for bad in (
        rng.sign_matrix(4, 4, 2),       # too few periods
        rng.sign_matrix(4, 2, 3),       # one stream per bit
        np.ones((4, 3, 1), np.int8),    # not a matrix
        np.zeros((4, 3), np.int8),      # zero is not a sign
        np.full((4, 3), 2),
    ):
        with pytest.raises(ValueError):
            rtw.ReferenceSystem(grid, Fraction(1, 2), 4, bad)
    with pytest.raises(ValueError):
        rtw.ReferenceSystem(grid, Fraction(0), 4, rng.sign_matrix(4, 4, 3))


def test_period_columns_match_period_signs() -> None:
    refs = rtw.build_reference_system(17, 4, 9)
    columns = list(refs.period_columns())
    assert len(columns) == refs.grid.num_periods
    for k, column in enumerate(columns):
        table = refs.period_signs(k)
        for bit in range(1, refs.num_bits + 1):
            for role in (rtw.ROLE_A, rtw.ROLE_B):
                assert column[rtw.stream_index(bit, role)] == table[(bit, role)]


def test_period_columns_chunking_invariance(monkeypatch) -> None:
    refs = rtw.build_reference_system(17, 2, 9)
    whole = [tuple(column) for column in refs.signs.T.tolist()]
    # 4 signs per column: one column per chunk, then chunks of 2 with one left
    for chunk in (5, 9):
        monkeypatch.setattr(rtw, "_COLUMNS_CHUNK", chunk)
        assert list(refs.period_columns()) == whole


def test_logic_value_scaling() -> None:
    lam = Fraction(1, 3)
    refs = rtw.build_reference_system(2, 2, 6, lam=lam)
    g = refs.grid
    columns = list(refs.columns(shifted=False))
    for t in (0, 5, 11, g.num_ticks - 1):
        for bit in (1, 2):
            h = alg.selection_evaluator([(bit, rtw.VALUE_H)], lam)(columns[t])
            l = alg.selection_evaluator([(bit, rtw.VALUE_L)], lam)(columns[t])
            a = refs.signs[rtw.stream_index(bit, rtw.ROLE_A), t // 4]
            b = refs.signs[rtw.stream_index(bit, rtw.ROLE_B), t // 4]
            assert h == a
            assert l == lam * b


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    num_bits=st.integers(min_value=1, max_value=6),
    periods=st.integers(min_value=1, max_value=12),
)
def test_readout_agreement_property(seed: int, num_bits: int, periods: int) -> None:
    refs = rtw.build_reference_system(seed, num_bits, periods)
    g = refs.grid
    shifted = list(refs.columns(shifted=True))
    unshifted = list(refs.columns(shifted=False))
    for k in range(periods):
        t = g.readout_tick(k)
        assert shifted[t] == unshifted[t]
