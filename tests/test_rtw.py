"""Reference streams and the sub-clock grid."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwlogic import algebra as alg
from rtwlogic import experiments as exp
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


def test_one_lambda_rule() -> None:
    # every entry point refuses through rtw.check_lambda, with its message
    grid = rtw.ClockGrid(1, 1)
    signs = np.ones((2, 1), dtype=np.int8)
    entry_points = (
        rtw.check_lambda,
        lambda lam: rtw.build_reference_system(1, 1, 1, lam),
        lambda lam: rtw.ReferenceSystem(grid, lam, 1, signs),
        lambda lam: alg.evaluator(alg.uniform_superposition(1), lam),
        lambda lam: alg.apply_not(alg.uniform_superposition(1), 1, lam),
        lambda lam: exp.amplitude_range_experiment(2, lam),
    )

    class Sub(Fraction):
        pass

    tiny = Fraction(1, 10**30)
    big = 10**40
    # the bounds, values just inside and outside them, floats, bools,
    # strings, a Fraction subclass and large ints
    accept = (
        1, tiny, 1 - tiny, Fraction(big, big + 1), 0.5, 1.0, 5e-324, True,
        "1/2", "1", " 0.999 ", Sub(1, 2), Sub(1),
    )
    refuse = (
        0, Fraction(3, 2), "-1/2", -tiny, 1 + tiny, Fraction(big + 1, big), 0.0, -0.0,
        -0.5, 1.0000000000000002, False, "0", "3/2", "1.0000001", Sub(3, 2), Sub(0),
        big, -big,
    )
    for lam in accept:
        got = rtw.check_lambda(lam)
        assert type(got) is Fraction and got == Fraction(lam) and 0 < got <= 1
    for lam in refuse:
        assert not 0 < Fraction(lam) <= 1
        for call in entry_points:
            with pytest.raises(ValueError, match="lambda must satisfy 0 < lambda <= 1"):
                call(lam)
    half = Fraction(1, 2)
    assert rtw.check_lambda(half) is half
    assert rtw.check_lambda("1/2") == Fraction(1, 2)
    assert rtw.ReferenceSystem(grid, "1/2", 1, signs).lam == Fraction(1, 2)


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
    for t, column in enumerate(literal_columns(refs, shifted=False)):
        assert column[slot] == signs[t // 6]
    assert t == refs.grid.num_ticks - 1


def test_value_at_shifted_switch_times() -> None:
    # period k's sign is adopted at tick k*2N + shift and held for 2N ticks;
    # ticks before the first switch replay signs[0]
    refs = rtw.build_reference_system(4, 3, 5)
    shift = rtw.stream_index(3, rtw.ROLE_A)
    assert shift == 5
    signs = refs.signs[shift]
    for t, column in enumerate(literal_columns(refs, shifted=True)):
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
    columns = literal_columns(refs, shifted=True)
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
    columns = literal_columns(refs, shifted=True)
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
    shifted = literal_columns(refs, shifted=True)
    unshifted = literal_columns(refs, shifted=False)
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
        # a plain dict with the keys in slot order, as this dictcomp builds it
        literal = {
            (slot // 2 + 1, rtw.ROLE_A if slot % 2 else rtw.ROLE_B): sign
            for slot, sign in enumerate(refs.signs[:, k].tolist())
        }
        assert type(table) is dict
        assert list(table.items()) == list(literal.items())
    # the key table owns slot order: one shared tuple per bit count
    for n in (1, 3, 70):
        keys = rtw.slot_keys(n)
        assert keys is rtw.slot_keys(n)
        assert [rtw.stream_index(*key) for key in keys] == list(range(2 * n))
    with pytest.raises(ValueError):
        rtw.slot_keys(0)
    with pytest.raises(ValueError):
        refs.period_signs(10)


def _value_at(signs: np.ndarray, slot: int, tick: int, spp: int, shifted: bool) -> int:
    """Literal switching schedule: slot s adopts its period-k sign at tick k*2N + s."""
    if not shifted:
        return int(signs[slot, tick // spp])
    return int(signs[slot, max(tick - slot, 0) // spp])  # ticks before s replay period 0


def literal_columns(refs: rtw.ReferenceSystem, shifted: bool) -> list[tuple[int, ...]]:
    """Each tick's slot-ordered sign column (B_1, A_1, ..., B_N, A_N), sign by sign.

    The column oracle of the tests: every sign is read from `_value_at`,
    never from `switch_ticks` or another schedule reader of the package.
    """
    spp = refs.grid.subclocks_per_period
    return [
        tuple(_value_at(refs.signs, s, t, spp, shifted) for s in range(spp))
        for t in range(refs.grid.num_ticks)
    ]


def _literal_state(column: tuple[int, ...], groups: list[int]) -> list[int]:
    """(parity of the -1 A signs, agreeing bits of each group) of one column."""
    state = [sum(a < 0 for a in column[1::2]) % 2] + [0] * (max(groups) + 1)
    for g, b, a in zip(groups, column[::2], column[1::2]):
        state[1 + g] += b == a
    return state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    num_bits=st.integers(min_value=1, max_value=8),
    num_periods=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_agreement_runs_read_value_at(seed, num_bits, num_periods, data) -> None:
    # every tick's state is its literal column's, period-0 warm-up included;
    # runs start at every period unshifted, and shifted at tick 0 and at
    # every tick whose column differs from the one before
    refs = rtw.build_reference_system(seed, num_bits, num_periods)
    g = st.integers(min_value=0, max_value=num_bits - 1)
    groups = data.draw(st.lists(g, min_size=num_bits, max_size=num_bits))
    spp = refs.grid.subclocks_per_period
    for shifted in (False, True):
        columns = literal_columns(refs, shifted)
        runs = list(refs.agreement_runs(groups, shifted))
        if shifted:
            starts = [0] + [t for t in range(1, len(columns)) if columns[t] != columns[t - 1]]
        else:
            starts = list(range(0, len(columns), spp))
        assert [tick for tick, _ in runs] == starts
        ends = starts[1:] + [len(columns)]
        for (start, state), end in zip(runs, ends):
            for column in columns[start:end]:
                assert list(state) == _literal_state(column, groups)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    num_bits=st.integers(min_value=1, max_value=8),
    num_periods=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_switch_ticks_follow_the_literal_schedule(seed, num_bits, num_periods, data) -> None:
    # tick k*2N + s for every k >= 1 whose sign in slot s differs from
    # period k-1's, in tick order; a one-period system switches nothing
    refs = rtw.build_reference_system(seed, num_bits, num_periods)
    spp = refs.grid.subclocks_per_period
    signs = refs.signs.tolist()
    for m in (num_periods, data.draw(st.integers(min_value=0, max_value=num_periods))):
        expect = [
            k * spp + s
            for k in range(1, m)
            for s in range(spp)
            if signs[s][k] != signs[s][k - 1]
        ]
        assert refs.switch_ticks(m).tolist() == expect
    assert rtw.build_reference_system(seed, num_bits, 1).switch_ticks(1).size == 0
    for bad in (-1, num_periods + 1):
        with pytest.raises(ValueError):
            refs.switch_ticks(bad)


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
    columns = literal_columns(refs, shifted=False)
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
    shifted = literal_columns(refs, shifted=True)
    unshifted = literal_columns(refs, shifted=False)
    for k in range(periods):
        t = g.readout_tick(k)
        assert shifted[t] == unshifted[t]
