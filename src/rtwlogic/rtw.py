"""Random telegraph wave reference systems with staggered sub-clock switching.

A system over N noise-bits carries 2N independent telegraph streams, two
per bit: role "A" carries the high value H_r and role "B" carries the low
value L_r = lambda * B_r.  Each stream draws a fresh fair sign every clock
period.  Time is integer ticks; one clock period spans 2N sub-clock
periods of duration tau = T/(2N) with T = 1.

In unshifted mode every stream switches at the period boundary.  In
shifted mode stream switching is staggered so that exactly one stream can
change per sub-clock slot: the L_r stream owns slot 2(r-1) and the H_r
stream owns slot 2(r-1)+1, and each stream adopts its period-k sign at
tick k*2N + slot, holding it for 2N ticks.  Before its first switching
instant a shifted stream holds its period-0 sign (warm-up; consumers that
need clean staggering start reading at period 1).  In the last sub-clock
slot of any period every stream has adopted that period's sign, which is
what makes the end-of-period readout well defined in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import rng

ROLE_A = "A"
ROLE_B = "B"
_ROLES = (ROLE_A, ROLE_B)

VALUE_H = "H"
VALUE_L = "L"


def stream_index(bit: int, role: str) -> int:
    """Canonical stream numbering, equal to the stream's switching slot.

    Role B (the L_r carrier) gets the even slot 2(r-1), role A (the H_r
    carrier) the odd slot 2(r-1)+1.
    """
    if bit < 1:
        raise ValueError("bit numbers are 1-based")
    if role not in _ROLES:
        raise ValueError(f"role must be one of {_ROLES}, got {role!r}")
    return 2 * (bit - 1) + (1 if role == ROLE_A else 0)


@dataclass(frozen=True)
class ClockGrid:
    """Discrete time base: num_periods clock periods of 2*num_bits ticks."""

    num_bits: int
    num_periods: int

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        if self.num_periods < 1:
            raise ValueError("num_periods must be >= 1")

    @property
    def subclocks_per_period(self) -> int:
        return 2 * self.num_bits

    @property
    def subclock_duration(self) -> Fraction:
        # period duration is fixed at T = 1
        return Fraction(1, self.subclocks_per_period)

    @property
    def num_ticks(self) -> int:
        return self.num_periods * self.subclocks_per_period

    def check_tick(self, tick: int) -> None:
        if not 0 <= tick < self.num_ticks:
            raise ValueError(f"tick {tick} outside [0, {self.num_ticks})")

    def period_of(self, tick: int) -> int:
        self.check_tick(tick)
        return tick // self.subclocks_per_period

    def scp_of(self, tick: int) -> int:
        self.check_tick(tick)
        return tick % self.subclocks_per_period

    def readout_tick(self, period: int) -> int:
        """Last tick of a period; every stream holds that period's sign there."""
        if not 0 <= period < self.num_periods:
            raise ValueError(f"period {period} outside [0, {self.num_periods})")
        return period * self.subclocks_per_period + self.subclocks_per_period - 1


@dataclass(frozen=True)
class RtwProcess:
    """One telegraph stream: a fair fresh sign per clock period.

    signs[k] is the stream's sign in period k, derived counter-style from
    (master seed, stream index); shift_index is the sub-clock slot at
    which the stream switches in shifted mode.
    """

    bit: int
    role: str
    shift_index: int
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        if self.shift_index != stream_index(self.bit, self.role):
            raise ValueError("shift_index inconsistent with (bit, role) slot")
        if not self.signs:
            raise ValueError("need at least one period of signs")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def num_periods(self) -> int:
        return len(self.signs)


def gen_rtw(master_seed: int, stream_id: tuple[int, str], num_periods: int) -> RtwProcess:
    """Materialize one stream's signs for num_periods clock periods.

    The signs are a pure function of (master_seed, stream_id); equal
    arguments always reproduce the identical process.
    """
    bit, role = stream_id
    if num_periods < 1:
        raise ValueError("num_periods must be >= 1")
    idx = stream_index(bit, role)
    signs = rng.sign_block(master_seed, idx, 0, num_periods)
    return RtwProcess(bit=bit, role=role, shift_index=idx, signs=tuple(int(s) for s in signs))


def value_at(rtw: RtwProcess, tick: int, grid: ClockGrid, shifted: bool) -> int:
    """Stream sign at an integer tick, in unshifted or shifted mode."""
    grid.check_tick(tick)
    spp = grid.subclocks_per_period
    if not shifted:
        return rtw.signs[tick // spp]
    if tick < rtw.shift_index:
        return rtw.signs[0]  # warm-up before the first switching instant
    return rtw.signs[(tick - rtw.shift_index) // spp]


@dataclass(frozen=True)
class ReferenceSystem:
    """2N telegraph streams over a shared grid, plus the low-value scale lambda.

    Streams are ordered by switching slot, so streams[s] is the stream
    that owns sub-clock slot s.  H_r is the role-A stream's sign; L_r is
    lambda times the role-B stream's sign.
    """

    grid: ClockGrid
    lam: Fraction
    master_seed: int
    streams: tuple[RtwProcess, ...]

    def __post_init__(self) -> None:
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must satisfy 0 < lambda <= 1")
        if len(self.streams) != 2 * self.grid.num_bits:
            raise ValueError("need exactly two streams per bit")
        for slot, proc in enumerate(self.streams):
            if proc.shift_index != slot:
                raise ValueError("streams must be ordered by switching slot")
            if proc.num_periods != self.grid.num_periods:
                raise ValueError("stream length disagrees with grid")

    @property
    def num_bits(self) -> int:
        return self.grid.num_bits

    def stream(self, bit: int, role: str) -> RtwProcess:
        return self.streams[stream_index(bit, role)]

    def stream_by_slot(self, slot: int) -> RtwProcess:
        return self.streams[slot]

    def columns(self, shifted: bool) -> Iterator[tuple[int, ...]]:
        """Slot-ordered sign column (B_1, A_1, ..., B_N, A_N) of each tick, in order."""
        for tick in range(self.grid.num_ticks):
            yield tuple(value_at(proc, tick, self.grid, shifted) for proc in self.streams)

    def period_columns(self) -> Iterator[tuple[int, ...]]:
        """Slot-ordered sign column of each clock period (the readout window's)."""
        return zip(*(proc.signs for proc in self.streams))

    def period_signs(self, period: int) -> dict[tuple[int, str], int]:
        """{(bit, role): sign} for one clock period, for symbolic evaluation."""
        if not 0 <= period < self.grid.num_periods:
            raise ValueError("period out of range")
        return {
            (proc.bit, proc.role): proc.signs[period]
            for proc in self.streams
        }


def build_reference_system(
    master_seed: int,
    num_bits: int,
    num_periods: int,
    lam: Fraction | int | str = Fraction(1, 2),
) -> ReferenceSystem:
    """Assemble the 2*num_bits streams of one reference system.

    lam is stored exactly; pass a Fraction or a "p/q" string.  lam = 1
    reproduces the legacy equal-amplitude representation.
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("lambda must satisfy 0 < lambda <= 1")
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    grid = ClockGrid(num_bits=num_bits, num_periods=num_periods)
    streams = []
    for bit in range(1, num_bits + 1):
        streams.append(gen_rtw(master_seed, (bit, ROLE_B), num_periods))
        streams.append(gen_rtw(master_seed, (bit, ROLE_A), num_periods))
    return ReferenceSystem(grid=grid, lam=lam, master_seed=master_seed, streams=tuple(streams))
