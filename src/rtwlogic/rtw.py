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

A reference system stores all its signs as one read-only (2N, periods)
int8 matrix in slot order, drawn by a single `rng.sign_matrix` call;
`ReferenceSystem.columns` is the one place that applies the switching
schedule to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import rng

ROLE_A = "A"
ROLE_B = "B"
_ROLES = (ROLE_A, ROLE_B)

VALUE_H = "H"
VALUE_L = "L"

# signs per batch of period_columns' list conversion
_COLUMNS_CHUNK = 2**10


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


@dataclass(frozen=True, eq=False)
class ReferenceSystem:
    """2N telegraph streams over a shared grid, plus the low-value scale lambda.

    signs[s, k] is the period-k sign of the stream that owns sub-clock
    slot s (see stream_index): a read-only (2N, num_periods) int8 matrix.
    H_r is the role-A stream's sign; L_r is lambda times the role-B
    stream's sign.
    """

    grid: ClockGrid
    lam: Fraction
    master_seed: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must satisfy 0 < lambda <= 1")
        signs = np.asarray(self.signs)
        shape = (self.grid.subclocks_per_period, self.grid.num_periods)
        if signs.shape != shape:
            raise ValueError(f"signs must have shape {shape} (2N, periods), got {signs.shape}")
        if not ((signs == 1) | (signs == -1)).all():
            raise ValueError("signs must be +1 or -1")
        if signs.dtype != np.int8 or signs.flags.writeable:
            signs = signs.astype(np.int8)  # a private copy nobody else can write
            signs.flags.writeable = False
            object.__setattr__(self, "signs", signs)

    @property
    def num_bits(self) -> int:
        return self.grid.num_bits

    def columns(self, shifted: bool) -> Iterator[tuple[int, ...]]:
        """Slot-ordered sign column (B_1, A_1, ..., B_N, A_N) of each tick, in order.

        At sub-clock j of period k, slot s holds its period-k sign once it
        has adopted it (at j = 0 unshifted, at j = s shifted) and its
        period-(k-1) sign before; period 0 stands in for period -1 as
        the warm-up.
        """
        spp = self.grid.subclocks_per_period
        adopted = np.tri(spp, dtype=bool) if shifted else np.ones((spp, spp), dtype=bool)
        prev = self.signs[:, 0]
        for k in range(self.grid.num_periods):
            cur = self.signs[:, k]
            yield from map(tuple, np.where(adopted, cur, prev).tolist())
            prev = cur

    def period_columns(self) -> Iterator[tuple[int, ...]]:
        """Slot-ordered sign column of each clock period (the readout window's).

        Columns are converted to Python ints _COLUMNS_CHUNK signs at a time,
        so a long system never holds all its periods as lists at once.
        """
        step = max(1, _COLUMNS_CHUNK // self.grid.subclocks_per_period)
        for k0 in range(0, self.grid.num_periods, step):
            yield from map(tuple, self.signs[:, k0 : k0 + step].T.tolist())

    def period_signs(self, period: int) -> dict[tuple[int, str], int]:
        """{(bit, role): sign} for one clock period, for symbolic evaluation."""
        if not 0 <= period < self.grid.num_periods:
            raise ValueError("period out of range")
        return {
            (slot // 2 + 1, ROLE_A if slot % 2 else ROLE_B): sign
            for slot, sign in enumerate(self.signs[:, period].tolist())
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
    signs = rng.sign_matrix(master_seed, grid.subclocks_per_period, num_periods)
    signs.flags.writeable = False
    return ReferenceSystem(grid=grid, lam=lam, master_seed=master_seed, signs=signs)
