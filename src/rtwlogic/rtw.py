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
int8 matrix in slot order, drawn by a single `rng.sign_matrix` call (the
Monte Carlo engines and not-demo read the same signs as `rng.role_words`).
`ReferenceSystem.switch_ticks` is the one statement of the shifted
schedule, the ticks where the switching slot takes a new sign, for
`parity_trace` and `agreement_runs` (the states products and factored
superpositions are valued by, in numpy) and `identify.tsinbl_identify`.

`slot_keys` is the one owner of slot order for the {(bit, role): sign}
mapping API: one cached tuple of (bit, role) keys per bit count, in slot
order, which `ReferenceSystem.period_signs` zips with a sign column and
`algebra.evaluate_symbolic` reads a mapping back into a column by.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import rng

ROLE_A = "A"
ROLE_B = "B"
_ROLES = (ROLE_A, ROLE_B)

VALUE_H = "H"
VALUE_L = "L"


def check_lambda(lam: Fraction | int | str) -> Fraction:
    """lambda as an exact Fraction; refuses values outside 0 < lambda <= 1.

    A Fraction passes through as is; anything else, a Fraction subclass
    included, is converted.  A Fraction's denominator is positive, so
    the bounds are integer comparisons of its numerator.
    """
    if type(lam) is not Fraction:
        lam = Fraction(lam)
    if not 0 < lam.numerator <= lam.denominator:
        raise ValueError("lambda must satisfy 0 < lambda <= 1")
    return lam


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


# slot_keys keeps the tables of this many bit counts
_SLOT_KEY_TABLES = 16


@functools.lru_cache(maxsize=_SLOT_KEY_TABLES)
def slot_keys(num_bits: int) -> tuple[tuple[int, str], ...]:
    """(bit, role) of each sub-clock slot, in slot order: ((1, B), (1, A), (2, B), ...).

    The one owner of slot order for the {(bit, role): sign} mapping API:
    keys[stream_index(bit, role)] == (bit, role).  One immutable table per
    bit count is shared by every caller; at most _SLOT_KEY_TABLES = 16 are
    kept, each about 2N * 64 bytes plus the ints of bits above 256.
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    return tuple((bit, role) for bit in range(1, num_bits + 1) for role in (ROLE_B, ROLE_A))


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
        object.__setattr__(self, "lam", check_lambda(self.lam))
        signs = np.asarray(self.signs)
        shape = (self.grid.subclocks_per_period, self.grid.num_periods)
        if signs.shape != shape:
            raise ValueError(f"signs must have shape {shape} (2N, periods), got {signs.shape}")
        # one bool temporary alive at a time
        if np.count_nonzero(signs == 1) + np.count_nonzero(signs == -1) != signs.size:
            raise ValueError("signs must be +1 or -1")
        if signs.dtype != np.int8 or signs.flags.writeable:
            signs = signs.astype(np.int8)  # a private copy nobody else can write
            signs.flags.writeable = False
            object.__setattr__(self, "signs", signs)

    @property
    def num_bits(self) -> int:
        return self.grid.num_bits

    def switch_ticks(self, num_periods: int) -> np.ndarray:
        """Shifted-mode ticks, in order, where the switching slot changes sign.

        The one statement of the shifted schedule: tick k * 2N + s switches
        only slot s, to its period-k sign, so the slot takes a sign other
        than the one it held iff signs[s, k] != signs[s, k - 1]; period 0
        switches nothing.  Covers the first num_periods periods.
        """
        if not 0 <= num_periods <= self.grid.num_periods:
            raise ValueError(f"num_periods {num_periods} outside [0, {self.grid.num_periods}]")
        window = self.signs[:, :num_periods]
        changed = (window[:, 1:] != window[:, :-1]).T  # (period - 1, slot)
        ticks = changed.ravel().nonzero()[0]
        ticks += self.grid.subclocks_per_period
        return ticks

    def parity_trace(self, slots: Sequence[int], shifted: bool) -> np.ndarray:
        """Parity (0 or 1) of the -1 signs over `slots` at each tick, in tick order.

        In O(N * periods): unshifted, one parity per period repeated over
        its 2N ticks; shifted, the period-0 parity XOR-accumulated over the
        listed slots' `switch_ticks`.  `slots` must not repeat.
        """
        slots = list(slots)
        spp = self.grid.subclocks_per_period
        if not shifted:
            return np.repeat(np.count_nonzero(self.signs[slots] < 0, axis=0) & 1, spp)
        picked = np.zeros(spp, dtype=bool)
        picked[slots] = True
        ticks = self.switch_ticks(self.grid.num_periods)
        flips = np.zeros(self.grid.num_ticks, dtype=np.uint8)
        flips[ticks[picked[ticks % spp]]] = 1
        # period 0 switches nothing, so its first tick can carry the
        # period-0 parity that the accumulation starts from
        flips[0] = np.count_nonzero(self.signs[slots, 0] < 0) & 1
        return np.bitwise_xor.accumulate(flips)

    def agreement_runs(
        self, groups: Sequence[int], shifted: bool
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Each run's first tick and state: (A-parity, agreeing bits per group).

        The A-parity is that of the -1 A signs; bit r is in group
        groups[r - 1] and agrees when its two slots hold one sign.  A run is
        a period unshifted.  Shifted, runs start at tick 0 and at each of
        `switch_ticks`, where slot s's bit toggles its agreement and, for an
        A slot, the A-parity; only the current state is held.
        """
        spp, periods = self.grid.subclocks_per_period, self.grid.num_periods
        # slot rows are counted into state entries: an A row where it holds
        # -1, into entry 0; a B row where its bit agrees, into 1 + its group
        counted = self.signs < 0
        counted[0::2] = counted[0::2] == counted[1::2]
        entry = np.zeros(spp, dtype=np.intp)
        entry[0::2] = np.add(groups, 1)
        bins = entry[:, None] * periods + np.arange(periods)  # one per (entry, period)
        states = np.bincount(bins[counted], minlength=(max(groups) + 2) * periods)
        states = states.reshape(-1, periods)
        states[0] &= 1
        if not shifted:
            yield from zip(range(0, self.grid.num_ticks, spp), map(tuple, states.T.tolist()))
            return
        ticks = self.switch_ticks(periods)
        period, slot = np.divmod(ticks, spp)
        # a B slot's partner A still holds its period-(k-1) sign; an A slot's
        # partner B switched a tick earlier
        agrees = self.signs[slot, period] == self.signs[slot ^ 1, period - 1 + (slot & 1)]
        state = states[:, 0].tolist()
        yield 0, tuple(state)
        steps = zip(ticks.tolist(), (slot & 1).tolist(), entry[slot & ~1].tolist(), agrees.tolist())
        for tick, flip, at, agree in steps:
            state[0] ^= flip
            state[at] += 1 if agree else -1
            yield tick, tuple(state)

    def period_signs(self, period: int) -> dict[tuple[int, str], int]:
        """{(bit, role): sign} for one clock period, keys in `slot_keys` order."""
        if not 0 <= period < self.grid.num_periods:
            raise ValueError("period out of range")
        return dict(zip(slot_keys(self.num_bits), self.signs[:, period].tolist()))


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
    lam = check_lambda(lam)
    grid = ClockGrid(num_bits=num_bits, num_periods=num_periods)
    signs = rng.sign_matrix(master_seed, grid.subclocks_per_period, num_periods)
    signs.flags.writeable = False
    return ReferenceSystem(grid=grid, lam=lam, master_seed=master_seed, signs=signs)
