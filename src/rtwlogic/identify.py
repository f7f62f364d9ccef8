"""Identification of an unknown product string from its waveform.

Two routes with very different costs:

* Time-shifted identification reads the unknown's shifted trace at the
  switching instants.  Exactly one reference stream owns each sub-clock
  slot, so when that reference flips sign at its switching instant, the
  unknown either flips with it (the reference is a factor) or stays put
  (the complement is the factor); either way noise-bit r is decided on
  the spot.  A tick whose reference keeps its sign tells nothing, so the
  scanner visits only the ticks where the reference flips, in tick
  order: `rtw.ReferenceSystem.switch_ticks`, the one statement of the
  shifted schedule.  Each bit survives a whole period undecided only if
  neither of its two references flipped, probability 1/4, giving the
  union error bound N * 0.25^M after M observed periods and an O(N)
  tick budget.  A result stores its decisions as two N-bit masks.

* The baseline verifies candidate strings one at a time against
  unshifted per-period readouts.  Two distinct strings disagree in any
  period with probability 1/2 (at lambda = 1), so a wrong candidate dies
  quickly, but the search still walks an expected (2^N + 1)/2 candidates.

Decisions compare signs just before and just after a switching instant,
so the identifier is insensitive to lambda (magnitudes never change at a
single switching instant; only the sign can).

`ErrorBudget.from_epsilon` keeps one immutable budget per typed
(N, epsilon) key, at most _EPSILON_BUDGETS = 16 of them, each about
700 bytes with its key (more for an epsilon of many digits), held
between runs and counted by no run's memory check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import VALUE_H, VALUE_L, ProductString, ceil_log2
from .rtw import ReferenceSystem
from .signal import SignalTrace, product_readouts, readout

DEFAULT_SEARCH_CAP = 20


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

def error_bound(num_bits: int, max_periods: int) -> Fraction:
    """Union bound on P(some bit undecided) after max_periods periods.

    Exact rational N * (1/4)^M; callers that report probabilities clamp
    it to min(1, bound) since the union bound can exceed one.
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if max_periods < 0:
        raise ValueError("max_periods must be >= 0")
    return Fraction(num_bits, 1 << 2 * max_periods)


def check_epsilon(epsilon: Fraction | float | str) -> Fraction:
    """epsilon as an exact Fraction; refuses values outside 0 < epsilon < 1.

    A Fraction passes through as is; anything else, a Fraction subclass
    included, is converted.  A Fraction's denominator is positive, so
    the bounds are integer comparisons of its numerator.
    """
    if type(epsilon) is not Fraction:
        epsilon = Fraction(epsilon)
    if not 0 < epsilon.numerator < epsilon.denominator:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    return epsilon


def required_periods(num_bits: int, epsilon: Fraction | float | str) -> int:
    """Smallest M with N * 0.25^M <= epsilon (exact arithmetic).

    4^M >= N/epsilon holds iff 2M >= ceil(log2(N/epsilon)).
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    eps = check_epsilon(epsilon)
    return (ceil_log2(Fraction(num_bits * eps.denominator, eps.numerator)) + 1) // 2


def verification_error_bound(max_periods: int) -> Fraction:
    """False-match bound for verifying one candidate over max_periods periods."""
    if max_periods < 0:
        raise ValueError("max_periods must be >= 0")
    return Fraction(1, 2**max_periods)


def verification_periods(epsilon: Fraction | float | str) -> int:
    """Smallest M with 0.5^M <= epsilon (single-candidate verification)."""
    return ceil_log2(1 / check_epsilon(epsilon))


# ErrorBudget.from_epsilon keeps the budgets of this many (N, epsilon) keys
_EPSILON_BUDGETS = 16


@dataclass(frozen=True)
class ErrorBudget:
    """Observation budget pairing a period count with its error bound."""

    num_bits: int
    max_periods: int
    epsilon: Fraction

    @classmethod
    def from_periods(cls, num_bits: int, max_periods: int) -> "ErrorBudget":
        return cls(num_bits, max_periods, error_bound(num_bits, max_periods))

    @classmethod
    @functools.lru_cache(maxsize=_EPSILON_BUDGETS, typed=True)
    def from_epsilon(cls, num_bits: int, epsilon: Fraction | float | str) -> "ErrorBudget":
        """The budget of the smallest M whose bound is at most epsilon.

        One immutable budget per (N, epsilon) is shared by every caller; a
        key of another type, such as True for 1 or 0.5 for 1/2, gets its
        own.  At most _EPSILON_BUDGETS = 16 are kept, each about 700 bytes
        with its key (more for an epsilon of many digits), held between
        runs and counted by no run's memory check.  A refused epsilon is
        not kept.
        """
        m = required_periods(num_bits, epsilon)
        return cls(num_bits, m, error_bound(num_bits, m))

    @property
    def clamped_epsilon(self) -> Fraction:
        return min(Fraction(1), self.epsilon)

    @property
    def ticks(self) -> int:
        """Total sample cost of the observation window: 2N ticks per period."""
        return 2 * self.num_bits * self.max_periods


# ---------------------------------------------------------------------------
# time-shifted identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IdentificationResult:
    """Outcome of one identification run, as two N-bit masks in `ProductString` order.

    Bit r is mask bit N - r (bit 1 most significant): `known` marks the
    decided bits and `high` those decided H, so `high` is a subset of
    `known` and, once every bit is decided, the identified string.
    """

    num_bits: int
    known: int
    high: int
    periods_used: int
    ticks_observed: int

    def __post_init__(self) -> None:
        if not 0 <= self.known < 1 << self.num_bits:
            raise ValueError("known must be a mask of num_bits bits")
        if self.high & ~self.known:
            raise ValueError("high must be a subset of known")

    @property
    def decided(self) -> dict[int, str]:
        """{bit: "H" or "L"} over the decided bits, in ascending bit order."""
        n, known, high = self.num_bits, self.known, self.high
        bits = [r for r in range(1, n + 1) if known >> (n - r) & 1]
        return {r: VALUE_H if high >> (n - r) & 1 else VALUE_L for r in bits}

    @property
    def undecided(self) -> frozenset[int]:
        """The bits no reference flip decided."""
        n, known = self.num_bits, self.known
        return frozenset(r for r in range(1, n + 1) if not known >> (n - r) & 1)

    @property
    def complete(self) -> bool:
        return self.known == (1 << self.num_bits) - 1

    def product_string(self) -> ProductString:
        """The identified string; only meaningful when every bit decided."""
        if not self.complete:
            raise ValueError(f"bits {sorted(self.undecided)} undecided")
        return ProductString(self.num_bits, self.high)

    def to_json_dict(self) -> dict:
        return {
            "decided": {str(r): value for r, value in self.decided.items()},
            "undecided": sorted(self.undecided),
            "periods_used": self.periods_used,
            "ticks": self.ticks_observed,
        }


def tsinbl_identify(
    unknown: SignalTrace,
    refs: ReferenceSystem,
    max_periods: int,
) -> IdentificationResult:
    """Identify the unknown product string from its shifted trace.

    Observation starts at period 1 (period 0 is stagger warm-up) and runs
    for at most max_periods periods, stopping early once every bit is
    decided.  The trace must be a shifted product trace over refs and
    must cover max_periods + 1 periods, as must refs.  Bits that never
    got a deciding reference flip are reported in `undecided`, not raised.

    The meaning is the tick-by-tick scan's, but only the ticks where the
    switching reference changes sign are visited: there the unknown's
    sign at the tick is compared with its sign at the tick before.
    `ticks_observed` still counts every tick from the start of period 1
    to the last decision (or the whole window).
    """
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    if not unknown.shifted:
        raise ValueError("identification needs a shifted trace")
    if unknown.grid.num_bits != refs.num_bits:
        raise ValueError("trace and reference system disagree on num_bits")
    spp = refs.grid.subclocks_per_period
    start = spp  # first tick of period 1
    end = start + max_periods * spp
    if len(unknown.samples) < end:
        raise ValueError(
            f"trace too short: need {max_periods + 1} periods, got "
            f"{len(unknown.samples) // spp}"
        )
    if refs.grid.num_periods < max_periods + 1:
        raise ValueError(
            f"reference system too short: need {max_periods + 1} periods, got "
            f"{refs.grid.num_periods}"
        )

    samples = unknown.samples
    num_bits = refs.num_bits
    every_bit = (1 << num_bits) - 1
    known = high = 0
    for tick in refs.switch_ticks(max_periods + 1).tolist():
        # the flipping reference carries H (odd slot, role A) or L (even
        # slot, role B); the unknown follows it iff it is one of its factors,
        # so the bit is H iff the unknown flips with an odd slot or keeps
        # its sign against an even one
        before, after = samples[tick - 1].numerator, samples[tick].numerator
        unknown_flipped = (before > 0) - (before < 0) != (after > 0) - (after < 0)
        slot = tick % spp
        is_high = (slot & 1) == unknown_flipped
        mask = 1 << (num_bits - 1 - (slot >> 1))  # bit (slot >> 1) + 1
        if not known & mask:
            known |= mask
            if is_high:
                high |= mask
            if known == every_bit:
                return IdentificationResult(num_bits, known, high, tick // spp, tick - start + 1)
        elif bool(high & mask) != is_high:
            # cannot happen on a noiseless product trace
            seen, value = (VALUE_L, VALUE_H) if is_high else (VALUE_H, VALUE_L)
            raise AssertionError(
                f"contradictory decision for bit {(slot >> 1) + 1}: {seen} then {value}"
            )
    return IdentificationResult(num_bits, known, high, max_periods, end - start)


# ---------------------------------------------------------------------------
# baseline: per-candidate readout verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing one candidate against the unknown's readouts."""

    matched: bool
    mismatch_period: int | None
    periods_checked: int


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive candidate scan."""

    found: ProductString
    tests_performed: int
    periods_per_test: int


def baseline_verify(
    unknown: SignalTrace,
    candidate: ProductString,
    refs: ReferenceSystem,
    max_periods: int,
) -> VerificationResult:
    """Compare per-period readouts of the unknown against one candidate.

    Stops at the first mismatching period.  A false match (distinct
    strings agreeing for all max_periods periods) has probability at most
    0.5^max_periods.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    if unknown.shifted:
        raise ValueError("baseline verification uses unshifted readouts")
    if candidate.num_bits != refs.num_bits:
        raise ValueError("bit-width mismatch")
    if unknown.grid.num_periods < max_periods:
        raise ValueError("trace shorter than the verification budget")
    unknown_readouts = readout(unknown)
    candidate_readouts = product_readouts(refs, candidate)
    for k in range(max_periods):
        if unknown_readouts[k] != candidate_readouts[k]:
            return VerificationResult(matched=False, mismatch_period=k, periods_checked=k + 1)
    return VerificationResult(matched=True, mismatch_period=None, periods_checked=max_periods)


def baseline_search(
    unknown: SignalTrace,
    refs: ReferenceSystem,
    epsilon: Fraction | float | str,
) -> SearchResult:
    """Scan all 2^N candidates in catalog order until one never mismatches.

    Each candidate gets a period budget of ceil(log2(1/epsilon)), the
    single-candidate false-match budget.  Expected tests on noiseless
    input are (2^N + 1)/2 for a uniformly random unknown; the scan is the
    exponential-cost route the time-shifted identifier replaces, and it
    refuses above DEFAULT_SEARCH_CAP bits.
    """
    n = refs.num_bits
    if n > DEFAULT_SEARCH_CAP:
        raise ValueError(
            f"baseline search over {n} bits exceeds the cap of {DEFAULT_SEARCH_CAP} "
            f"(2^{n} candidates)"
        )
    budget = verification_periods(epsilon)
    tests = 0
    for bits in range(1 << n):
        candidate = ProductString(n, bits)
        tests += 1
        if baseline_verify(unknown, candidate, refs, budget).matched:
            return SearchResult(found=candidate, tests_performed=tests, periods_per_test=budget)
    raise RuntimeError(
        "no candidate matched; impossible for a noiseless product trace over refs"
    )
