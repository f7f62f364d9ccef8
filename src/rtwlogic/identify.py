"""Identification of an unknown product string from its waveform.

Two routes with very different costs:

* Time-shifted identification reads the unknown's shifted trace tick by
  tick.  Exactly one reference stream owns each sub-clock slot, so when
  that reference flips sign at its switching instant, the unknown either
  flips with it (the reference is a factor) or stays put (the complement
  is the factor); either way noise-bit r is decided on the spot.  Each
  bit survives a whole period undecided only if neither of its two
  references flipped, probability 1/4, giving the union error bound
  N * 0.25^M after M observed periods and an O(N) tick budget.

* The baseline verifies candidate strings one at a time against
  unshifted per-period readouts.  Two distinct strings disagree in any
  period with probability 1/2 (at lambda = 1), so a wrong candidate dies
  quickly, but the search still walks an expected (2^N + 1)/2 candidates.

Decisions compare signs just before and just after a switching instant,
so the identifier is insensitive to lambda (magnitudes never change at a
single switching instant; only the sign can).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import VALUE_H, VALUE_L, ProductString
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
    return Fraction(num_bits) * Fraction(1, 4) ** max_periods


def required_periods(num_bits: int, epsilon: Fraction | float | str) -> int:
    """Smallest M with N * 0.25^M <= epsilon (exact arithmetic)."""
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    m = 0
    bound = Fraction(num_bits)
    while bound > eps:
        m += 1
        bound /= 4
    return m


def verification_error_bound(max_periods: int) -> Fraction:
    """False-match bound for verifying one candidate over max_periods periods."""
    if max_periods < 0:
        raise ValueError("max_periods must be >= 0")
    return Fraction(1, 2**max_periods)


def verification_periods(epsilon: Fraction | float | str) -> int:
    """Smallest M with 0.5^M <= epsilon (single-candidate verification)."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    m = 0
    bound = Fraction(1)
    while bound > eps:
        m += 1
        bound /= 2
    return m


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
    def from_epsilon(cls, num_bits: int, epsilon: Fraction | float | str) -> "ErrorBudget":
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

@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one identification run; decided/undecided partition 1..N."""

    num_bits: int
    decided: Mapping[int, str]
    undecided: frozenset[int]
    periods_used: int
    ticks_observed: int

    def __post_init__(self) -> None:
        all_bits = set(range(1, self.num_bits + 1))
        if set(self.decided) | set(self.undecided) != all_bits:
            raise ValueError("decided and undecided must partition 1..N")
        if set(self.decided) & set(self.undecided):
            raise ValueError("decided and undecided overlap")

    @property
    def complete(self) -> bool:
        return not self.undecided

    def product_string(self) -> ProductString:
        """The identified string; only meaningful when every bit decided."""
        if self.undecided:
            raise ValueError(f"bits {sorted(self.undecided)} undecided")
        bits = 0
        for r in range(1, self.num_bits + 1):
            bits = (bits << 1) | (1 if self.decided[r] == VALUE_H else 0)
        return ProductString(self.num_bits, bits)

    def to_json_dict(self) -> dict:
        return {
            "decided": {str(r): self.decided[r] for r in sorted(self.decided)},
            "undecided": sorted(self.undecided),
            "periods_used": self.periods_used,
            "ticks": self.ticks_observed,
        }


def _sign_of(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def tsinbl_identify(
    unknown: SignalTrace,
    refs: ReferenceSystem,
    max_periods: int,
) -> IdentificationResult:
    """Identify the unknown product string from its shifted trace.

    Observation starts at period 1 (period 0 is stagger warm-up) and runs
    for at most max_periods periods, stopping early once every bit is
    decided.  The trace must be a shifted product trace over refs and
    must cover max_periods + 1 periods.  Bits that never got a deciding
    reference flip are reported in `undecided`, not raised.
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
        carried = VALUE_H if slot % 2 else VALUE_L
        inverse = VALUE_L if carried == VALUE_H else VALUE_H
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
    return IdentificationResult(
        num_bits=refs.num_bits,
        decided=dict(decided),
        undecided=undecided,
        periods_used=periods_used,
        ticks_observed=ticks_seen,
    )


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
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    budget = verification_periods(eps)
    tests = 0
    for bits in range(1 << n):
        candidate = ProductString(n, bits)
        tests += 1
        if baseline_verify(unknown, candidate, refs, budget).matched:
            return SearchResult(found=candidate, tests_performed=tests, periods_per_test=budget)
    raise RuntimeError(
        "no candidate matched; impossible for a noiseless product trace over refs"
    )
