"""Reproducible experiments over the representation and identification claims.

Every experiment is a pure function of its parameters (the master seed
included), returns an ExperimentReport that embeds those parameters, and
serializes to CSV (primary) and JSON (mirror) byte-identically across
reruns.  Probabilistic checks compare a Monte Carlo estimate against the
exact formula value under a three-sigma binomial tolerance; exact checks
(exhaustive enumerations, symbolic agreements) use equality of rationals.

The heavy Monte Carlo paths run on numpy engines that evaluate the same
counter-derived waveform signs the exact Fraction pipeline produces; the
unit tests pin the engines trial-for-trial to the exact reference
implementations (trace synthesis plus the tick-scanning identifier), so
the fast path and the slow path cannot drift apart silently.  The
identification engine works on switching instants, not ticks: one trial
reads the 2N * M events of its window, O(N * M) time and memory, the
paper's linear cost for fixed M.  The two engines read the same signs
packed along different axes, each along the one its decision runs on.
Identification compares many noise-bits within one period, so it reads
rng.sign_planes, one uint64 per period and carrier role holding 64
noise-bits laid out as the hidden-string integer, and decides every bit
with a few word operations per period.  The baseline XORs whole readout
sequences of single streams, so it reads rng.sign_words, one bit per
period, and keeps its scan exhaustive, comparing all 2^N candidates as
XORs of two half-tables.  A period's |readout| of the uniform superposition
depends only on how many bits' two carriers agree, so `zero-prob` and
Monte Carlo `range` both read one histogram of that count, drawn in
bounded chunks, with no per-period Fraction.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterator

import numpy as np

from . import rng
from .algebra import (
    DEFAULT_EXPAND_CAP,
    ProductString,
    agreement_law,
    apply_not,
    ceil_log2,
    evaluator,
    expand,
    selection_evaluator,
    uniform_superposition,
)
from .identify import (
    ErrorBudget,
    IdentificationResult,
    baseline_search,
    tsinbl_identify,
    verification_periods,
)
from .rtw import build_reference_system, check_lambda
from .signal import trace_product

DEFAULT_SEED = 1
ZERO_PROB_BITS_CAP = 20
EXHAUSTIVE_BITS_CAP = 6
BASELINE_BITS_CAP = 14
# resolution_bits builds ((1+lambda)/(1-lambda))^N exactly: under 0.1 s at
# this N for lambda = 1/2, 999/1000 or 1/1000
RESOLUTION_BITS_CAP = 10**5
# bytes one identification trial, or one reference system's sign draw, may
# need: the smallest unit of work must fit in memory
ENGINE_TRIAL_BYTES_CAP = 1 << 28

# tag used to draw the hidden string of a trial; stream tags are 0..2N-1
def _hidden_tag(num_bits: int) -> int:
    return 2 * num_bits


def _num_words(num_bits: int) -> int:
    return -(-num_bits // 64)


def trial_master_seed(seed: int, trial_index: int) -> int:
    """Per-trial master seed; trials are independent and order-free."""
    return rng.derive_seed(seed, trial_index)


def _trial_batches(seed: int, trials: int, batch_size: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first trial, trial_master_seed of each trial) per batch of batch_size trials."""
    for start in range(0, trials, batch_size):
        idx = np.arange(start, min(start + batch_size, trials), dtype=np.uint64)
        yield start, rng.derive_seed_np(np.uint64(seed & rng.MASK64), idx)


def _draw_bits(seed: int, tag: int, num_bits: int) -> int:
    """Uniform num_bits-bit integer from ceil(N/64) derived 64-bit words.

    Word 0 (the low 64 bits) is derive_seed(seed, tag); word w >= 1 is
    derive_seed(seed, tag, w), whose nested tag cannot collide with a
    single-tag draw at tag + 1.
    """
    value = rng.derive_seed(seed, tag)
    for w in range(1, _num_words(num_bits)):
        value |= rng.derive_seed(seed, tag, w) << (64 * w)
    return value & ((1 << num_bits) - 1)


def hidden_bits_for(trial_seed: int, num_bits: int) -> int:
    """Uniform hidden product string for one trial, as a bits integer."""
    return _draw_bits(trial_seed, _hidden_tag(num_bits), num_bits)


# ===========================================================================
# reports
# ===========================================================================

def _fmt_value(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_fmt_value(v) for v in value]
    return str(value)


def _fmt_csv(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class ExperimentReport:
    """Self-describing result of one experiment run.

    parameters/observed/theoretical are flat key-value maps; rows is an
    optional per-configuration table (the benchmark fills it).  passed is
    the experiment's own acceptance verdict and drives the CLI exit code.
    """

    name: str
    parameters: dict[str, object]
    observed: dict[str, object]
    theoretical: dict[str, object]
    passed: bool
    notes: tuple[str, ...] = ()
    rows: tuple[dict[str, object], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.name,
            "parameters": {k: _fmt_value(v) for k, v in self.parameters.items()},
            "observed": {k: _fmt_value(v) for k, v in self.observed.items()},
            "theoretical": {k: _fmt_value(v) for k, v in self.theoretical.items()},
            "passed": self.passed,
            "notes": list(self.notes),
            "rows": [{k: _fmt_value(v) for k, v in row.items()} for row in self.rows],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerow(["experiment", "name", self.name])
        for section, mapping in (
            ("parameters", self.parameters),
            ("observed", self.observed),
            ("theoretical", self.theoretical),
        ):
            for key, value in mapping.items():
                writer.writerow([section, key, _fmt_csv(value)])
        writer.writerow(["result", "passed", _fmt_csv(self.passed)])
        for i, note in enumerate(self.notes):
            writer.writerow(["note", str(i), note])
        if self.rows:
            writer.writerow([])
            header = list(self.rows[0].keys())
            writer.writerow(header)
            for row in self.rows:
                writer.writerow([_fmt_csv(row.get(k)) for k in header])
        return out.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv_text()
        if fmt == "json":
            return self.to_json_text()
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def three_sigma(probability: float, trials: int) -> float:
    """Binomial three-sigma tolerance for an estimate over `trials` draws."""
    return 3.0 * math.sqrt(probability * (1.0 - probability) / trials)


def fit_slope(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of ys against xs."""
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    n = float(len(xs))
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


# ===========================================================================
# vectorized Monte Carlo engines
# ===========================================================================

# bytes per batch of an engine's largest intermediates: 8 per stream and
# period for rng.sign_matrix and the baseline's rng.sign_words draw, the
# baseline's match mask, or the identification engine's own
# _identification_trial_bytes; small enough for a batch to stay in cache
_ENGINE_BATCH_BYTES = 1 << 20


def _batch_trials(bytes_per_trial: int) -> int:
    """Trials per batch: _ENGINE_BATCH_BYTES worth, at least 1 and at most 8192."""
    return max(1, min(8192, _ENGINE_BATCH_BYTES // bytes_per_trial))


def _sign_chunks(seed: int, num_streams: int, periods: int) -> Iterator[np.ndarray]:
    """rng.sign_matrix over periods 0..periods-1, one _batch_trials chunk at a time."""
    chunk = _batch_trials(8 * num_streams)
    for start in range(0, periods, chunk):
        yield rng.sign_matrix(seed, num_streams, min(chunk, periods - start), start_period=start)


def zero_prob_engine(num_bits: int, trials: int, seed: int) -> np.ndarray:
    """count[a]: periods in which exactly a bits' two carriers agree (int64, N+1).

    Each trial is one clock period of a single reference system.  By
    `algebra.agreement_law`, a is all the uniform superposition's |readout|
    depends on, and at lambda = 1 the readout is non-zero iff a = N.
    """
    count = np.zeros(num_bits + 1, dtype=np.int64)
    for signs in _sign_chunks(seed, 2 * num_bits, trials):
        agree = (signs[0::2] == signs[1::2]).sum(axis=0)  # B row vs A row, per bit
        count += np.bincount(agree, minlength=num_bits + 1)
    return count


def mismatch_rate_engine(num_bits: int, periods: int, seed: int) -> tuple[int, int, int]:
    """(mismatch count, w1 bits, w2 bits) for two distinct random strings.

    Readouts at lambda = 1 are sign products, so two strings' readouts
    differ in a period exactly when the parity of the streams in their
    symmetric difference is odd.
    """
    w1 = _draw_bits(seed, _hidden_tag(num_bits), num_bits)
    w2 = _draw_bits(seed, _hidden_tag(num_bits) + 1, num_bits)
    if w2 == w1:
        w2 ^= 1
    diff_rows = []
    for i in range(num_bits):
        pos = num_bits - 1 - i
        if ((w1 >> pos) ^ (w2 >> pos)) & 1:
            diff_rows.extend((2 * i, 2 * i + 1))  # both carriers of a differing bit
    mismatches = 0
    for signs in _sign_chunks(seed, 2 * num_bits, periods):
        mismatches += int(np.logical_xor.reduce(signs[diff_rows] < 0, axis=0).sum())
    return mismatches, w1, w2


@dataclass(frozen=True)
class IdentificationTrialStats:
    """Aggregates over vectorized identification trials."""

    trials: int
    undecided_trials: int
    complete_trials: int
    wrong_complete_trials: int
    wrong_decided_bits: int
    contradictions: int
    mean_ticks_observed: float
    mean_periods_used: float
    hidden_bits: np.ndarray | None = None
    complete: np.ndarray | None = None
    recovered_bits: np.ndarray | None = None
    ticks_observed: np.ndarray | None = None
    periods_used: np.ndarray | None = None

    @property
    def undecided_rate(self) -> float:
        return self.undecided_trials / self.trials


def _bits_mask(num_bits: int) -> np.ndarray:
    """(ceil(N/64),) uint64 words with bit positions 0..N-1 set."""
    mask = np.full(_num_words(num_bits), rng.MASK64, dtype=np.uint64)
    mask[-1] = np.uint64((1 << (num_bits - 64 * (len(mask) - 1))) - 1)
    return mask


def _hidden_words(trial_seeds: np.ndarray, num_bits: int) -> np.ndarray:
    """hidden_bits_for over a seed vector as (trials, ceil(N/64)) uint64 words.

    Word w holds bit positions 64w..64w+63 of the bits integer, so bit 1 is
    the most significant; the top word is masked to N bits.
    """
    tag = _hidden_tag(num_bits)
    words = rng.derive_seed_np(trial_seeds, tag)[:, None]
    if num_bits > 64:
        upper = np.arange(1, _num_words(num_bits), dtype=np.uint64)
        words = np.concatenate((words, rng.derive_seed_np(trial_seeds[:, None], tag, upper)), axis=1)
    words &= _bits_mask(num_bits)
    return words


def _words_to_ints(words: np.ndarray) -> np.ndarray:
    """One bits integer per row of (trials, W) uint64 words, word 0 lowest.

    uint64 for one word; above that, an object array of Python ints.
    """
    if words.shape[1] == 1:
        return words[:, 0].copy()
    little = words.astype(np.dtype("<u8"), copy=False)
    return np.array([int.from_bytes(row.tobytes(), "little") for row in little], dtype=object)


# set bits of every byte value (np.bitwise_count needs numpy >= 2.0)
_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _popcount(words: np.ndarray) -> int:
    """Set bits over a uint64 array."""
    return int(_BYTE_POPCOUNT[np.ascontiguousarray(words).view(np.uint8)].sum())


_ONE = np.uint64(1)


def _check_memory(what: str, need: int) -> None:
    """Refuse, before allocating, work that needs more than ENGINE_TRIAL_BYTES_CAP."""
    if need > ENGINE_TRIAL_BYTES_CAP:
        raise ValueError(f"{what} needs about {need} bytes; capped at {ENGINE_TRIAL_BYTES_CAP}")


def _identification_trial_bytes(num_bits: int, max_periods: int) -> int:
    """Bytes one trial of the plane engine holds at once, for batch sizing.

    The (M+1, 2, W) sign planes, their (M, 2, W) switches and about six
    (M, W) decision words, W = ceil(N/64): ten uint64 per word and period.
    """
    return 8 * 10 * _num_words(num_bits) * (max_periods + 1)


def _check_identification_memory(num_bits: int, max_periods: int) -> None:
    """Refuse, before allocating, a trial larger than ENGINE_TRIAL_BYTES_CAP.

    One trial is counted as three (2N, M+1) uint64 arrays, the footprint
    of an unpacked engine.  That bounds the plane engine's own bytes from
    N = 2 on; at N = 1 its 80 bytes per period exceed the 48 counted, so
    the larger of the two is checked.
    """
    _check_memory(
        f"one identification trial at {num_bits} bits and {max_periods} periods",
        max(3 * 8 * 2 * num_bits * (max_periods + 1),
            _identification_trial_bytes(num_bits, max_periods)),
    )


def _check_reference_memory(num_bits: int, num_periods: int) -> None:
    """Refuse a reference system whose (2N, P) uint64 sign draw exceeds the cap."""
    _check_memory(
        f"a reference system of {num_bits} bits over {num_periods} periods",
        8 * 2 * num_bits * num_periods,
    )


def _check_renderable(num_bits: int, lam: Fraction) -> None:
    """Refuse, before drawing, a range report whose bound (1+lambda)^N cannot print.

    Every value the report holds has a numerator and denominator no larger
    than (1+lambda)^N's, and str() refuses ints with more decimal digits
    than sys.get_int_max_str_digits() (0: no limit; absent before 3.10.7).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    top = 1 + lam
    for base in (top.numerator, top.denominator):
        # the float test settles all but bases within a digit of the limit,
        # which are small enough to raise exactly
        if num_bits * math.log10(base) >= limit + 1 or base**num_bits >= 10**limit:
            raise ValueError(
                f"range at {num_bits} bits would print (1+lambda)^{num_bits} with more "
                f"than {limit} digits, Python's limit for int to str conversion"
            )


def run_identification_trials(
    num_bits: int,
    max_periods: int,
    trials: int,
    seed: int,
    keep_per_trial: bool = False,
) -> IdentificationTrialStats:
    """Monte Carlo identification trials on the bit-plane engine.

    Each trial derives its own master seed and hidden string and reads
    only the 2N*M switching instants of its observation window, so a
    trial costs O(N*M).  In shifted mode exactly one stream switches per
    tick, so the observed waveform flips at instant (period k, slot j)
    exactly when stream j is a factor and its period-k sign differs from
    its period-(k-1) sign.  Signs come from rng.sign_planes as carrier
    planes: one uint64 per period and role holds 64 noise-bits, laid out
    as the hidden-string integer is, so the hidden words, the decided
    value and the recovered string are words of one shape.  A period's
    switch words are its planes XOR the previous period's; a prefix-OR
    over the periods marks each bit's first event, where it is decided,
    L before H within a period.  The last decision is the highest
    noise-bit, the lowest set plane bit, of the last period with a new
    decision.  The observed flips are derived from the hidden string, so
    the decided value is hidden & decided for any sign words, and the
    three soundness counts (wrong complete trials, wrong decided bits,
    contradicting events) are zero unless the lines that compute them
    break; they cannot catch a flaw in the decision rule.  The evidence
    for the rule is that aggregates match the tick-scanning reference
    identifier, tsinbl_identify, trial for trial (see the unit tests).
    Batches hold _batch_trials(_identification_trial_bytes(N, M)) trials;
    results do not depend on the batch size.
    """
    if num_bits < 1 or max_periods < 1 or trials < 1:
        raise ValueError("num_bits, max_periods and trials must be >= 1")
    _check_identification_memory(num_bits, max_periods)
    n = num_bits
    m = max_periods
    spp = 2 * n
    batch_size = _batch_trials(_identification_trial_bytes(n, m))
    full = _bits_mask(n)

    undecided_trials = 0
    complete_trials = 0
    wrong_complete = 0
    wrong_decided_bits = 0
    contradictions = 0
    ticks_sum = 0
    periods_sum = 0
    kept: dict[str, list[np.ndarray]] = {k: [] for k in
        ("hidden_bits", "complete", "recovered_bits", "ticks_observed", "periods_used")}

    for _, tseeds in _trial_batches(seed, trials, batch_size):
        b = len(tseeds)
        hidden = _hidden_words(tseeds, n)  # (b, W): set where the H carrier is the factor
        planes = rng.sign_planes(tseeds, n, m + 1)  # (M+1, b, 2, W)
        # switch[k]: the carriers that change sign at their period-(k+1)
        # switching instant, one of the M in the window
        switch = planes[1:] ^ planes[:-1]
        del planes
        s_l, s_h = switch[:, :, 0], switch[:, :, 1]
        u_l, u_h = s_l & ~hidden, s_h & hidden  # the observed waveform flips
        # an L switch the waveform does not follow means H, an H switch it
        # follows means H; within a period the L event comes first
        says_h = (s_l ^ u_l) | (u_h & ~s_l)
        events = s_l | s_h
        seen = np.bitwise_or.accumulate(events, axis=0)
        new = events
        new[1:] &= ~seen[:-1]  # each bit's first event
        chosen = np.bitwise_or.reduce(new & says_h, axis=0)
        decided = seen[-1]
        # every event of the window is checked against the decided value
        against = (chosen & ((s_l & u_l) | (s_h ^ u_h))) | (~chosen & ((s_l ^ u_l) | u_h))
        contradictions += _popcount(np.bitwise_or.reduce(against, axis=0))

        complete = (decided == full).all(axis=1)
        wrong = chosen ^ hidden
        wrong_decided_bits += _popcount(wrong & decided)
        wrong_complete += int((complete & (wrong != 0).any(axis=1)).sum())
        complete_trials += int(complete.sum())
        undecided_trials += int(b - complete.sum())
        # the last period with a new decision, and in it the highest
        # noise-bit decided: the lowest set plane bit
        last = (seen != decided).any(axis=2).sum(axis=0)
        rows = np.arange(b)
        last_new = new[last, rows]
        w = np.argmax(last_new != 0, axis=1)
        low = last_new[rows, w]
        low &= ~low + _ONE
        pos = 64 * w + np.frexp(low.astype(np.float64))[1] - 1
        is_h = (s_l[last, rows, w] & low) == 0
        # the decision tick is (last+1)*2N + slot 2(r-1) + is_h, r = N - pos
        t_obs = np.where(complete, last * spp + 2 * (n - pos - 1) + is_h + 1, m * spp)
        p_used = np.where(complete, last + 1, m)
        ticks_sum += int(t_obs.sum())
        periods_sum += int(p_used.sum())
        if keep_per_trial:
            kept["hidden_bits"].append(_words_to_ints(hidden))
            kept["complete"].append(complete)
            kept["recovered_bits"].append(_words_to_ints(chosen & decided))
            kept["ticks_observed"].append(t_obs)
            kept["periods_used"].append(p_used)

    extras = {k: np.concatenate(v) for k, v in kept.items()} if keep_per_trial else {}
    return IdentificationTrialStats(
        trials=trials,
        undecided_trials=undecided_trials,
        complete_trials=complete_trials,
        wrong_complete_trials=wrong_complete,
        wrong_decided_bits=wrong_decided_bits,
        contradictions=contradictions,
        mean_ticks_observed=ticks_sum / trials,
        mean_periods_used=periods_sum / trials,
        **extras,
    )


def identification_trial_exact(
    seed: int, trial_index: int, num_bits: int, max_periods: int
) -> tuple[ProductString, IdentificationResult]:
    """One trial on the exact path: trace synthesis plus the tick scanner.

    Uses the same per-trial seed and hidden-string derivation as the
    vectorized engine, which has no lambda (here 1), so results are
    comparable trial for trial.  A trial costs O(N·M): the shifted product
    trace is one numpy pass over the sign matrix and the scanner reads one
    sample per tick, about 9-13 ms at N = 1024, M = 6 (2-vCPU Xeon, Python 3.11).
    """
    ts = trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, hidden_bits_for(ts, num_bits))
    refs = build_reference_system(ts, num_bits, max_periods + 1, 1)
    trace = trace_product(refs, hidden, shifted=True)
    return hidden, tsinbl_identify(trace, refs, max_periods)


@dataclass(frozen=True)
class BaselineTrialStats:
    """Aggregates over vectorized baseline-search trials."""

    trials: int
    periods_per_test: int
    mean_tests: float
    false_matches: int
    tests: np.ndarray | None = None


def _xor_table(words: np.ndarray) -> np.ndarray:
    """(b, 2^k, W) readout words of every string over k bits, in catalog order.

    words is (b, 2k, W): the packed signs of each bit's L then H carrier.
    """
    b, _, w = words.shape
    table = np.zeros((b, 1, w), dtype=np.uint64)
    for i in range(0, words.shape[1], 2):
        nxt = np.empty((b, 2 * table.shape[1], w), dtype=np.uint64)
        nxt[:, 0::2] = table ^ words[:, None, i]      # append L for this bit
        nxt[:, 1::2] = table ^ words[:, None, i + 1]  # append H for this bit
        table = nxt
    return table


def run_baseline_trials(
    num_bits: int,
    periods_per_test: int,
    trials: int,
    seed: int,
    keep_per_trial: bool = False,
) -> BaselineTrialStats:
    """Monte Carlo baseline searches at lambda = 1 on bit-packed XOR parities.

    Readout values at lambda = 1 are products of signs, so a string's
    readouts over its P-period budget are the XOR of its carriers'
    negative-sign bits, packed by rng.sign_words into W = ceil(P/64)
    uint64 words.  Batches of trials are scanned at once.  Candidate c
    splits into its first floor(N/2) bits (c_hi) and the rest (c_lo) and
    reads Hi[c_hi] ^ Lo[c_lo], so two half-tables of at most 2^ceil(N/2)
    rows stand in for the 2^N-row catalog; all 2^N candidates are
    compared, and the flattened match mask is in catalog order (all-L
    first).  A trial's cost is the index of the first candidate that
    survives its whole period budget, exactly as the sequential reference
    search counts it.
    """
    if num_bits < 1 or periods_per_test < 1 or trials < 1:
        raise ValueError("num_bits, periods_per_test and trials must be >= 1")
    n = num_bits
    spp = 2 * n
    n_hi = n // 2
    n_words = -(-periods_per_test // 64)
    # per trial: the 2^N * W-byte match mask or 8 bytes per stream and period
    trial_bytes = max(n_words << n, 8 * spp * periods_per_test)
    _check_memory(f"one baseline trial at {n} bits and {periods_per_test} periods", trial_bytes)
    batch_size = _batch_trials(trial_bytes)
    tests = np.empty(trials, dtype=np.int64)
    false_matches = 0
    for start, tseeds in _trial_batches(seed, trials, batch_size):
        b = len(tseeds)
        hidden = _hidden_words(tseeds, n)[:, 0].astype(np.intp)  # one word up to N = 64
        words = rng.sign_words(tseeds, spp, periods_per_test)
        hi = _xor_table(words[:, : 2 * n_hi])
        lo = _xor_table(words[:, 2 * n_hi :])
        c_hi, c_lo = np.divmod(hidden, lo.shape[1])
        unknown = hi[np.arange(b), c_hi] ^ lo[np.arange(b), c_lo]
        match = (hi ^ unknown[:, None, :])[:, :, None, :] == lo[:, None, :, :]
        match = match.all(axis=3) if n_words > 1 else match[..., 0]
        first = np.argmax(match.reshape(b, -1), axis=1)
        tests[start : start + b] = first + 1
        false_matches += int((first != hidden).sum())
    return BaselineTrialStats(
        trials=trials,
        periods_per_test=periods_per_test,
        mean_tests=float(tests.mean()),
        false_matches=false_matches,
        tests=tests if keep_per_trial else None,
    )


def _baseline_periods(epsilon: Fraction | float | str) -> int:
    """Per-candidate baseline budget ceil(log2(1/epsilon)), epsilon clamped to 1/2.

    The clamp gives one period to a union bound of 1 or more (a fixed M).
    """
    return verification_periods(min(Fraction(1, 2), Fraction(epsilon)))


def baseline_trial_exact(
    seed: int, trial_index: int, num_bits: int, epsilon: Fraction | float | str
) -> tuple[ProductString, int]:
    """One baseline-search trial on the exact Fraction path (lambda = 1)."""
    ts = trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, hidden_bits_for(ts, num_bits))
    budget = verification_periods(epsilon)
    refs = build_reference_system(ts, num_bits, budget, 1)
    trace = trace_product(refs, hidden, shifted=False)
    result = baseline_search(trace, refs, epsilon)
    return hidden, result.tests_performed


# ===========================================================================
# resolution bits (exact integer arithmetic)
# ===========================================================================

def _range_ratio(lam: Fraction | str) -> Fraction:
    """(1+lambda)/(1-lambda), the readout range per noise-bit; it diverges at lambda = 1."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must satisfy 0 < lambda < 1")
    return (1 + lam) / (1 - lam)


def resolution_bits(num_bits: int, lam: Fraction | str) -> int:
    """Amplitude resolution needed to represent the superposition's range.

    ceil(N * log2((1+lambda)/(1-lambda))), computed exactly: the smallest
    M with 2^M covering the readout dynamic range ((1+lambda)/(1-lambda))^N.
    Requires 0 < lambda < 1 (see _range_ratio) and N <= RESOLUTION_BITS_CAP.
    """
    if not 1 <= num_bits <= RESOLUTION_BITS_CAP:
        raise ValueError(f"num_bits must be in 1..{RESOLUTION_BITS_CAP}")
    return ceil_log2(_range_ratio(lam) ** num_bits)


def dynamic_range_below_double(lam: Fraction | str) -> bool:
    """Exact check that the un-rounded bit count N*log2(ratio) is < 2N.

    That holds iff ratio < 4, i.e. lambda < 3/5, whatever N is.
    """
    return _range_ratio(lam) < 4


# ===========================================================================
# experiments
# ===========================================================================

def zero_probability_experiment(
    num_bits: int, trials: int, seed: int = DEFAULT_SEED
) -> ExperimentReport:
    """Estimate P(readout != 0) of the uniform superposition at lambda = 1.

    The legacy equal-amplitude representation loses the complete
    superposition in all but a 0.5^N fraction of periods; the estimate
    must sit within three binomial sigmas of that value.
    """
    if not 1 <= num_bits <= ZERO_PROB_BITS_CAP:
        raise ValueError(f"num_bits must be in 1..{ZERO_PROB_BITS_CAP}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    count = int(zero_prob_engine(num_bits, trials, seed)[num_bits])
    estimate = count / trials
    probability = Fraction(1, 2**num_bits)
    p = float(probability)
    tol = three_sigma(p, trials)
    passed = abs(estimate - p) <= tol
    notes = []
    if p - tol <= 0.0:
        notes.append(
            "trials too small for the three-sigma interval to exclude zero "
            "at this bit count"
        )
    return ExperimentReport(
        name="zero-probability",
        parameters={"bits": num_bits, "trials": trials, "seed": seed, "lambda": "1"},
        observed={
            "nonzero_periods": count,
            "estimate": estimate,
            "abs_error": abs(estimate - p),
        },
        theoretical={
            "probability": probability,
            "probability_float": p,
            "three_sigma": tol,
        },
        passed=passed,
        notes=tuple(notes),
    )


def amplitude_range_experiment(
    num_bits: int,
    lam: Fraction | str,
    exhaustive: bool | None = None,
    trials: int = 10000,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Scan |readout| of the uniform superposition against its exact bounds.

    Exhaustive mode (num_bits <= 6) walks all 2^(2N) sign assignments
    through `algebra.evaluator` and must attain (1-lambda)^N and
    (1+lambda)^N exactly, with nothing outside; Monte Carlo mode samples
    periods and must stay inside.  |readout| grows with the agreement count
    a, so Monte Carlo mode reads `algebra.agreement_law` exactly at the
    smallest and largest a of the zero_prob_engine histogram.
    """
    lam = check_lambda(lam)
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if exhaustive is None:
        exhaustive = num_bits <= EXHAUSTIVE_BITS_CAP
    if exhaustive and num_bits > EXHAUSTIVE_BITS_CAP:
        raise ValueError(
            f"exhaustive mode enumerates 2^(2N) assignments; capped at "
            f"{EXHAUSTIVE_BITS_CAP} bits"
        )
    if not exhaustive:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _check_reference_memory(num_bits, 1)
    _check_renderable(num_bits, lam)
    t_min = (1 - lam) ** num_bits
    t_max = (1 + lam) ** num_bits
    if exhaustive:
        value = evaluator(uniform_superposition(num_bits), lam)
        columns = iter_product((-1, 1), repeat=2 * num_bits)
        values = [abs(value(column)) for column in columns]
    else:
        seen = np.flatnonzero(zero_prob_engine(num_bits, trials, seed)).tolist()
        _, law = agreement_law(uniform_superposition(num_bits), lam)
        # at A-parity 0 the law gives |readout|: every factor is non-negative
        values = [law((0, a)) for a in (seen[0], seen[-1])]
    v_min = min(values)
    v_max = max(values)
    within = all(t_min <= v <= t_max for v in values)
    if exhaustive:
        passed = within and v_min == t_min and v_max == t_max
    else:
        passed = within
    return ExperimentReport(
        name="amplitude-range",
        parameters={
            "bits": num_bits,
            "lambda": lam,
            "mode": "exhaustive" if exhaustive else "monte-carlo",
            "trials": None if exhaustive else trials,
            "seed": None if exhaustive else seed,
        },
        observed={
            "min_abs": v_min,
            "max_abs": v_max,
            "min_attained": v_min == t_min,
            "max_attained": v_max == t_max,
            "all_within_bounds": within,
            "samples": len(values) if exhaustive else trials,
        },
        theoretical={"min_abs": t_min, "max_abs": t_max},
        passed=passed,
    )


def resolution_experiment(num_bits: int, lam: Fraction | str) -> ExperimentReport:
    """Resolution bit count for the scaled representation, with range check."""
    lam = Fraction(lam)
    bits = resolution_bits(num_bits, lam)
    below = dynamic_range_below_double(lam)
    ratio = _range_ratio(lam)
    notes = []
    if lam != Fraction(1, 2):
        notes.append(
            "bit count for lambda != 1/2 is a derived generalization of the "
            "half-amplitude formula"
        )
    return ExperimentReport(
        name="resolution",
        parameters={"bits": num_bits, "lambda": lam},
        observed={
            "resolution_bits": bits,
            "bits_per_noise_bit": bits / num_bits,
            "ceiling_at_double": bits == 2 * num_bits,
        },
        theoretical={
            "real_valued_bits": num_bits * math.log2(float(ratio)),
            "double_bits": 2 * num_bits,
            "dynamic_range_below_double": below,
        },
        passed=below and bits <= 2 * num_bits,
        notes=tuple(notes),
    )


def _identification_verdict(
    budget: ErrorBudget, trials: int, seed: int
) -> tuple[IdentificationTrialStats, float, bool, bool]:
    """Run and judge a budget's trials: (stats, three sigma, rate ok, sound).

    The rate check: the undecided rate is at most the clamped union bound
    plus three binomial sigmas, 0 when the bound is 1.  The soundness
    check: no fully decided trial wrong, no decided bit wrong, no
    contradiction.
    """
    stats = run_identification_trials(budget.num_bits, budget.max_periods, trials, seed)
    p = float(budget.clamped_epsilon)
    tol = three_sigma(p, trials) if p < 1 else 0.0
    sound = (
        stats.wrong_complete_trials == 0
        and stats.wrong_decided_bits == 0
        and stats.contradictions == 0
    )
    return stats, tol, stats.undecided_rate <= p + tol, sound


def identification_experiment(
    num_bits: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    epsilon: Fraction | float | str | None = None,
    max_periods: int | None = None,
    include_baseline: bool = False,
) -> ExperimentReport:
    """Monte Carlo check of the time-shifted identifier's error budget.

    Provide epsilon (the observation window is derived) or max_periods
    directly.  Undecided rate must stay within the clamped union bound
    plus three sigmas, and every fully decided trial must recover the
    hidden string exactly.
    """
    if (epsilon is None) == (max_periods is None):
        raise ValueError("provide exactly one of epsilon or max_periods")
    if include_baseline and num_bits > BASELINE_BITS_CAP:
        raise ValueError(f"baseline search is exponential; capped at {BASELINE_BITS_CAP} bits")
    if max_periods is None:
        budget = ErrorBudget.from_epsilon(num_bits, epsilon)
    else:
        budget = ErrorBudget.from_periods(num_bits, max_periods)
    stats, tol, rate_ok, sound = _identification_verdict(budget, trials, seed)
    parameters: dict[str, object] = {
        "bits": num_bits,
        "trials": trials,
        "seed": seed,
        "epsilon": Fraction(epsilon) if epsilon is not None else None,
        "max_periods": budget.max_periods,
    }
    observed: dict[str, object] = {
        "undecided_rate": stats.undecided_rate,
        "undecided_trials": stats.undecided_trials,
        "complete_trials": stats.complete_trials,
        "wrong_complete_trials": stats.wrong_complete_trials,
        "wrong_decided_bits": stats.wrong_decided_bits,
        "contradictions": stats.contradictions,
        "mean_ticks_observed": stats.mean_ticks_observed,
        "mean_periods_used": stats.mean_periods_used,
    }
    theoretical: dict[str, object] = {
        "undecided_bound": budget.clamped_epsilon,
        "undecided_bound_float": float(budget.clamped_epsilon),
        "three_sigma": tol,
        "budget_ticks": budget.ticks,
    }
    passed = rate_ok and sound
    if include_baseline:
        ppt = _baseline_periods(epsilon if epsilon is not None else budget.epsilon)
        bstats = run_baseline_trials(
            num_bits, ppt, trials, rng.derive_seed(seed, 1)
        )
        observed["baseline_mean_tests"] = bstats.mean_tests
        observed["baseline_false_matches"] = bstats.false_matches
        theoretical["baseline_periods_per_test"] = ppt
        theoretical["baseline_mean_tests"] = ((1 << num_bits) + 1) / 2
    return ExperimentReport(
        name="identification",
        parameters=parameters,
        observed=observed,
        theoretical=theoretical,
        passed=passed,
    )


def identification_benchmark(
    bits_list: list[int],
    epsilon: Fraction | float | str,
    trials: int,
    seed: int = DEFAULT_SEED,
    include_baseline: bool = True,
    baseline_cap: int = BASELINE_BITS_CAP,
    include_timing: bool = False,
) -> ExperimentReport:
    """Cost scaling of time-shifted identification against the baseline scan.

    The fitted time-shifted cost is the scheduled observation window in
    ticks, 2N * required_periods(N, epsilon) (the quantity the linear
    claim is about); mean observed ticks with early exit are reported
    alongside.  Baseline cost is mean tests times the per-test period
    budget and is only run up to baseline_cap bits, which may not exceed
    BASELINE_BITS_CAP.  Timing columns are optional because they would
    break byte-identical reruns.
    """
    if not bits_list:
        raise ValueError("need at least one bit count")
    if baseline_cap > BASELINE_BITS_CAP:
        raise ValueError(
            f"baseline search is exponential; baseline_cap may not exceed {BASELINE_BITS_CAP}"
        )
    if len(set(bits_list)) != len(bits_list):
        raise ValueError("bit counts must be distinct")
    eps = Fraction(epsilon)
    budgets = [ErrorBudget.from_epsilon(n, eps) for n in bits_list]
    for budget in budgets:
        _check_identification_memory(budget.num_bits, budget.max_periods)
    rows: list[dict[str, object]] = []
    baseline_points: list[tuple[int, float]] = []
    passed = True  # each bit count's rate and soundness checks, then the fits
    for budget in budgets:
        n = budget.num_bits
        t0 = time.perf_counter()
        stats, _, rate_ok, sound = _identification_verdict(
            budget, trials, rng.derive_seed(seed, 2 * n)
        )
        dt = time.perf_counter() - t0
        passed = passed and rate_ok and sound
        row: dict[str, object] = {
            "bits": n,
            "tsinbl_periods": budget.max_periods,
            "tsinbl_budget_ticks": budget.ticks,
            "tsinbl_mean_ticks_observed": stats.mean_ticks_observed,
            "tsinbl_undecided_rate": stats.undecided_rate,
            "tsinbl_wrong_trials": stats.wrong_complete_trials,
        }
        if include_timing:
            row["tsinbl_ms_per_trial"] = 1000.0 * dt / trials
        if include_baseline and n <= baseline_cap:
            ppt = _baseline_periods(eps)
            t0 = time.perf_counter()
            bstats = run_baseline_trials(
                n, ppt, trials, rng.derive_seed(seed, 2 * n + 1)
            )
            dt = time.perf_counter() - t0
            row["baseline_periods_per_test"] = ppt
            row["baseline_mean_tests"] = bstats.mean_tests
            row["baseline_mean_cost"] = bstats.mean_tests * ppt
            row["baseline_false_matches"] = bstats.false_matches
            if include_timing:
                row["baseline_ms_per_trial"] = 1000.0 * dt / trials
            baseline_points.append((n, bstats.mean_tests))
        elif include_baseline:
            row["baseline_periods_per_test"] = None
            row["baseline_mean_tests"] = None
            row["baseline_mean_cost"] = None
            row["baseline_false_matches"] = None
        rows.append(row)

    observed: dict[str, object] = {}
    theoretical: dict[str, object] = {}
    budget_costs = [(budget.num_bits, budget.ticks) for budget in budgets]
    per_bit = [cost / n for n, cost in budget_costs]
    observed["tsinbl_cost_per_bit_mean"] = sum(per_bit) / len(per_bit)
    if len(budget_costs) >= 2:
        mean_pb = sum(per_bit) / len(per_bit)
        spread = max(abs(x - mean_pb) for x in per_bit) / mean_pb
        slope, intercept = fit_slope(
            [float(n) for n, _ in budget_costs], [float(c) for _, c in budget_costs]
        )
        exponent, _ = fit_slope(
            [math.log2(n) for n, _ in budget_costs],
            [math.log2(c) for _, c in budget_costs],
        )
        observed["tsinbl_cost_per_bit_max_rel_dev"] = spread
        observed["tsinbl_linear_slope"] = slope
        observed["tsinbl_linear_intercept"] = intercept
        observed["tsinbl_loglog_exponent"] = exponent
        theoretical["tsinbl_cost_per_bit_tolerance"] = 0.15
        passed = passed and spread <= 0.15
    if len(baseline_points) >= 2:
        b_slope, b_intercept = fit_slope(
            [float(n) for n, _ in baseline_points],
            [math.log2(t) for _, t in baseline_points],
        )
        observed["baseline_log2_slope"] = b_slope
        observed["baseline_log2_intercept"] = b_intercept
        theoretical["baseline_log2_slope"] = 1.0
        theoretical["baseline_slope_tolerance"] = 0.1
        passed = passed and abs(b_slope - 1.0) <= 0.1
    return ExperimentReport(
        name="identification-benchmark",
        parameters={
            "bits": list(bits_list),
            "epsilon": eps,
            "trials": trials,
            "seed": seed,
            "baseline": include_baseline,
            "baseline_cap": baseline_cap,
        },
        observed=observed,
        theoretical=theoretical,
        passed=passed,
        rows=tuple(rows),
    )


# not_gate_demo's tracemalloc peak per expansion term, N = 15..17, CPython 3.11
_EXPANSION_TERM_BYTES = 452


def not_gate_demo(
    num_bits: int,
    lam: Fraction | str,
    target_bit: int,
    periods: int = 1000,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Inversion of one bit by multiplying with its H*L reference product.

    Checks the symbolic coefficient permutation (H terms to L unchanged,
    L terms to H scaled by lambda^2), that the factored result expands to
    it, and that the waveform route (the uniform superposition's trace
    multiplied pointwise by the H_r * L_r trace) agrees with the factored
    result exactly at every readout, O(N) per period; the 2^N-term
    expansion is paid once per run.  Every refusal comes before it.
    """
    lam = Fraction(lam)
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if not 1 <= target_bit <= num_bits:
        raise ValueError(f"target_bit must be in 1..{num_bits}")
    _check_reference_memory(num_bits, periods)
    refs = build_reference_system(seed, num_bits, periods, lam)
    if num_bits <= DEFAULT_EXPAND_CAP:  # above it expand() refuses on its own
        _check_memory(f"the expansion of {num_bits} bits", _EXPANSION_TERM_BYTES << num_bits)
    uni = uniform_superposition(num_bits)
    expanded = expand(uni)
    notted = apply_not(expanded, target_bit, lam)
    notted_factored = apply_not(uni, target_bit, lam)
    factored_matches = expand(notted_factored) == notted

    lam2 = lam * lam
    permutation_ok = len(notted) == len(expanded)
    for w, coeff in expanded.items():
        image = w.with_bit_flipped(target_bit)
        expect = coeff if w.value(target_bit) == "H" else coeff * lam2
        if notted.coeff(image) != expect:
            permutation_ok = False

    readout = evaluator(uni, lam)
    hl = selection_evaluator([(target_bit, "H"), (target_bit, "L")], lam)
    symbolic = evaluator(notted_factored, lam)
    # one pass over the periods: nothing per period outlives its column
    agree = sum(
        readout(column) * hl(column) == symbolic(column) for column in refs.period_columns()
    )
    waveform_ok = agree == periods

    passed = permutation_ok and factored_matches and waveform_ok
    return ExperimentReport(
        name="not-gate",
        parameters={
            "bits": num_bits,
            "lambda": lam,
            "target": target_bit,
            "periods": periods,
            "seed": seed,
        },
        observed={
            "coefficient_permutation_ok": permutation_ok,
            "factored_route_matches": factored_matches,
            "readouts_agreeing": agree,
            "former_l_scale": lam2,
        },
        theoretical={"former_l_scale": lam2, "readouts_agreeing": periods},
        passed=passed,
    )
