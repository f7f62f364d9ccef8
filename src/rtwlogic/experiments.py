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
paper's linear cost for fixed M.  Every engine reads the signs as
rng.role_words, one uint64 per period and carrier role holding 64
noise-bits, and lays out the N-bit values it compares with them (hidden
strings, masks) in the same bit order by rng.role_order.  The two
per-trial engines, identification and the baseline, read each batch's
role-word tag seeds and hidden words from rng.trial_draws, and their
exact twins read the same trial from rng.trial_master_seed and
rng.hidden_bits_for, so no trial's seed tag is stated here.
Identification decides every bit with a few word operations per period.
Every set bit the engines count, they count with np.bitwise_count (numpy
>= 2.0), one count per uint64 word, summed over words as integers; it
also locates identification's last decision, as the count of the zeros
below the lowest set bit of a word.
A period's |readout| of the uniform superposition depends only on how
many bits' two carriers agree, and two product strings' readouts differ
at lambda = 1 when an odd number of the bits where they differ have
disagreeing carriers, so `zero-prob`, Monte Carlo `range` and the
mismatch rate read one bit count of L ^ H under a mask per period, drawn
in bounded chunks, with no per-period Fraction.  The baseline compares
whole readout sequences by the same law: it transposes each bit's L ^ H
into one bit per period of uint32 words and keeps its scan exhaustive,
comparing all 2^N candidates on their first word as XORs of two
half-tables of those columns and checking the first first-word match on
the other words.
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
from .rtw import _COLUMNS_CHUNK, build_reference_system, check_lambda
from .signal import trace_product

DEFAULT_SEED = 1
ZERO_PROB_BITS_CAP = 20
EXHAUSTIVE_BITS_CAP = 6
BASELINE_BITS_CAP = 14
# resolution_bits builds ((1+lambda)/(1-lambda))^N exactly, at a cost that
# grows with the power's size, about N times the bit lengths of the ratio's
# numerator and denominator: about 0.1 s up to this many bits (lambda = 1/2
# at N = 666,666, 1/1000 at N = 10^5), 2.7 s at 2 * 10^7
RESOLUTION_POWER_BITS_CAP = 2 * 10**6
# bytes one identification trial, or one reference system's sign draw, may
# need: the smallest unit of work must fit in memory
ENGINE_TRIAL_BYTES_CAP = 1 << 28


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

# bytes per batch, small enough to stay in cache: an engine's `_*_bytes`
# count per trial or period times the batch, plus numpy's ufunc buffers, two
# of np.getbufsize() uint64 elements (128 KiB) per call however large the call
_ENGINE_BATCH_BYTES = 1 << 20
_UFUNC_BUFFER_BYTES = 2 * 8 * np.getbufsize()


def _check_memory(what: str, need: int) -> None:
    """Refuse, before allocating, work that needs more than ENGINE_TRIAL_BYTES_CAP."""
    if need > ENGINE_TRIAL_BYTES_CAP:
        raise ValueError(f"{what} needs about {need} bytes; capped at {ENGINE_TRIAL_BYTES_CAP}")


def _batch_trials(what: str, bytes_per_trial: int) -> int:
    """Trials or periods (1 to 8192) per batch, bytes_per_trial each; refuses one above the cap."""
    _check_memory(what, bytes_per_trial)
    return max(1, min(8192, (_ENGINE_BATCH_BYTES - _UFUNC_BUFFER_BYTES) // bytes_per_trial))


def _period_bytes(num_bits: int) -> int:
    """Bytes one period of _carriers_differing holds, W = ceil(N/64): 30W + 16.

    Its two role words and their masked XOR, which takes its own bit
    counts in place, hold 24W, the draw's period index and the per-period
    sum 8 bytes each.  The other 6W bound one chunk's numpy scratch as a
    share of each of its periods: rng's mix scratch, at most the size of
    the words it draws, while the XOR and the sum do not yet exist, and
    the broadcast buffer of the mask after.
    """
    return 30 * rng.num_words(num_bits) + 16


def _carriers_differing(seed: int, num_bits: int, periods: int, mask: int) -> Iterator[np.ndarray]:
    """Per period, how many bits of a bits-integer mask have carriers of opposite sign.

    A bit's carriers differ where its bits in the period's two
    rng.role_words do, so this is the number of set bits of (L ^ H) & mask
    in role order: np.bitwise_count of each masked word, written back over
    it, summed over the period's W words as integers.  _period_bytes
    counts what a period holds and sizes the chunks.
    """
    n_words = rng.num_words(num_bits)
    chunk = _batch_trials(f"one period of {num_bits} bits", _period_bytes(num_bits))
    role_mask = rng.role_order(np.frombuffer(mask.to_bytes(8 * n_words, "little"), "<u8"), num_bits)
    seeds = rng.word_seeds(seed, n_words)
    for start in range(0, periods, chunk):
        words = rng.role_words(seeds, min(chunk, periods - start), start)
        differ = words[0] ^ words[1]
        differ &= role_mask[:, None]
        yield np.bitwise_count(differ, out=differ).sum(axis=0)


def zero_prob_engine(num_bits: int, trials: int, seed: int) -> np.ndarray:
    """count[a]: periods in which exactly a bits' two carriers agree (int64, N+1).

    Each trial is one clock period of a single reference system, read by
    _carriers_differing.  By `algebra.agreement_law`, a is all the uniform
    superposition's |readout| depends on; at lambda = 1 it is non-zero iff
    a = N, and a is N minus the noise-bits whose carriers differ.
    """
    count = np.zeros(num_bits + 1, dtype=np.int64)
    for differ in _carriers_differing(seed, num_bits, trials, (1 << num_bits) - 1):
        count += np.bincount(num_bits - differ.astype(np.intp), minlength=num_bits + 1)
    return count


def mismatch_rate_engine(num_bits: int, periods: int, seed: int) -> tuple[int, int, int]:
    """(mismatch count, w1 bits, w2 bits) for two distinct random strings.

    Readouts at lambda = 1 are sign products, so two strings' readouts
    differ in a period exactly when an odd number of the bits where the
    strings differ have carriers of opposite sign.
    """
    w1 = rng.hidden_bits_for(seed, num_bits)
    w2 = rng.draw_bits(seed, 2 * num_bits + 1, num_bits)  # the tag after w1's
    if w2 == w1:
        w2 ^= 1
    differing = _carriers_differing(seed, num_bits, periods, w1 ^ w2)
    return sum(int((differ & _ONE).sum()) for differ in differing), w1, w2


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


_ONE = np.uint64(1)


def _identification_trial_bytes(num_bits: int, max_periods: int) -> int:
    """Bytes one identification trial holds, W = ceil(N/64) words per role and period.

    Its (M+1, 2, W) role words, their (M, 2, W) switches, eight (M, W)
    decision words (five held, three temporaries of the contradiction
    check), its (2, W) tag seeds and its W hidden words.  The same count
    sizes batches and refuses a trial above ENGINE_TRIAL_BYTES_CAP.
    """
    m = max_periods
    return 8 * rng.num_words(num_bits) * (2 * (m + 1) + 2 * m + 8 * m + 2 + 1)


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
    """Monte Carlo identification trials on the role-word engine.

    Each trial derives its own master seed and hidden string and reads
    only the 2N*M switching instants of its observation window, so a
    trial costs O(N*M).  In shifted mode exactly one stream switches per
    tick, so the observed waveform flips at instant (period k, slot j)
    exactly when stream j is a factor and its period-k sign differs from
    its period-(k-1) sign.  Signs come from rng.role_words: one uint64 per
    period and role holds 64 noise-bits, noise-bit q + 1 at bit
    63 - q % 64 of word q // 64, and the hidden words are laid out in the
    same role order once per trial, so the hidden words, the decided
    value and the recovered string are words of one shape.  A period's
    switch words are its role words XOR the previous period's, with the
    bits past noise-bit N masked; a prefix-OR over the periods marks each
    bit's first event, where it is decided, L before H within a period.
    The last decision is the highest noise-bit, the lowest set bit of the
    last non-zero word x, of the last period with a new decision:
    x & (~x + 1) isolates that bit, and np.bitwise_count of it minus one,
    the zeros below it, gives its position.  The observed flips are
    derived from the hidden string, so the decided value is
    hidden & decided for any sign words, and the three soundness counts
    (wrong complete trials, and np.bitwise_count sums of wrong decided
    bits and contradicting events) are zero unless the lines that compute
    them break; they cannot catch a flaw in the decision rule.  The evidence
    for the rule is that aggregates match the tick-scanning reference
    identifier, tsinbl_identify, trial for trial (see the unit tests).
    _identification_trial_bytes sizes the batches; results do not depend on it.
    """
    if num_bits < 1 or max_periods < 1 or trials < 1:
        raise ValueError("num_bits, max_periods and trials must be >= 1")
    n = num_bits
    m = max_periods
    spp = 2 * n
    what = f"one identification trial at {n} bits and {m} periods"
    batch_size = _batch_trials(what, _identification_trial_bytes(n, m))
    n_words = rng.num_words(n)
    full = rng.role_order(np.full(n_words, rng.MASK64, dtype=np.uint64), n)

    undecided_trials = 0
    complete_trials = 0
    wrong_complete = 0
    wrong_decided_bits = 0
    contradictions = 0
    ticks_sum = 0
    periods_sum = 0
    kept: dict[str, list[np.ndarray]] = {k: [] for k in
        ("hidden_bits", "complete", "recovered_bits", "ticks_observed", "periods_used")}

    for _, tag_seeds, hidden in rng.trial_draws(seed, n, trials, batch_size):
        b = len(tag_seeds)
        # (b, W) hidden_bits_for, set where the H carrier is the factor
        hidden = rng.role_order(hidden, n)
        # (M+1, b, 2, W): periods lead, so the XOR below writes each
        # period's switches as one block of its C-order result
        words = rng.role_words(tag_seeds, m + 1).transpose(3, 0, 1, 2)
        # switch[k]: the carriers that change sign at their period-(k+1)
        # switching instant, one of the M in the window; (M, b, 2, W)
        switch = np.bitwise_xor(words[1:], words[:-1], order="C")
        del words
        switch &= full
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
        contradictions += int(np.bitwise_count(np.bitwise_or.reduce(against, axis=0)).sum())

        complete = (decided == full).all(axis=1)
        wrong = chosen ^ hidden
        wrong_decided_bits += int(np.bitwise_count(wrong & decided).sum())
        wrong_complete += int((complete & (wrong != 0).any(axis=1)).sum())
        complete_trials += int(complete.sum())
        undecided_trials += int(b - complete.sum())
        # the last period with a new decision, and in it the highest
        # noise-bit decided: the lowest set bit of the last non-zero word
        last = (seen != decided).any(axis=2).sum(axis=0)
        rows = np.arange(b)
        last_new = new[last, rows]
        w = n_words - 1 - np.argmax(last_new[:, ::-1] != 0, axis=1)
        low = last_new[rows, w]
        low &= ~low + _ONE
        # noise-bit q + 1 sits at bit 63 - q % 64 of word q // 64, and the
        # lowest set bit's position is the count of the zeros below it
        q = 64 * w + 63 - np.bitwise_count(low - _ONE)
        is_h = (s_l[last, rows, w] & low) == 0
        # the decision tick is (last+1)*2N + slot 2q + is_h
        t_obs = np.where(complete, last * spp + 2 * q + is_h + 1, m * spp)
        p_used = np.where(complete, last + 1, m)
        ticks_sum += int(t_obs.sum())
        periods_sum += int(p_used.sum())
        if keep_per_trial:
            kept["hidden_bits"].append(rng.role_order_ints(hidden, n))
            kept["complete"].append(complete)
            kept["recovered_bits"].append(rng.role_order_ints(chosen & decided, n))
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
    ts = rng.trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, rng.hidden_bits_for(ts, num_bits))
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


def _xor_table(columns: np.ndarray) -> np.ndarray:
    """(b, W, 2^k) XOR of the columns of each k-bit string's 1 bits, in catalog order.

    columns is (b, k, W), one row per bit, first bit most significant;
    the table has their dtype and holds each period word's 2^k values in
    one contiguous row.
    """
    b, k, w = columns.shape
    table = np.zeros((b, w, 1 << k), dtype=columns.dtype)
    for i in range(k):  # the last bit first: strings with bit k - 1 - i set follow the rest
        size = 1 << i
        out = table[..., size : 2 * size]
        np.bitwise_xor(table[..., :size], columns[:, k - 1 - i, :, None], out=out)
    return table


def _differ_columns(tag_seeds: np.ndarray, num_bits: int, periods: int) -> np.ndarray:
    """(b, N, ceil(P/32)) uint32 carriers-differ columns, one row per noise-bit.

    tag_seeds is the trials' (b, 2, 1) rng.trial_draws tag seeds.  Bit
    k % 32 of word k // 32 of row q is the bit of noise-bit q + 1 in period
    k's L ^ H role words; bits past period P stay clear.
    """
    b, n = len(tag_seeds), num_bits
    words = rng.role_words(tag_seeds, periods)[:, :, 0]
    differ = (words[:, 0] ^ words[:, 1]).astype(">u8").view(np.uint8).reshape(b, periods, 8)
    packed = np.packbits(np.unpackbits(differ, axis=2, count=n), axis=1, bitorder="little")
    columns = np.zeros((b, n, 4 * -(-periods // 32)), dtype=np.uint8)
    columns[:, :, : packed.shape[1]] = packed.transpose(0, 2, 1)
    return columns.view("<u4")


def _baseline_trial_bytes(num_bits: int, periods: int) -> int:
    """Bytes one baseline trial holds, W = ceil(P/32); sizes batches and refuses.

    Its (2, P) role words and their fold, P differ values and their
    big-endian copy, (P, N) unpacked bits, their packed bytes, the (N, W)
    columns, both half-tables, the XOR'd first word of the high one, and
    the 2^N-byte first-word match mask.
    """
    n, p, w = num_bits, periods, -(-periods // 32)
    hi, lo = 1 << n // 2, 1 << n - n // 2
    signs = 8 * 6 * p + n * p + 2 * 4 * n * w
    return signs + 4 * w * (hi + lo) + 4 * hi + (1 << n)


def run_baseline_trials(
    num_bits: int,
    periods_per_test: int,
    trials: int,
    seed: int,
    keep_per_trial: bool = False,
) -> BaselineTrialStats:
    """Monte Carlo baseline searches at lambda = 1 on bit-packed XOR parities.

    Readouts at lambda = 1 are sign products, so two strings' readouts
    differ in a period exactly when an odd number of the bits where they
    differ have carriers of opposite sign: strings compare through the XOR
    of one column per 1 bit, that bit's carriers-differ sequence packed
    into W = ceil(P/32) uint32 words.  One rng.role_words word per carrier
    role holds every noise-bit, since the 2^N-byte match mask keeps
    N <= 27 under ENGINE_TRIAL_BYTES_CAP.  Batches of trials are scanned
    at once.  Candidate c splits into its first floor(N/2) bits (c_hi) and
    the rest (c_lo) and reads Hi[c_hi] ^ Lo[c_lo], so two half-tables of
    at most 2^ceil(N/2) rows stand in for the 2^N-row catalog.  All 2^N
    candidates are compared on their first word (periods 0..31), and the
    flattened match mask is in catalog order (all-L first).  Above 32
    periods the first first-word match is checked on the other words; a
    candidate that differs there (a chance of 2^-32 each) is passed over
    for the next first-word match, one pass per earlier first-word-only
    match, so in practice one.  A trial's cost is the index of the first
    candidate that survives its whole period budget, exactly as the
    sequential reference search counts it.
    """
    if num_bits < 1 or periods_per_test < 1 or trials < 1:
        raise ValueError("num_bits, periods_per_test and trials must be >= 1")
    n = num_bits
    n_hi = n // 2
    n_words = -(-periods_per_test // 32)
    what = f"one baseline trial at {n} bits and {periods_per_test} periods"
    batch_size = _batch_trials(what, _baseline_trial_bytes(n, periods_per_test))
    tests = np.empty(trials, dtype=np.int64) if keep_per_trial else None
    tests_sum = false_matches = 0
    # the match mask keeps N <= 27, so one word holds each role and the string
    for start, tag_seeds, hidden in rng.trial_draws(seed, n, trials, batch_size):
        b = len(tag_seeds)
        hidden = (hidden[:, 0] & np.uint64((1 << n) - 1)).astype(np.intp)  # hidden_bits_for
        columns = _differ_columns(tag_seeds, n, periods_per_test)
        hi = _xor_table(columns[:, :n_hi])
        lo = _xor_table(columns[:, n_hi:])
        c_hi, c_lo = np.divmod(hidden, lo.shape[2])
        unknown = hi[np.arange(b), :, c_hi] ^ lo[np.arange(b), :, c_lo]
        match = ((hi[:, 0] ^ unknown[:, :1])[:, :, None] == lo[:, 0, None, :]).reshape(b, -1)
        first = np.argmax(match, axis=1)
        # a first-word match that differs on a later word (2^-32 a candidate)
        # gives way to the trial's next first-word match; the hidden string
        # matches on every word, so there is one
        pending = np.arange(b if n_words > 1 else 0)
        while len(pending):
            c_hi, c_lo = np.divmod(first[pending], lo.shape[2])
            differs = (hi[pending, :, c_hi] ^ lo[pending, :, c_lo] ^ unknown[pending]).any(axis=1)
            pending = pending[differs]
            for t in pending:
                first[t] += 1 + np.argmax(match[t, first[t] + 1 :])
        tests_sum += int(first.sum()) + b
        false_matches += int((first != hidden).sum())
        if keep_per_trial:
            tests[start : start + b] = first + 1
    return BaselineTrialStats(
        trials=trials,
        periods_per_test=periods_per_test,
        mean_tests=tests_sum / trials,
        false_matches=false_matches,
        tests=tests,
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
    ts = rng.trial_master_seed(seed, trial_index)
    hidden = ProductString(num_bits, rng.hidden_bits_for(ts, num_bits))
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
    Requires N >= 1, 0 < lambda < 1 (see _range_ratio) and a power of at
    most RESOLUTION_POWER_BITS_CAP bits, which admits at most N = 666,666
    (lambda = 1/2, ratio 3/1, the fewest bits any ratio has).
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    ratio = _range_ratio(lam)
    size = num_bits * (ratio.numerator.bit_length() + ratio.denominator.bit_length())
    if size > RESOLUTION_POWER_BITS_CAP:
        raise ValueError(
            f"resolution at {num_bits} bits and lambda = {Fraction(lam)} builds a power of "
            f"about {size} bits; capped at {RESOLUTION_POWER_BITS_CAP}"
        )
    return ceil_log2(ratio**num_bits)


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
    (1+lambda)^N exactly, with nothing outside.  The evaluator returns one
    shared object per distinct value, so the columns are grouped by object
    identity first and each distinct value is compared once; `samples`
    still counts every column.  Monte Carlo mode samples periods and must
    stay inside.  |readout| grows with the agreement count a, so Monte
    Carlo mode reads `algebra.agreement_law` exactly at the smallest and
    largest a of the zero_prob_engine histogram.  Its bounds check cannot
    fail, since every (1+lambda)^a (1-lambda)^(N-a) lies within the
    bounds; it stays so until the report checks the histogram against its
    binomial law.
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
        _batch_trials(f"one period of {num_bits} bits", _period_bytes(num_bits))
    _check_renderable(num_bits, lam)
    t_min = (1 - lam) ** num_bits
    t_max = (1 + lam) ** num_bits
    if exhaustive:
        value = evaluator(uniform_superposition(num_bits), lam)
        columns = iter_product((-1, 1), repeat=2 * num_bits)
        # one entry per shared value object; the dict keeps each alive, so
        # no id is reused, and equal values that are not shared only add
        # entries
        distinct = {id(v): v for v in map(value, columns)}
        values = [abs(v) for v in distinct.values()]
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
            "samples": 4**num_bits if exhaustive else trials,
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
) -> tuple[IdentificationTrialStats, Fraction, float, bool, bool]:
    """Run and judge a budget's trials: (stats, clamped bound, three sigma, rate ok, sound).

    The rate check: the undecided rate is at most the clamped union bound
    plus three binomial sigmas, 0 when the bound is 1.  The soundness
    check: no fully decided trial wrong, no decided bit wrong, no
    contradiction.
    """
    stats = run_identification_trials(budget.num_bits, budget.max_periods, trials, seed)
    bound = budget.clamped_epsilon
    p = float(bound)
    tol = three_sigma(p, trials) if p < 1 else 0.0
    sound = (
        stats.wrong_complete_trials == 0
        and stats.wrong_decided_bits == 0
        and stats.contradictions == 0
    )
    return stats, bound, tol, stats.undecided_rate <= p + tol, sound


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
    stats, bound, tol, rate_ok, sound = _identification_verdict(budget, trials, seed)
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
        "undecided_bound": bound,
        "undecided_bound_float": float(bound),
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
    for n, m in ((b.num_bits, b.max_periods) for b in budgets):  # before any trial
        _batch_trials(f"one identification trial at {n} bits", _identification_trial_bytes(n, m))
    rows: list[dict[str, object]] = []
    baseline_points: list[tuple[int, float]] = []
    passed = True  # each bit count's rate and soundness checks, then the fits
    for budget in budgets:
        n = budget.num_bits
        t0 = time.perf_counter()
        stats, _, _, rate_ok, sound = _identification_verdict(
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


def _not_demo_bytes(num_bits: int, periods: int) -> int:
    """Bytes not_gate_demo holds at most, N = num_bits and P = periods.

    rng.matrix_bytes of its (2N, P) signs, the one (2N, P) bool temporary
    of ReferenceSystem's +-1 check, one period_columns chunk at 64 bytes a
    sign and its three expansions at _EXPANSION_TERM_BYTES a term, 2^N
    terms (2^21 above DEFAULT_EXPAND_CAP).
    """
    signs = rng.matrix_bytes(2 * num_bits, periods) + 2 * num_bits * periods
    terms = _EXPANSION_TERM_BYTES << min(num_bits, DEFAULT_EXPAND_CAP + 1)
    return signs + 64 * max(_COLUMNS_CHUNK, 2 * num_bits) + terms


def not_gate_demo(
    num_bits: int,
    lam: Fraction | str,
    target_bit: int,
    periods: int = 1000,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Inversion of one bit by multiplying with its H*L reference product.

    Checks the symbolic coefficient permutation (H terms to L unchanged, L terms to
    H scaled by lambda^2), that the factored result expands to it, and that the
    waveform route (the uniform superposition's trace multiplied pointwise by the
    H_r * L_r trace) agrees with the factored result exactly at every readout, O(N)
    per period; the 2^N-term expansion is paid once per run.  Every refusal, the
    memory check on _not_demo_bytes included, comes before any draw or expansion.
    """
    lam = Fraction(lam)
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if not 1 <= target_bit <= num_bits:
        raise ValueError(f"target_bit must be in 1..{num_bits}")
    need = _not_demo_bytes(num_bits, periods)
    _check_memory(f"not-demo at {num_bits} bits over {periods} periods", need)
    refs = build_reference_system(seed, num_bits, periods, lam)
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
    # one pass over the periods, counted per identity triple of the three
    # shared values, then one exact r * h == s per distinct triple.  The
    # dict keeps each triple's objects alive, so no id is reused; its
    # entries are the distinct value triples, O(N) of them, so nothing per
    # period outlives its column
    groups: dict[tuple[int, int, int], list] = {}
    for column in refs.period_columns():
        r, h, s = readout(column), hl(column), symbolic(column)
        key = id(r), id(h), id(s)
        if key in groups:
            groups[key][3] += 1
        else:
            groups[key] = [r, h, s, 1]
    agree = sum(n for r, h, s, n in groups.values() if r * h == s)
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
