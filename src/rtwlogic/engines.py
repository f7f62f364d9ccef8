"""Monte Carlo engines on rng.role_words, their batch sizing and their memory counts.

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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import rng

# bytes one identification trial, or one reference system's sign draw, may
# need: the smallest unit of work must fit in memory
ENGINE_TRIAL_BYTES_CAP = 1 << 28

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
