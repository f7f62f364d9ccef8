"""Monte Carlo engines on rng.role_words, their batch sizing and their memory counts.

Every engine reads the waveform signs of the exact Fraction pipeline as
rng.role_words, one uint64 per period and carrier role holding 64
noise-bits, lays out the N-bit values it compares with them (hidden
strings, masks) in the same bit order by rng.role_order, and counts set
bits with np.bitwise_count (numpy >= 2.0); the unit tests pin each engine
trial for trial to its exact twin.  The per-trial engines, identification
and the baseline, read each batch's tag seeds and hidden words from
rng.trial_draws.  Identification works on switching instants, not ticks:
a trial reads the 2N * M events of its window, O(N * M), the paper's
linear cost for fixed M; two OR-reductions of its events decide its
bits, and its last decision is the max of the closed-form ticks of its
first events.  The per-period engines share one loop over bounded
chunks of periods and read each period as a key made of bit
counts of L ^ H, with no Fraction: zero-prob and Monte Carlo range the
number of bits whose carriers agree, which fixes |readout|, the mismatch
rate its parity under a mask, since two strings' readouts differ at
lambda = 1 when an odd number of the bits where they differ have
disagreeing carriers, and not-demo the A-parity and the target's and the
other bits' agreement.  The baseline compares readout sequences by the
same law: every candidate on its first 32 periods, as XORs of two
half-tables of per-bit L ^ H columns, and a first-word match on the later
periods, as the XOR of the columns of the bits where it differs from the
hidden string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng

# bytes one identification or baseline trial, one period of the per-period
# engines or one not-demo run may need: the smallest unit of work must fit
# in memory
ENGINE_TRIAL_BYTES_CAP = 1 << 28

# bytes per batch, small enough to stay in cache: an engine's `_*_bytes`
# count per trial or period times the batch, plus numpy's ufunc buffers, two
# of np.getbufsize() uint64 elements (128 KiB) per call however large the call
_ENGINE_BATCH_BYTES = 1 << 20
_UFUNC_BUFFER_BYTES = 2 * 8 * np.getbufsize()

_ONE = np.uint64(1)


def _check_memory(what: str, need: int) -> None:
    """Refuse, before allocating, work that needs more than ENGINE_TRIAL_BYTES_CAP."""
    if need > ENGINE_TRIAL_BYTES_CAP:
        raise ValueError(f"{what} needs about {need} bytes; capped at {ENGINE_TRIAL_BYTES_CAP}")


def _batch_size(bytes_per_trial: int) -> int:
    """Trials or periods (1 to 8192) of bytes_per_trial each in one batch."""
    return max(1, min(8192, (_ENGINE_BATCH_BYTES - _UFUNC_BUFFER_BYTES) // bytes_per_trial))


def _batch_trials(what: str, bytes_per_trial: int) -> int:
    """_batch_size of bytes_per_trial; refuses a trial or period above the cap."""
    _check_memory(what, bytes_per_trial)
    return _batch_size(bytes_per_trial)


def _period_bytes(num_bits: int) -> int:
    """Bytes one period of _period_histogram holds, W = ceil(N/64): 30W + 16.

    The zero-prob and mismatch keys hold the most: two role words and their
    XOR, which takes its own bit counts in place, 24W, a sum and a key 8
    bytes each.  The other 6W bound a chunk's numpy scratch per period:
    rng's mix scratch, at most the words it draws, and the broadcast buffer
    of the mismatch mask.  not-demo's key works in the words, holding less.
    """
    return 30 * rng.num_words(num_bits) + 16


def _period_histogram(
    seed: int, num_bits: int, periods: int, bins: int, key: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """count[k]: periods whose key is k, an int64 histogram of `bins` bins.

    The one draw loop of the per-period engines: key maps a chunk's
    (2, W, p) rng.role_words, bits past noise-bit N clear, to intp keys and
    may work in them in place.  _period_bytes sizes the chunks.
    """
    n_words = rng.num_words(num_bits)
    chunk = _batch_trials(f"one period of {num_bits} bits", _period_bytes(num_bits))
    last = rng.role_order(np.full(n_words, rng.MASK64, dtype=np.uint64), num_bits)[-1]
    seeds = rng.word_seeds(seed, n_words)
    count = np.zeros(bins, dtype=np.int64)
    for start in range(0, periods, chunk):
        words = rng.role_words(seeds, min(chunk, periods - start), start)
        words[:, -1] &= last
        np.add.at(count, key(words), 1)  # a cost per period, not per bin
        del words  # nothing of this chunk is held while the next is drawn
    return count


def _carriers_differing(words: np.ndarray) -> np.ndarray:
    """Per period of (2, W, p) role words, the bits whose carriers differ: set bits of L ^ H."""
    differ = words[0] ^ words[1]
    return np.bitwise_count(differ, out=differ).sum(axis=0)


def zero_prob_engine(num_bits: int, trials: int, seed: int) -> np.ndarray:
    """count[a]: periods in which exactly a bits' two carriers agree (int64, N+1).

    Each trial is one clock period of a single reference system.  By
    `algebra.agreement_law`, a is all the uniform superposition's
    |readout| depends on; at lambda = 1 it is non-zero iff a = N, and a is
    N minus the noise-bits whose carriers differ.
    """
    return _period_histogram(seed, num_bits, trials, num_bits + 1,
                             lambda words: (num_bits - _carriers_differing(words)).astype(np.intp))


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
    mask = (w1 ^ w2).to_bytes(8 * rng.num_words(num_bits), "little")
    role_mask = rng.role_order(np.frombuffer(mask, "<u8"), num_bits)[:, None]

    def odd(words: np.ndarray) -> np.ndarray:
        words &= role_mask
        return (_carriers_differing(words) & _ONE).astype(np.intp)

    return int(_period_histogram(seed, num_bits, periods, 2, odd)[1]), w1, w2


def not_gate_engine(num_bits: int, target_bit: int, periods: int, seed: int) -> np.ndarray:
    """count[s, t, o]: periods of A-parity s, target agreement t and o other bits agreeing.

    A (2, 2, N) int64 table of the keys that fix a period's readout of the
    uniform superposition, the H_t * L_t inverter's value and the factored
    NOT result (`algebra.agreement_law`, `algebra.selection_parity`).  The
    L role words are XOR'd with the H words in place; the A-parity is that
    of the H words' set bits, and the target's bit and the set bits of
    L ^ H count the carriers of opposite sign.
    """
    n = num_bits
    word, bit = divmod(target_bit - 1, 64)

    def key(words: np.ndarray) -> np.ndarray:
        # (2 * parity + target differs) * N + others differing, in place
        differ, high = words
        differ ^= high
        k = np.bitwise_count(high, out=high).sum(axis=0) & _ONE
        k *= np.uint64(2 * n)
        k += (differ[word] >> np.uint64(63 - bit) & _ONE) * np.uint64(n - 1)
        k += np.bitwise_count(differ, out=differ).sum(axis=0)
        return k.astype(np.intp)

    return _period_histogram(seed, n, periods, 4 * n, key).reshape(2, 2, n)[:, ::-1, ::-1]


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


def _identification_trial_bytes(num_bits: int, max_periods: int) -> int:
    """Bytes one identification trial holds, W = ceil(N/64) words per role and period.

    7MW window words while says_l is reduced, the peak: (2, M, W) switches
    and flips and the reduction's three temporaries.  10W more: (2, W) tag
    seeds, drawn and role-ordered hidden words, says_h, says_l, decided,
    wrong, and two for per-trial ticks and periods used, held with 4MW at a
    batch's end, the peak at M = 1.  It sizes batches and refuses above the cap.
    """
    m = max_periods
    return 8 * rng.num_words(num_bits) * (2 * m + 2 * m + 3 * m + 2 + 1 + 1 + 4 + 2)


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
    same role order, so the hidden words, the decided value and the
    recovered string are words of one shape.  A period's switch words are
    its role words XOR the previous period's, bits past noise-bit N
    masked.  An L switch the waveform does not follow or an H switch it
    follows says H, the other two say L; says_h and says_l, OR-reductions
    over the window, are the bits some event says H and L of, and decided
    is their union.  A prefix-OR marks each bit's first event, L before H
    within a period, for the ticks alone: in first-event word w of window
    period k the last decision is at the lowest set bit, z zeros below it,
    tick k * 2N + 2(64w + 63) + 1 - 2z, one later at an H event; ticks
    observed are the max of these for a complete trial and M * 2N
    otherwise, and periods used (ticks observed - 1) // 2N + 1.  The
    observed flips are derived from the hidden string, so the recovered
    string says_h is hidden & decided for any sign words and the three
    soundness counts (wrong complete trials, wrong decided bits, bits said
    both H and L) are zero unless the lines that compute them break; they
    cannot catch a flaw in the decision rule, which the unit tests check
    against the tick-scanning identifier tsinbl_identify trial for trial.
    _identification_trial_bytes sizes the batches; results do not depend
    on it.
    """
    if num_bits < 1 or max_periods < 1 or trials < 1:
        raise ValueError("num_bits, max_periods and trials must be >= 1")
    n, m, spp = num_bits, max_periods, 2 * num_bits
    what = f"one identification trial at {n} bits and {m} periods"
    batch_size = _batch_trials(what, _identification_trial_bytes(n, m))
    n_words = rng.num_words(n)
    full = rng.role_order(np.full(n_words, rng.MASK64, dtype=np.uint64), n)
    # k * 2N + 2(64w + 63) + 1, the tick of bit 0 of word w in period k
    period_ticks, word_ticks = spp * np.arange(m)[:, None, None], 128 * np.arange(n_words) + 127
    complete_trials = wrong_complete = wrong_decided_bits = contradictions = 0
    ticks_sum = periods_sum = 0
    kept: dict[str, list[np.ndarray]] = {k: [] for k in
        ("hidden_bits", "complete", "recovered_bits", "ticks_observed", "periods_used")}

    for _, tag_seeds, hidden in rng.trial_draws(seed, n, trials, batch_size):
        # (b, W) hidden_bits_for, set where the H carrier is the factor
        hidden = rng.role_order(hidden, n)
        # (2, M+1, b, W): roles, then periods, lead, so the XOR below
        # writes each role's switches as one block of its C-order result
        words = rng.role_words(tag_seeds, m + 1).transpose(1, 3, 0, 2)
        # switch[:, k]: the carriers that change sign at their period-(k+1)
        # switching instant, one of the M in the window; (2, M, b, W)
        switch = np.bitwise_xor(words[:, 1:], words[:, :-1], order="C")
        del words
        switch &= full
        s_l, s_h = switch
        u_l, u_h = s_l & ~hidden, s_h & hidden  # the observed waveform flips
        says_h = np.bitwise_or.reduce((s_l ^ u_l) | u_h, axis=0)
        says_l = np.bitwise_or.reduce((s_l & u_l) | (s_h ^ u_h), axis=0)
        del u_l, u_h
        contradictions += int(np.bitwise_count(says_h & says_l).sum())
        decided = says_h | says_l
        new = s_l | s_h
        new[1:] &= ~np.bitwise_or.accumulate(new[:-1], axis=0)  # each bit's first event

        complete = (decided == full).all(axis=1)
        wrong = says_h ^ hidden
        wrong_decided_bits += int(np.bitwise_count(wrong & decided).sum())
        wrong_complete += int((complete & (wrong != 0).any(axis=1)).sum())
        complete_trials += int(complete.sum())
        # each first-event word's last tick by the closed form above, 0 in
        # a word with no first event, in one (M, b, W) buffer
        ticks = ~new
        ticks += _ONE
        ticks &= new  # the lowest set bit
        is_h = (s_l & ticks) == 0
        ticks -= _ONE
        ticks = np.bitwise_count(ticks, out=ticks).view(np.int64)  # z
        ticks *= -2
        ticks += period_ticks
        ticks += word_ticks
        ticks += is_h
        ticks *= new != 0
        t_obs = np.where(complete, ticks.max(axis=(0, 2)), m * spp)
        p_used = (t_obs - 1) // spp + 1
        ticks_sum += int(t_obs.sum())
        periods_sum += int(p_used.sum())
        if keep_per_trial:
            kept["hidden_bits"].append(rng.role_order_ints(hidden, n))
            kept["complete"].append(complete)
            kept["recovered_bits"].append(rng.role_order_ints(says_h, n))
            kept["ticks_observed"].append(t_obs)
            kept["periods_used"].append(p_used)

    extras = {k: np.concatenate(v) for k, v in kept.items()} if keep_per_trial else {}
    return IdentificationTrialStats(
        trials=trials,
        undecided_trials=trials - complete_trials,
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


# right shifts that bring noise-bit q + 1 of a period's L ^ H word, bit 63 - q,
# to bit 0 of a byte, for the top 32 bits of the word (q < 32)
_COLUMN_SHIFTS = (63 - np.arange(32, dtype=np.uint64))[:, None]
# bit 0 of each byte of a word, and the multiplier that moves bit 0 of byte
# j to bit 56 + j, so the top byte holds the word's eight bits in byte order
_BYTE_LOW_BITS = np.uint64(0x0101010101010101)
_GATHER_BYTE_BITS = np.uint64(0x0102040810204080)


def _differ_columns(tag_seeds: np.ndarray, num_bits: int, periods: int) -> np.ndarray:
    """(b, ceil(P/32), N) uint32 carriers-differ columns, one per noise-bit.

    tag_seeds is the trials' (b, 2, 1) rng.trial_draws tag seeds.  Bit
    k % 32 of [t, k // 32, q] is the bit of noise-bit q + 1 in period k's
    L ^ H role words of trial t; bits past period P stay clear.  One right
    shift per noise-bit and period, cast to a byte, brings the bit to bit
    0 of byte k of the noise-bit's row, zero past period P, so a row holds
    one byte per period of 32W; read as little-endian uint64 words of
    eight periods, the rows are masked to those bits, and one multiply
    gathers each word's eight into its top byte, period k at bit k % 8.
    Four such bytes make a uint32 word, and one copy lays the words out
    period word first.  N <= 32; the match mask keeps N <= 27.
    """
    b, n = len(tag_seeds), num_bits
    n_words = -(-periods // 32)
    words = rng.role_words(tag_seeds, periods)[:, :, 0]
    differ = words[:, 0] ^ words[:, 1]
    packed = np.zeros((b, n, 4 * n_words), dtype="<u8")
    by_period = packed.view(np.uint8)[..., :periods]
    np.right_shift(differ[:, None, :], _COLUMN_SHIFTS[:n], out=by_period, casting="unsafe")
    packed &= _BYTE_LOW_BITS
    packed *= _GATHER_BYTE_BITS
    top = packed.view(np.uint8)[..., 7::8].reshape(b, n, n_words, 4)
    return top.transpose(0, 2, 1, 3).copy().view("<u4")[..., 0]


def _baseline_trial_bytes(num_bits: int, periods: int) -> int:
    """Bytes one baseline trial holds, W = ceil(P/32); sizes batches and refuses.

    Its (2, P) role words and one mix temporary of their size, P L ^ H
    words, the (N, 32W) period bytes of the column transpose and the (N, W)
    uint32 columns it yields, the one buffer of both first-word
    half-tables, the XOR'd high one, and the 2^N-byte first-word match
    mask.  Above one period word the later-word check adds its copy of the
    trial's (W - 1, N) later-word columns, their W - 1 XORs and 9N bytes
    of bit mask.
    """
    n, p, w = num_bits, periods, -(-periods // 32)
    hi, lo = 1 << n // 2, 1 << n - n // 2
    signs = 8 * 5 * p + 32 * n * w + 4 * n * w
    check = 4 * (n + 1) * (w - 1) + 9 * n if w > 1 else 0
    return signs + 4 * (hi + lo) + 4 * hi + (1 << n) + check


def _half_tables(columns: np.ndarray) -> np.ndarray:
    """(b, H + L) buffer of both half-tables of (b, N) columns, Hi first.

    H = 2^floor(N/2) and L = 2^ceil(N/2).  Hi[i] is the XOR of the columns
    of the 1 bits of i as a string of the first floor(N/2) bits, first bit
    most significant, and Lo[j] the same over the other bits, so candidate
    c reads Hi[c >> ceil(N/2)] ^ Lo[c mod L].  One doubling pass builds
    both: step i XORs Hi's column floor(N/2) - 1 - i and Lo's column
    N - 1 - i, the last bit first, into both tables at once through a
    (2, H) view of the buffer's first 2H entries, and at odd N one more
    step doubles Lo with its first bit, so the tables cost ceil(N/2) XOR
    calls.
    """
    b, n = columns.shape
    n_hi, n_lo = n // 2, n - n // 2
    size_hi = 1 << n_hi
    table = np.empty((b, size_hi + (1 << n_lo)), dtype=columns.dtype)
    both = table[:, : 2 * size_hi].reshape(b, 2, size_hi)
    both[..., 0] = 0
    for i in range(n_hi):
        size = 1 << i
        pair = columns[:, n_hi - 1 - i :: n_lo, None]
        np.bitwise_xor(both[..., :size], pair, out=both[..., size : 2 * size])
    if n_lo > n_hi:
        np.bitwise_xor(table[:, size_hi : 2 * size_hi], columns[:, n_hi, None],
                       out=table[:, 2 * size_hi :])
    return table


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
    into W = ceil(P/32) uint32 words by _differ_columns.  One
    rng.role_words word per carrier role holds every noise-bit, since the
    2^N-byte match mask keeps N <= 27 under ENGINE_TRIAL_BYTES_CAP.
    Batches of trials are scanned at once.  Candidate c splits into its
    first floor(N/2) bits (c_hi) and the rest (c_lo) and reads
    Hi[c_hi] ^ Lo[c_lo] on the first word (periods 0..31), so two
    half-tables of H = 2^floor(N/2) and L = 2^ceil(N/2) rows stand in for
    the 2^N-row catalog; _half_tables builds both from the first word's
    columns in one (b, H + L) buffer in one doubling pass of ceil(N/2) XOR
    calls.  All 2^N candidates are compared on that word, and the
    flattened match mask is in catalog order (all-L first).  Above 32
    periods the first first-word match c is checked on the other words by
    linearity: its row and the hidden string h's agree there exactly when
    the later-word columns of the 1 bits of c ^ h XOR to zero.  A candidate
    that differs there (a chance of 2^-32 each) is passed over for the next
    first-word match, one pass per earlier first-word-only match, so in
    practice one.  A trial's cost is the index of the first candidate that
    survives its whole period budget, exactly as the sequential reference
    search counts it.
    """
    if num_bits < 1 or periods_per_test < 1 or trials < 1:
        raise ValueError("num_bits, periods_per_test and trials must be >= 1")
    n = num_bits
    n_lo = n - n // 2
    size_hi, size_lo = 1 << n // 2, 1 << n_lo
    n_words = -(-periods_per_test // 32)
    what = f"one baseline trial at {n} bits and {periods_per_test} periods"
    batch_size = _batch_trials(what, _baseline_trial_bytes(n, periods_per_test))
    tests = np.empty(trials, dtype=np.int64) if keep_per_trial else None
    tests_sum = false_matches = 0
    # bit N - 1 - q of a candidate selects column q, noise-bit q + 1's
    bit_values = 1 << np.arange(n - 1, -1, -1)
    # the match mask keeps N <= 27, so one word holds each role and the string
    for start, tag_seeds, hidden in rng.trial_draws(seed, n, trials, batch_size):
        b = len(tag_seeds)
        hidden = (hidden[:, 0] & np.uint64((1 << n) - 1)).astype(np.intp)  # hidden_bits_for
        columns = _differ_columns(tag_seeds, n, periods_per_test)
        table = _half_tables(columns[:, 0])
        hi, lo = table[:, :size_hi], table[:, size_hi:]
        rows = np.arange(b)
        unknown = hi[rows, hidden >> n_lo] ^ lo[rows, hidden & (size_lo - 1)]
        match = ((hi ^ unknown[:, None])[:, :, None] == lo[:, None, :]).reshape(b, -1)
        first = np.argmax(match, axis=1)
        # a first-word match that differs on a later word (2^-32 a candidate)
        # gives way to the trial's next first-word match; the hidden string
        # matches on every word, so there is one
        pending = np.arange(b if n_words > 1 else 0)
        while len(pending):
            ones = ((first[pending] ^ hidden[pending])[:, None] & bit_values) != 0
            later = np.bitwise_xor.reduce(columns[pending, 1:], axis=2, where=ones[:, None])
            pending = pending[later.any(axis=1)]
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
