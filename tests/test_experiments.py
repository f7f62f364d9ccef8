"""Monte Carlo engines, exact cross-checks, and report plumbing.

Every vectorized engine is pinned trial for trial against the exact
Fraction-arithmetic path built from traces, so a regression in either
route breaks the agreement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rtwlogic import algebra as alg
from rtwlogic import engines as eng
from rtwlogic import experiments as exp
from rtwlogic import identify as idf
from rtwlogic import rng
from rtwlogic import rtw
from rtwlogic import signal as sig

# ----------------------------------------------------------------- engines


def _abs_uniform_readout(n: int, lam: Fraction, agreeing: int) -> Fraction:
    # each bit's factor A_r + lam * B_r has magnitude 1 + lam when its
    # carriers agree and 1 - lam when they do not
    return (1 + lam) ** agreeing * (1 - lam) ** (n - agreeing)


def test_zero_prob_engine_matches_exact_readouts() -> None:
    # the histogram over the first k + 1 periods minus the one over the
    # first k is period k's agreement count, pinned period for period
    # against the exact readouts' |Y|
    periods = 24
    for n in (1, 2, 3, 5):
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            for seed in (0, 11, -5, 2**70 + 3):
                refs = rtw.build_reference_system(seed, n, periods, lam)
                outs = sig.superposition_readouts(refs, alg.uniform_superposition(n))
                prefix = [eng.zero_prob_engine(n, k, seed) for k in range(periods + 1)]
                count = prefix[-1]
                assert count.dtype == np.int64 and count.shape == (n + 1,)
                assert count.sum() == periods
                for k, y in enumerate(outs):
                    (a,) = np.flatnonzero(prefix[k + 1] - prefix[k])
                    assert abs(y) == _abs_uniform_readout(n, lam, int(a))
                if lam == 1:
                    assert count[n] == sum(1 for y in outs if y != 0)


def test_sign_chunk_engines_batching_invariance(monkeypatch) -> None:
    n, periods, seed = 3, 100, 4
    whole_count = eng.zero_prob_engine(n, periods, seed)
    whole_mismatch = eng.mismatch_rate_engine(n, periods, seed)
    # both engines hold _period_bytes(3) = 40 bytes per period: chunks of 21
    # periods, the last one of 16, and no sign_matrix
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + 40 * 21 + 5)
    drawn: dict[str, list[int]] = {"role_words": [], "sign_matrix": []}

    role_words, sign_matrix = rng.role_words, rng.sign_matrix

    def counted_words(seeds, count, start_period=0):
        drawn["role_words"].append(count)
        return role_words(seeds, count, start_period)

    def counted_matrix(seed, width, count, start_period=0):
        drawn["sign_matrix"].append(count)
        return sign_matrix(seed, width, count, start_period)

    monkeypatch.setattr(rng, "role_words", counted_words)
    monkeypatch.setattr(rng, "sign_matrix", counted_matrix)
    assert (eng.zero_prob_engine(n, periods, seed) == whole_count).all()
    assert drawn == {"role_words": [21] * 4 + [16], "sign_matrix": []}
    drawn["role_words"].clear()
    assert eng.mismatch_rate_engine(n, periods, seed) == whole_mismatch
    assert drawn == {"role_words": [21] * 4 + [16], "sign_matrix": []}


# the two strings' difference mask crosses a role word at 64 bits
@pytest.mark.parametrize("n", [1, 3, 64, 65, 130])
def test_mismatch_engine_matches_exact_readouts(n: int) -> None:
    periods, seed = 300, 5
    mismatches, b1, b2 = eng.mismatch_rate_engine(n, periods, seed)
    assert b1 != b2
    refs = rtw.build_reference_system(seed, n, periods, lam=1)
    r1 = sig.product_readouts(refs, alg.ProductString(n, b1))
    r2 = sig.product_readouts(refs, alg.ProductString(n, b2))
    exact = sum(1 for a, b in zip(r1, r2) if a != b)
    assert mismatches == exact


def test_mismatch_rate_near_half() -> None:
    # each period mismatches with probability 1/2, independently; by
    # Hoeffding the rate lies within 0.0045 of it at 2^19 periods, but for
    # a tail of _LAW_TAIL
    periods = 2**19
    mismatches, _, _ = eng.mismatch_rate_engine(8, periods, 1)
    assert abs(mismatches / periods - 0.5) < math.sqrt(math.log(2 / _LAW_TAIL) / (2 * periods))


def _assert_trials_match(stats: eng.IdentificationTrialStats, n: int, exact_trial) -> None:
    for i in range(stats.trials):
        hidden, res = exact_trial(i)
        assert stats.hidden_bits[i] == hidden.bits
        assert bool(stats.complete[i]) == res.complete
        assert stats.ticks_observed[i] == res.ticks_observed
        assert stats.periods_used[i] == res.periods_used
        recovered = int(stats.recovered_bits[i])
        for r, value in res.decided.items():
            assert (recovered >> (n - r)) & 1 == (value == "H")
        if res.complete:
            assert stats.recovered_bits[i] == res.product_string().bits


def _mixed_trials(n: int, m: int) -> int:
    """Trials enough that some complete and some stay undecided, but for a tail below 1e-9.

    A trial leaves a bit undecided with probability p = 1 - (1 - 4^-M)^N,
    and trials are independent, so T trials miss one kind or the other
    with probability (1 - p)^T + p^T.
    """
    p = 1 - (1 - 0.25**m) ** n
    trials = 1
    while (1 - p) ** trials + p**trials >= 1e-9:
        trials += 1
    return trials


def _assert_engine_matches_exact(n: int, m: int, trials: int, seed: int) -> None:
    stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert stats.contradictions == 0
    # every pinned case mixes fully decided and undecided trials
    assert 0 < stats.complete_trials < trials
    _assert_trials_match(stats, n, lambda i: exp.identification_trial_exact(seed, i, n, m))


def _assert_engine_matches_exact_long_window(n: int, m: int, trials: int, seed: int) -> None:
    # a window of 63 or more periods leaves a bit undecided with probability
    # about 4^-63, so every trial completes
    stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert stats.contradictions == 0
    assert stats.complete_trials == trials
    _assert_trials_match(stats, n, lambda i: exp.identification_trial_exact(seed, i, n, m))


def test_identification_engine_matches_exact_trials() -> None:
    _assert_engine_matches_exact(4, 3, _mixed_trials(4, 3), 2)


@pytest.mark.parametrize("n, m", [(65, 4), (128, 3), (200, 4)])
def test_identification_engine_matches_exact_trials_above_64_bits(n: int, m: int) -> None:
    _assert_engine_matches_exact(n, m, _mixed_trials(n, m), 2)


def test_identification_engine_matches_exact_trials_at_1024_bits() -> None:
    # at M = 6 about 22% of trials leave a bit undecided: 1 - (1 - 4^-6)^1024
    _assert_engine_matches_exact(1024, 6, 128, 5)


@pytest.mark.parametrize("m", [63, 64, 65, 130])
@pytest.mark.parametrize("n", [1, 3])
def test_identification_engine_matches_exact_trials_across_word_boundaries(n: int, m: int) -> None:
    # M + 1 periods around 64 cross the uint64 period-word boundary
    _assert_engine_matches_exact_long_window(n, m, 8, 3)


def test_identification_engine_matches_exact_trials_decided_past_first_plane_word() -> None:
    # at N = 130 the last decision of a trial, its highest noise-bit decided
    # in its last period, often lies in role word 1 or 2 (noise-bits 65..130)
    n, m, trials, seed = 130, 6, 12, 4
    stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    _assert_trials_match(stats, n, lambda i: exp.identification_trial_exact(seed, i, n, m))
    # ticks observed end at slot 2(r-1) + is_h of the last decided bit r
    last_bits = (stats.ticks_observed[stats.complete] - 1) % (2 * n) // 2 + 1
    assert (n - last_bits >= 64).any()


def _held(key: int, n: int) -> tuple[int, int]:
    """(noise-bit index q, last held period) for one trial, chosen from a
    tag seed: both carriers of noise-bit q + 1 keep their period-0 sign
    through period 60..139, so that bit is decided past the first period
    word or never."""
    return (key >> 8) % n, 60 + key % 80


def test_identification_engine_matches_exact_trials_decided_late(monkeypatch) -> None:
    n, m, trials, seed = 3, 130, 40, 5
    role_words = rng.role_words

    def held_words(seeds, num_periods):
        # each trial's choice comes from its (role 0, word 0) tag seed,
        # derive_seed(trial seed, 0)
        words = role_words(seeds, num_periods)  # (trials, 2, W, P)
        for t, key in enumerate(seeds[:, 0, 0].tolist()):
            q, hold = _held(key, n)
            bit = np.uint64(1 << (63 - q % 64))
            first = words[t, :, q // 64, :1] & bit
            words[t, :, q // 64, : hold + 1] &= ~bit
            words[t, :, q // 64, : hold + 1] |= first
        return words

    def exact_trial(i):
        ts = rng.trial_master_seed(seed, i)
        hidden = alg.ProductString(n, rng.hidden_bits_for(ts, n))
        signs = rng.sign_matrix(ts, 2 * n, m + 1)
        q, hold = _held(rng.derive_seed(ts, 0), n)
        signs[2 * q : 2 * q + 2, : hold + 1] = signs[2 * q : 2 * q + 2, :1]
        refs = rtw.ReferenceSystem(rtw.ClockGrid(n, m + 1), Fraction(1), ts, signs)
        return hidden, idf.tsinbl_identify(sig.trace_product(refs, hidden, shifted=True), refs, m)

    # the exact path draws through role_words too, and holds on its own
    with monkeypatch.context() as patched:
        patched.setattr(rng, "role_words", held_words)
        stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert 0 < stats.complete_trials < trials
    # some trial is decided past period 64, once its held carriers are
    # released
    assert (stats.periods_used[stats.complete] > 64).any()
    _assert_trials_match(stats, n, exact_trial)


@pytest.mark.parametrize("event", ["L", "H"])
@pytest.mark.parametrize("bit", [1, 64, 65, 128])
def test_last_decision_at_role_word_edges(monkeypatch, bit: int, event: str) -> None:
    # every noise-bit but one switches both carriers at the first window
    # period; that one holds until period 3 and then switches only its L or
    # only its H carrier, so it is every trial's last decision, at bit 63 or
    # bit 0 of role word 0 or 1.  The other L carriers switch again at
    # period 3, so that period's L events are not the last decision's alone
    n, m, trials, seed, late = 128, 4, 6, 7, 3
    q = bit - 1
    role_words = rng.role_words

    def edge_words(seeds, num_periods, start_period=0):
        # a function of the (role, word) axes and the period alone, so the
        # engine and the exact path's sign_matrix read the same signs
        start = role_words(seeds, 1)  # (..., 2, W, 1): the period-0 words
        k = np.arange(start_period, start_period + num_periods)
        held = np.zeros(start.shape[-3:], dtype=np.uint64)
        held[:, q // 64] = np.uint64(1 << (63 - q % 64))
        again = ~held
        again[1] = 0
        again[int(event == "H")] |= held[0]
        return start ^ np.where(k >= 1, ~held, 0) ^ np.where(k >= late, again, 0)

    monkeypatch.setattr(rng, "role_words", edge_words)
    stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert stats.complete_trials == trials
    assert (stats.periods_used == late).all()
    # the decision tick is slot 2q of the last period, one later for an H event
    assert ((stats.ticks_observed - 1) % (2 * n) == 2 * q + (event == "H")).all()
    _assert_trials_match(stats, n, lambda i: exp.identification_trial_exact(seed, i, n, m))


def test_hidden_strings_cover_every_bit_above_64(monkeypatch) -> None:
    # a single masked 64-bit word would leave bits 1..36 always L at N = 100
    n, trials, seed = 100, 200, 5
    batch = 7 * eng._identification_trial_bytes(n, 1)
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + batch)
    drawn = _spy_role_words(monkeypatch)
    stats = eng.run_identification_trials(n, 1, trials, seed, keep_per_trial=True)
    assert [len(words) for words in drawn] == [7] * 28 + [4]
    union = 0
    for i, bits in enumerate(stats.hidden_bits):
        assert bits == rng.hidden_bits_for(rng.trial_master_seed(seed, i), n)
        union |= int(bits)
    assert union == (1 << n) - 1


def _spy_role_words(monkeypatch) -> list[np.ndarray]:
    """Every rng.role_words result, in call order."""
    drawn = []
    role_words = rng.role_words

    def spied(*args):
        drawn.append(role_words(*args))
        return drawn[-1]

    monkeypatch.setattr(rng, "role_words", spied)
    return drawn


@pytest.mark.parametrize("n", [1, 14, 63, 64, 65, 130, 1024])
def test_identification_trials_read_the_scalar_seed_chain(monkeypatch, n: int) -> None:
    # five trials in batches of two: each trial's hidden string and role
    # words are those of its own trial_master_seed
    m, trials, seed = 2, 5, 2**64 - 3
    batch = 2 * eng._identification_trial_bytes(n, m)
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + batch)
    drawn = _spy_role_words(monkeypatch)
    stats = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert [len(words) for words in drawn] == [2, 2, 1]
    words = np.concatenate(drawn)
    for t in range(trials):
        ts = rng.trial_master_seed(seed, t)
        assert stats.hidden_bits[t] == rng.hidden_bits_for(ts, n)
        assert (words[t] == rng.role_words(rng.word_seeds(ts, -(-n // 64)), m + 1)).all()


@pytest.mark.parametrize("n", [1, 14])
def test_baseline_trials_read_the_scalar_seed_chain(monkeypatch, n: int) -> None:
    # at 64 periods per candidate no other candidate survives (a chance of
    # 2^N * 2^-64), so each scan stops at the trial's own hidden string
    periods, trials, seed = 64, 5, -7
    batch = 2 * eng._baseline_trial_bytes(n, periods)
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + batch)
    drawn = _spy_role_words(monkeypatch)
    stats = eng.run_baseline_trials(n, periods, trials, seed, keep_per_trial=True)
    assert [len(words) for words in drawn] == [2, 2, 1]
    assert stats.false_matches == 0
    words = np.concatenate(drawn)
    for t in range(trials):
        ts = rng.trial_master_seed(seed, t)
        assert stats.tests[t] == rng.hidden_bits_for(ts, n) + 1
        assert (words[t] == rng.role_words(rng.word_seeds(ts, 1), periods)).all()


def test_one_batch_runs_four_mixes(monkeypatch) -> None:
    # the trial seeds, their re-mix, every tag at once and the role words;
    # above 64 bits one more mix draws the hidden string's nested words
    mixes = []
    mix = rng._mix

    def counted(x):
        mixes.append(x.shape)
        return mix(x)

    monkeypatch.setattr(rng, "_mix", counted)
    runs = [
        (4, lambda: eng.run_identification_trials(5, 4, 3, 1)),
        (4, lambda: eng.run_identification_trials(64, 4, 3, 1)),
        (5, lambda: eng.run_identification_trials(65, 4, 3, 1)),
        (5, lambda: eng.run_identification_trials(1024, 2, 3, 1)),
        (4, lambda: eng.run_baseline_trials(1, 20, 3, 1)),
        (4, lambda: eng.run_baseline_trials(14, 20, 3, 1)),
    ]
    for per_batch, run in runs:
        mixes.clear()
        run()
        assert len(mixes) == per_batch
    # a second batch runs as many again
    batch = eng._identification_trial_bytes(65, 4)
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + 2 * batch)
    mixes.clear()
    eng.run_identification_trials(65, 4, 3, 1)
    assert len(mixes) == 10


def test_hidden_draw_keeps_first_word() -> None:
    ts = rng.trial_master_seed(3, 0)
    for n in (1, 8, 64, 65, 200):
        low = rng.derive_seed(ts, 2 * n) & ((1 << min(n, 64)) - 1)
        assert rng.hidden_bits_for(ts, n) & ((1 << 64) - 1) == low


def _assert_identification_batching_invariance(monkeypatch, m: int, n: int = 5) -> None:
    batches = []
    role_words = rng.role_words

    def counted(seeds, *args):
        batches.append(len(seeds))
        return role_words(seeds, *args)

    monkeypatch.setattr(rng, "role_words", counted)
    runs = []
    for size in (7, 64):
        batch = size * eng._identification_trial_bytes(n, m)
        monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + batch)
        runs.append(eng.run_identification_trials(n, m, 64, 9, keep_per_trial=True))
    assert batches == [7] * 9 + [1] + [64]
    a, b = runs
    assert (a.hidden_bits == b.hidden_bits).all()
    assert (a.recovered_bits == b.recovered_bits).all()
    assert (a.ticks_observed == b.ticks_observed).all()
    assert a.undecided_trials == b.undecided_trials
    assert a.mean_ticks_observed == b.mean_ticks_observed


def test_identification_engine_batching_invariance(monkeypatch) -> None:
    _assert_identification_batching_invariance(monkeypatch, 4)


def test_identification_engine_batching_invariance_across_word_boundaries(monkeypatch) -> None:
    _assert_identification_batching_invariance(monkeypatch, 130)


def test_identification_engine_batching_invariance_across_plane_words(monkeypatch) -> None:
    # 65 bits fill one role word and one bit of a second
    _assert_identification_batching_invariance(monkeypatch, 4, n=65)


# sha256 of every field of run_identification_trials' kept result over the
# grid below, 24 trials at seed 11 a point: the hidden and recovered strings
# as 8W-byte little-endian ints, the other arrays with their dtypes and the
# aggregates by repr; a change that moves any trial's output changes it
_IDENTIFICATION_GRID_DIGEST = "996de54d46c1b3b12f490a213705f185d4374436ceec1e20dada07b8d56cfcb4"


def test_identification_trials_match_their_pinned_digest() -> None:
    digest = hashlib.sha256()
    for n in (1, 3, 16, 63, 64, 65, 130):
        width = 8 * rng.num_words(n)
        for m in (1, 3, 8, 64, 65):
            stats = eng.run_identification_trials(n, m, 24, 11, keep_per_trial=True)
            for field in dataclasses.fields(stats):
                value = getattr(stats, field.name)
                if field.name in ("hidden_bits", "recovered_bits"):
                    digest.update(value.dtype.str.encode())
                    digest.update(b"".join(int(x).to_bytes(width, "little") for x in value))
                elif isinstance(value, np.ndarray):
                    digest.update(value.dtype.str.encode() + value.tobytes())
                else:
                    digest.update(repr(value).encode())
    assert digest.hexdigest() == _IDENTIFICATION_GRID_DIGEST


@pytest.mark.parametrize("n, m, sparse", [(70, 3, False), (16, 4, True), (130, 8, True)])
def test_identification_soundness_counts_are_zero_for_any_sign_words(
    monkeypatch, n: int, m: int, sparse: bool
) -> None:
    # random uint64 words in place of the stream's: the engine derives the
    # observed flips from the hidden string, so whatever the signs no bit is
    # said both H and L, and the recovered string is the hidden string's bits
    # that have an event in the window.  Sparse words flip a carrier with a
    # chance of 3/8 a period, so more bits stay undecided
    trials, draw, drawn = 300, np.random.default_rng(m), []

    def random_words(seeds, num_periods, start_period=0):
        shape = (2 if sparse else 1,) + seeds.shape + (num_periods,)
        words = np.bitwise_and.reduce(draw.integers(0, 2**64, shape, np.uint64), axis=0)
        drawn.append(words ^ draw.integers(0, 2**64, seeds.shape + (1,), np.uint64))
        return drawn[-1]

    monkeypatch.setattr(rng, "role_words", random_words)
    stats = eng.run_identification_trials(n, m, trials, 3, keep_per_trial=True)
    assert stats.contradictions == stats.wrong_decided_bits == stats.wrong_complete_trials == 0
    assert 0 < stats.complete_trials < trials
    # the bits with an event: a switch of either carrier in the window
    words = np.concatenate(drawn)
    switch = np.bitwise_or.reduce(words[..., 1:] ^ words[..., :-1], axis=(1, 3))
    events = rng.role_order_ints(switch, n)
    for t in range(trials):
        hidden, recovered, seen = (int(x[t]) for x in (stats.hidden_bits, stats.recovered_bits,
                                                       events))
        assert recovered & ~hidden == 0
        assert recovered == hidden & seen
        assert bool(stats.complete[t]) == (seen == (1 << n) - 1)
        if stats.complete[t]:
            assert recovered == hidden


def test_baseline_engine_matches_exact_trials() -> None:
    n, ppt, trials, seed = 3, 12, 30, 4
    stats = eng.run_baseline_trials(n, ppt, trials, seed, keep_per_trial=True)
    eps = idf.verification_error_bound(ppt)
    for i in range(trials):
        hidden, tests = exp.baseline_trial_exact(seed, i, n, eps)
        assert stats.tests[i] == tests


def _assert_baseline_matches_exact(n: int, ppt: int, trials: int, seed: int) -> int:
    """Pin the engine's per-trial tests and false matches to the exact path; the false matches."""
    stats = eng.run_baseline_trials(n, ppt, trials, seed, keep_per_trial=True)
    false_matches = 0
    for i in range(trials):
        hidden, tests = exp.baseline_trial_exact(seed, i, n, idf.verification_error_bound(ppt))
        assert stats.tests[i] == tests
        false_matches += tests != hidden.bits + 1
    assert stats.false_matches == false_matches
    return false_matches


@pytest.mark.parametrize("ppt", [1, 2, 31, 32, 33, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_baseline_engine_matches_exact_trials_across_word_boundaries(n: int, ppt: int) -> None:
    # P around 32 and 64 crosses the uint32 period-word boundaries (a
    # second word is checked only on a first-word match); odd N makes the
    # two half-tables unequal, N = 1 leaves the high one a single row
    false_matches = _assert_baseline_matches_exact(n, ppt, 12, 6)
    if ppt == 1:
        # a one-period budget lets earlier candidates match first
        assert false_matches > 0


@pytest.mark.parametrize("n, trials", [(11, 8), (13, 5)])
def test_baseline_engine_matches_exact_trials_at_benchmark_sizes(n: int, trials: int) -> None:
    # the benchmark's bit counts, odd so the half-tables are unequal; an
    # exact trial costs about 26 ms at N = 11 and 95 ms at N = 13
    _assert_baseline_matches_exact(n, 20, trials, 6)


def _brute_force_baseline_tests(trial_seed: int, n: int, periods: int) -> int:
    """Scan position of the first candidate whose readouts equal the hidden string's throughout."""
    words = rng.role_words(rng.word_seeds(trial_seed, 1), periods)[:, 0]
    # noise-bit q + 1 is bit 63 - q of a role word and bit N - 1 - q of a catalog index
    differ = [int(lw ^ hw) >> (64 - n) for lw, hw in zip(*words)]
    hidden = rng.hidden_bits_for(trial_seed, n)
    for c in range(1 << n):
        if all(bin((c ^ hidden) & d).count("1") % 2 == 0 for d in differ):
            return c + 1
    raise AssertionError("the hidden string matches itself")


@pytest.mark.parametrize("periods", [40, 100])
@pytest.mark.parametrize("n", [1, 4, 7, 8])
def test_baseline_first_word_matches_are_checked_on_every_word(monkeypatch, n, periods) -> None:
    # with L = H in periods 0..31 every candidate matches on the first
    # period word, so only the later words tell candidates apart; random
    # signs reach this path with a chance of 2^-32 per candidate
    role_words = rng.role_words

    def equal_roles_first_word(seeds, num_periods, start_period=0):
        words = role_words(seeds, num_periods, start_period)
        early = max(0, min(num_periods, 32 - start_period))
        words[..., 1, :, :early] = words[..., 0, :, :early]
        return words

    monkeypatch.setattr(rng, "role_words", equal_roles_first_word)
    trials, seed = 12, 5
    stats = eng.run_baseline_trials(n, periods, trials, seed, keep_per_trial=True)
    expect = [_brute_force_baseline_tests(rng.trial_master_seed(seed, t), n, periods)
              for t in range(trials)]
    assert stats.tests.tolist() == expect
    # a first-word-only scan would stop every trial at the first candidate
    assert max(expect) > 1


def _gf2_baseline_tests(trial_seed: int, n: int, periods: int) -> int:
    """_brute_force_baseline_tests' scan position, from a GF(2) basis of the period rows.

    Candidate c survives every period exactly when c ^ h has even overlap
    with each period row d, so the survivors are h plus the space orthogonal
    to the rows' span.  With the span's basis fully reduced and keyed by
    each row's lowest set bit, the smallest survivor sets only pivot bits,
    pivot p to the parity of row_p & h.
    """
    words = rng.role_words(rng.word_seeds(trial_seed, 1), periods)[:, 0]
    hidden = rng.hidden_bits_for(trial_seed, n)
    basis: dict[int, int] = {}
    for lw, hw in zip(*words):
        d = int(lw ^ hw) >> (64 - n)
        for p, row in basis.items():
            if d >> p & 1:
                d ^= row
        if d:
            p = (d & -d).bit_length() - 1
            for q, row in basis.items():
                if row >> p & 1:
                    basis[q] = row ^ d
            basis[p] = d
    return 1 + sum(((row & hidden).bit_count() & 1) << p for p, row in basis.items())


@pytest.mark.parametrize("periods", [20, 40, 70])
@pytest.mark.parametrize("n", [21, 24, 31])
def test_baseline_engine_matches_a_gf2_oracle_above_20_bits(n: int, periods: int) -> None:
    # the digest grid stops at N = 20 and a scan of 2^N candidates in Python
    # is too slow here; P = 40 and 70 run the later-word check.  N = 31 is
    # the widest catalog index a sort key holds, its top bit next to the Hi
    # flag, and a trial scans about 2^30 candidates of a 2^-32 first-word
    # chance each before its hidden string, so about one in four steps past
    # a first-word match (one of the three here, at P = 40 and 70)
    trials, seed = 3, 9
    stats = eng.run_baseline_trials(n, periods, trials, seed, keep_per_trial=True)
    expect = [_gf2_baseline_tests(rng.trial_master_seed(seed, t), n, periods)
              for t in range(trials)]
    assert stats.tests.tolist() == expect
    if periods == 20:
        # 2^N candidates against a 2^-20 chance each: the oracle is no h + 1
        assert stats.false_matches > 0


@pytest.mark.parametrize("periods", [1, 2, 31, 32, 33, 63, 64, 65, 130])
def test_differ_columns_pack_scalar_signs(periods: int) -> None:
    # column q holds noise-bit q + 1's carriers-differ sequence, period k at
    # bit k % 32 of uint32 word k // 32; bits past the last period stay clear
    seeds = np.array([rng.derive_seed(77, i) for i in range(3)], dtype=np.uint64)
    tag_seeds = np.stack([rng.word_seeds(seed, 1) for seed in seeds.tolist()])
    for n in (1, 5, 28):
        columns = eng._differ_columns(tag_seeds, n, periods)
        assert columns.dtype == np.uint32 and columns.shape == (3, -(-periods // 32), n)
        for t, ts in enumerate(int(s) for s in seeds):
            for q in range(n):
                value = sum(int(w) << (32 * i) for i, w in enumerate(columns[t, :, q]))
                differ = [rng.sign_at(ts, 2 * q, k) != rng.sign_at(ts, 2 * q + 1, k)
                          for k in range(periods)]
                assert value == sum(1 << k for k in range(periods) if differ[k])


@pytest.mark.parametrize("trials", [1, 3])
def test_half_tables_xor_each_candidates_columns(trials: int) -> None:
    # Hi[i] and Lo[j] are the XOR of the columns of the 1 bits of i (the
    # first floor(N/2) bits) and j (the rest), first bit most significant,
    # so Hi[c_hi] ^ Lo[c_lo] is candidate c's XOR over all its 1 bits
    gen = np.random.default_rng(5)
    for n in range(1, 10):
        n_hi, n_lo = n // 2, n - n // 2
        columns = gen.integers(0, 2**32, size=(trials, n), dtype=np.uint32)
        table = eng._half_tables(columns)
        assert table.dtype == np.uint32
        assert table.shape == (trials, (1 << n_hi) + (1 << n_lo))
        hi, lo = table[..., : 1 << n_hi], table[..., 1 << n_hi :]

        def literal(c: int, bits: range) -> np.ndarray:
            out = np.zeros(trials, dtype=np.uint32)
            for q in bits:
                if c >> (bits[-1] - q) & 1:
                    out ^= columns[:, q]
            return out

        for i in range(1 << n_hi):
            assert (hi[..., i] == literal(i, range(n_hi))).all(), (n, i)
        for j in range(1 << n_lo):
            assert (lo[..., j] == literal(j, range(n_hi, n))).all(), (n, j)
        for c in range(1 << n):
            words = hi[..., c >> n_lo] ^ lo[..., c & ((1 << n_lo) - 1)]
            assert (words == literal(c, range(n))).all(), (n, c)


# sha256 of run_baseline_trials' per-trial tests and false matches over the
# grid below, 24 trials at seed 11 a point; a change to the engine's tables,
# columns or scan that moves any trial's count changes it
_BASELINE_GRID_DIGEST = "bbdb9a8e52a9fb614f2f591e81c37f3c0790f222a40f8d19dca05a3ca5ffd546"


def test_baseline_trials_match_their_pinned_digest() -> None:
    digest = hashlib.sha256()
    for n in (1, 2, 3, 10, 13, 14, 20):
        for periods in (1, 20, 31, 32, 33, 65):
            stats = eng.run_baseline_trials(n, periods, 24, 11, keep_per_trial=True)
            digest.update(stats.tests.astype("<i8").tobytes())
            digest.update(int(stats.false_matches).to_bytes(8, "little"))
    assert digest.hexdigest() == _BASELINE_GRID_DIGEST


def test_baseline_engine_batching_invariance(monkeypatch) -> None:
    n, ppt, trials, seed = 5, 70, 30, 8
    whole = eng.run_baseline_trials(n, ppt, trials, seed, keep_per_trial=True)
    # room for two trials of _baseline_trial_bytes(5, 70) a batch
    batch = 2 * eng._baseline_trial_bytes(n, ppt)
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + batch)
    batches = []
    role_words = rng.role_words

    def counted(seeds, *args):
        batches.append(len(seeds))
        return role_words(seeds, *args)

    monkeypatch.setattr(rng, "role_words", counted)
    split = eng.run_baseline_trials(n, ppt, trials, seed, keep_per_trial=True)
    assert batches == [2] * 15
    assert (split.tests == whole.tests).all()
    assert split.false_matches == whole.false_matches
    assert split.mean_tests == whole.mean_tests


def test_baseline_memory_refused_before_drawing(monkeypatch) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    # N = 30 holds 20 bytes per row of two 2^15-row half-tables, 1,312,648
    # bytes a trial at P = 20: refused under a 1 MiB cap
    monkeypatch.setattr(rng, "role_words", no_signs)
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 1 << 20)
    with pytest.raises(ValueError, match="1312648 bytes; capped at 1048576"):
        eng.run_baseline_trials(30, 20, 1, 1)


def test_baseline_key_width_refused_before_drawing(monkeypatch) -> None:
    # a sort key holds a 31-bit catalog index, so N = 32 is refused whatever
    # the memory cap, before any draw
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the key-width check")

    monkeypatch.setattr(rng, "role_words", no_signs)
    monkeypatch.setattr(rng, "trial_draws", no_signs)
    assert eng._batch_trials("a baseline trial", eng._baseline_trial_bytes(32, 20)) >= 1
    for n in (32, 64):
        with pytest.raises(ValueError, match="num_bits must be <= 31"):
            eng.run_baseline_trials(n, 20, 1, 1)


def test_baseline_memory_cap_boundary(monkeypatch) -> None:
    # one trial at N bits and P periods, W = ceil(P/32), H = 2^floor(N/2),
    # L = 2^ceil(N/2), holds 8 * 5P (role words, a mix temporary, L ^ H
    # words) + 32NW (period bytes) + 4NW (columns) + 20(H + L) (per
    # half-table row its uint32 entry, uint64 sort key and the keys' XOR)
    # + 48 (the trial's draws, hidden string, row and first match), and
    # above W = 1 the later-word check's 4N(W - 1) (copied columns) +
    # 4(W - 1) (their XORs) + 9N (bit mask)
    role_words = rng.role_words
    drawn = []

    def counted(*args):
        drawn.append(args)
        return role_words(*args)

    monkeypatch.setattr(rng, "role_words", counted)
    # N = 4, P = 20: 800 + 128 + 16 + 160 + 48 = 1152; P = 21: 1192
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 1152)
    assert eng.run_baseline_trials(4, 20, 3, 1).trials == 3
    with pytest.raises(ValueError, match="1192 bytes; capped at 1152"):
        eng.run_baseline_trials(4, 21, 3, 1)
    # the half-tables lead at N = 10, P = 1: 40 + 320 + 40 + 1280 + 48 =
    # 1728; N = 11: 40 + 352 + 44 + 1920 + 48 = 2404
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 1728)
    assert eng.run_baseline_trials(10, 1, 3, 1).trials == 3
    with pytest.raises(ValueError, match="2404 bytes; capped at 1728"):
        eng.run_baseline_trials(11, 1, 3, 1)
    # a second period word widens the columns and adds the check, not the
    # tables: N = 4, P = 33 holds 1320 + 256 + 32 + 160 + 48 + 16 + 4 + 36
    # = 1872
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 1871)
    with pytest.raises(ValueError, match="1872 bytes; capped at 1871"):
        eng.run_baseline_trials(4, 33, 3, 1)
    assert len(drawn) == 2


def test_baseline_admits_one_hidden_word() -> None:
    # the sort keys' 31-bit catalog index keeps N <= 31, so one uint64
    # always holds a baseline trial's hidden string.  No count term grows
    # with 2^N: N = 31 holds 1,968,044 bytes at P = 20, and the half-tables'
    # 20 * 3 * 2^15 bytes leave room for P = 3,378,368 periods
    for periods in (20, 64, 3_378_368):
        assert eng._batch_trials("a baseline trial", eng._baseline_trial_bytes(31, periods)) >= 1
    assert eng._baseline_trial_bytes(31, 20) == 1_968_044
    with pytest.raises(ValueError, match="capped at"):
        eng._batch_trials("a baseline trial", eng._baseline_trial_bytes(31, 3_378_369))


def _traced_peak(run):
    """run()'s result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the count sums arrays that are never all held at once, so a full batch's
# peak per trial, less _UFUNC_BUFFER_BYTES, may fall below it by this factor
_BASELINE_PEAK_SLACK = 4


def test_baseline_batch_stays_inside_its_memory_count() -> None:
    # odd N = 13 runs the low table's extra doubling step; P = 74 and 130
    # run the later-word check on three and five period words; at N = 20
    # and 24 the sort keys lead the count
    for n, ppt in ((1, 20), (10, 20), (13, 20), (14, 20), (8, 130), (14, 130), (13, 74),
                   (20, 20), (24, 20)):
        count = eng._baseline_trial_bytes(n, ppt)
        trials = eng._batch_trials("a baseline trial", count)
        eng.run_baseline_trials(n, ppt, 2, 1)  # imports and caches first
        stats, peak = _traced_peak(lambda: eng.run_baseline_trials(n, ppt, trials, 1))
        assert stats.trials == trials
        assert peak <= eng._ENGINE_BATCH_BYTES
        per_trial = (peak - eng._UFUNC_BUFFER_BYTES) / trials
        assert count / _BASELINE_PEAK_SLACK <= per_trial <= count, (n, ppt, per_trial, count)


def test_baseline_unkept_run_holds_one_batch() -> None:
    # 200,000 trials at N = 1 run in 227 batches of 883; an int64 per trial
    # would be 1.6 MB, more than a batch may hold
    trials = 200_000
    eng.run_baseline_trials(1, 20, 2, 1)  # imports and caches first
    stats, peak = _traced_peak(lambda: eng.run_baseline_trials(1, 20, trials, 1))
    assert stats.tests is None
    assert peak <= eng._ENGINE_BATCH_BYTES < 8 * trials
    kept = eng.run_baseline_trials(1, 20, trials, 1, keep_per_trial=True)
    assert stats.mean_tests == float(kept.tests.mean())
    assert stats.false_matches == kept.false_matches


def test_baseline_scan_ops_are_one_batch() -> None:
    # perfbench's baseline-scan op runs 20 trials at P = 20
    for n in (10, 12, 14):
        assert eng._batch_trials("a baseline trial", eng._baseline_trial_bytes(n, 20)) >= 20


def test_baseline_budget_is_one_rule() -> None:
    # identify --baseline clamps its bound to 1/2; bench passes epsilon < 1
    for eps in ("1/2", "2/3", "99/100", "1/1000", Fraction(1, 2**40)):
        assert exp._baseline_periods(eps) == idf.verification_periods(eps)
    for bound in (Fraction(1), Fraction(3), Fraction(1, 2)):
        assert exp._baseline_periods(bound) == 1
    r = exp.identification_experiment(4, 20, max_periods=1, include_baseline=True)
    assert r.theoretical["baseline_periods_per_test"] == 1


def test_baseline_mean_tests_near_half_catalog() -> None:
    # hidden strings are uniform over the catalog, so hidden + 1 is uniform
    # on 1..2^N, with mean (2^N + 1)/2 and variance (4^N - 1)/12; a trial's
    # scan position is hidden + 1 unless a false match stops it earlier
    n, periods, trials = 10, 20, 6000
    stats = eng.run_baseline_trials(n, periods, trials, 1)
    expect = (2**n + 1) / 2
    # a trial false-matches when a candidate scanned before the hidden one
    # survives all its periods; (2^N - 1)/2 are scanned before it on
    # average, each surviving with probability 2^-P, so by the union bound
    # a trial false-matches with probability at most p = 511.5 * 2^-20.
    # Trials are independent, so the count's upper tail is at most
    # Binomial(T, p)'s: about 2.9 false matches are expected, and 19 or
    # more fail
    p = (2**n - 1) / 2 * 0.5**periods
    assert _binomial_tails(stats.false_matches, trials, p)[1] > _LAW_TAIL
    # Bernstein: the mean of T values within b = (2^N - 1)/2 of their mean
    # mu, of variance v, is t or more from mu with probability at most
    # 2 exp(-T t^2 / (2v + 2bt/3)); t = 25.6 here.  Each false match lowers
    # the mean by at most (2^N - 1) / T
    v, b, log_tail = (4**n - 1) / 12, (2**n - 1) / 2, math.log(2 / _LAW_TAIL)
    t = (2 * b / 3 * log_tail + math.sqrt((2 * b / 3 * log_tail) ** 2
                                          + 8 * trials * v * log_tail)) / (2 * trials)
    shift = stats.false_matches * (2**n - 1) / trials
    assert -t - shift < stats.mean_tests - expect < t


# ------------------------------------------------------------- exact laws

# an exact-law check fails only when the observed figure lies in a tail
# this improbable, on either side
_LAW_TAIL = 1e-9


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), each term from log space."""
    log_p, log_q, head = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    pmf = [
        math.exp(head - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        for i in range(n + 1)
    ]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


# (16, 3) expects about 4455 undecided trials, so the count's lower tail
# also catches an engine that under-counts; at the other two an engine
# that reports none still passes
@pytest.mark.parametrize("n, m", [(8, 7), (64, 8), (16, 3)])
def test_identification_engine_follows_exact_laws(n: int, m: int) -> None:
    # every carrier draws a fresh fair sign each period, so a bit is still
    # undecided after k periods with probability 4^-k, independently of
    # the other bits
    trials, seed = 20000, 2024
    stats = eng.run_identification_trials(n, m, trials, seed)
    undecided = 1 - (1 - Fraction(1, 4**m)) ** n
    below, above = _binomial_tails(stats.undecided_trials, trials, float(undecided))
    assert below > _LAW_TAIL and above > _LAW_TAIL
    # periods_used exceeds k < M iff some bit is undecided after k periods;
    # it lies in [1, M], so Hoeffding's bound over a range of M - 1 puts
    # each side's tail at _LAW_TAIL at this distance from the mean
    mean = sum(1 - (1 - Fraction(1, 4**k)) ** n for k in range(m))
    distance = (m - 1) * math.sqrt(math.log(1 / _LAW_TAIL) / (2 * trials))
    assert abs(stats.mean_periods_used - float(mean)) < distance


def _draw_every_history(monkeypatch, n: int, periods: int) -> int:
    """Patch the draws so the trials run over every string and sign history once; their count.

    Trial t reads hidden string t mod 2^N and sign history t >> N, whose
    bit (2k + role) * N + q is noise-bit q + 1's role-word bit in that role
    and drawn period k, for `periods` drawn periods.
    """
    low = np.uint64((1 << n) - 1)

    def every_trial(seed, num_bits, count, batch_size):
        for start in range(0, count, batch_size):
            t = np.arange(start, min(start + batch_size, count), dtype=np.uint64)
            yield start, np.repeat(t[:, None, None], 2, axis=1), (t & low)[:, None]

    def history(tag_seeds, num_periods, start_period=0):
        assert (num_periods, start_period) == (periods, 0)
        signs = tag_seeds[:, 0, 0] >> np.uint64(n)
        words = np.zeros(tag_seeds.shape + (num_periods,), dtype=np.uint64)
        for k, role, q in itertools.product(range(num_periods), range(2), range(n)):
            bit = signs >> np.uint64((2 * k + role) * n + q) & np.uint64(1)
            words[:, role, 0, k] |= bit << np.uint64(63 - q)
        return words

    monkeypatch.setattr(rng, "trial_draws", every_trial)
    monkeypatch.setattr(rng, "role_words", history)
    return 1 << n + 2 * n * periods


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_identification_engine_laws_are_exact_over_every_history(
    monkeypatch, n: int, m: int
) -> None:
    # every string and every history of the M + 1 drawn periods once, so
    # the laws of test_identification_engine_follows_exact_laws hold exactly
    trials = _draw_every_history(monkeypatch, n, m + 1)
    stats = eng.run_identification_trials(n, m, trials, 0, keep_per_trial=True)
    assert (stats.hidden_bits == np.arange(trials) % (1 << n)).all()
    assert stats.contradictions == stats.wrong_decided_bits == stats.wrong_complete_trials == 0
    assert (stats.recovered_bits[stats.complete] == stats.hidden_bits[stats.complete]).all()
    assert Fraction(stats.undecided_trials, trials) == 1 - (1 - Fraction(1, 4**m)) ** n
    assert Fraction(int(stats.periods_used.sum()), trials) == sum(
        1 - (1 - Fraction(1, 4**k)) ** n for k in range(m)
    )


@pytest.mark.parametrize("n, periods", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_baseline_engine_matches_the_exact_search_over_every_history(
    monkeypatch, n: int, periods: int
) -> None:
    # every string and every history of the P periods once: each trial's
    # tests are baseline_search's on a reference system of the same signs
    # at lambda = 1, row 2q + role of noise-bit q + 1's carrier in that role
    trials = _draw_every_history(monkeypatch, n, periods)
    stats = eng.run_baseline_trials(n, periods, trials, 0, keep_per_trial=True)
    eps = idf.verification_error_bound(periods)
    tests = stats.tests.reshape(-1, 1 << n)
    for history in range(len(tests)):
        bits = [history >> (2 * k + role) * n + q & 1
                for q, role in itertools.product(range(n), range(2)) for k in range(periods)]
        signs = 1 - 2 * np.array(bits, dtype=np.int8).reshape(2 * n, periods)
        refs = rtw.ReferenceSystem(rtw.ClockGrid(n, periods), Fraction(1), 0, signs)
        for hidden in range(1 << n):
            trace = sig.trace_product(refs, alg.ProductString(n, hidden), shifted=False)
            assert tests[history, hidden] == idf.baseline_search(trace, refs, eps).tests_performed
    # a trial false-matches exactly when a candidate before its hidden string
    # survives every period
    false = sum(int(t) != h + 1 for row in tests for h, t in enumerate(row))
    assert stats.false_matches == false > 0


@pytest.mark.parametrize("n", [3, 8])
def test_zero_prob_engine_follows_binomial_bins(n: int) -> None:
    # a bit's two carriers agree with probability 1/2, independently, so
    # each bin count[a] is Binomial(P, C(N, a) / 2^N)
    periods, seed = 20000, 2024
    count = eng.zero_prob_engine(n, periods, seed)
    assert count.sum() == periods
    for a, observed in enumerate(count.tolist()):
        below, above = _binomial_tails(observed, periods, math.comb(n, a) / 2**n)
        assert below > _LAW_TAIL and above > _LAW_TAIL


# ------------------------------------------------------------- resolution


def test_resolution_bits_frozen_values() -> None:
    assert exp.resolution_bits(200, "1/2") == 317
    assert exp.resolution_bits(1, "1/2") == 2
    assert exp.resolution_bits(2, "1/2") == 4
    # lam = 1/3 gives range ratio 2, exactly one bit per noise-bit
    assert all(exp.resolution_bits(n, "1/3") == n for n in (1, 5, 50))


def test_resolution_bits_monotonic() -> None:
    vals = [exp.resolution_bits(n, "1/2") for n in range(1, 51)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_resolution_bits_validation() -> None:
    for lam in ("0", "1", "3/2"):
        with pytest.raises(ValueError):
            exp.resolution_bits(4, lam)


def test_dynamic_range_below_double() -> None:
    assert exp.dynamic_range_below_double("1/2")
    # ratio 4 at lam = 3/5 matches the double-rail range instead of beating it
    assert not exp.dynamic_range_below_double("3/5")


def test_dynamic_range_below_double_computes_no_power(monkeypatch) -> None:
    # the ceiling depends on lambda alone (ratio < 4 iff lambda < 3/5), so
    # no N-th power is built
    def no_power(*args):
        raise AssertionError("computed a power")

    monkeypatch.setattr(Fraction, "__pow__", no_power)
    assert exp.dynamic_range_below_double("1/2")
    assert exp.dynamic_range_below_double(Fraction(3, 5) - Fraction(1, 10**9))
    assert not exp.dynamic_range_below_double("3/5")


def test_resolution_experiment_reports() -> None:
    r = exp.resolution_experiment(200, "1/2")
    assert r.passed
    assert r.observed["resolution_bits"] == 317
    r = exp.resolution_experiment(2, "3/5")
    assert not r.passed


# ------------------------------------------------------------ experiments


def test_zero_probability_experiment_small() -> None:
    r = exp.zero_probability_experiment(3, 20_000, seed=1)
    assert r.passed
    assert r.theoretical["probability"] == Fraction(1, 8)
    assert abs(r.observed["estimate"] - 0.125) <= r.theoretical["three_sigma"]


def test_amplitude_range_exhaustive_exact() -> None:
    r = exp.amplitude_range_experiment(4, "1/4", exhaustive=True)
    assert r.passed
    assert r.observed["min_abs"] == Fraction(81, 256)
    assert r.observed["max_abs"] == Fraction(625, 256)
    assert r.observed["min_attained"] and r.observed["max_attained"]
    assert r.observed["all_within_bounds"]



@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 2), Fraction(1)])
def test_amplitude_range_exhaustive_matches_brute_force_scan(lam: Fraction) -> None:
    # the report compares each distinct shared value once; a scan of every
    # column's |readout| must read the same, lambda = 1 with its zero minimum
    for n in range(1, 7):
        value = alg.evaluator(alg.uniform_superposition(n), lam)
        values = [abs(value(c)) for c in itertools.product((-1, 1), repeat=2 * n)]
        lo, hi = (1 - lam) ** n, (1 + lam) ** n
        r = exp.amplitude_range_experiment(n, lam, exhaustive=True)
        assert r.observed["min_abs"] == min(values)
        assert r.observed["max_abs"] == max(values)
        assert r.observed["min_attained"] == (min(values) == lo)
        assert r.observed["max_attained"] == (max(values) == hi)
        within = all(lo <= v <= hi for v in values)
        assert r.observed["all_within_bounds"] == within
        assert r.passed == (within and min(values) == lo and max(values) == hi)
        assert r.observed["samples"] == len(values) == 4**n

def test_amplitude_range_monte_carlo_stays_inside() -> None:
    r = exp.amplitude_range_experiment(8, "1/2", exhaustive=False, trials=3000, seed=2)
    assert r.passed
    lo, hi = Fraction(1, 2) ** 8, Fraction(3, 2) ** 8
    assert lo <= r.observed["min_abs"] <= r.observed["max_abs"] <= hi


def test_amplitude_range_monte_carlo_matches_exact_readouts() -> None:
    for n in (1, 2, 3, 5):
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            for trials, seed in ((1, 0), (40, 9), (200, -3)):
                r = exp.amplitude_range_experiment(n, lam, exhaustive=False,
                                                   trials=trials, seed=seed)
                refs = rtw.build_reference_system(seed, n, trials, lam)
                values = [abs(y) for y in
                          sig.superposition_readouts(refs, alg.uniform_superposition(n))]
                lo, hi = (1 - lam) ** n, (1 + lam) ** n
                assert r.observed["min_abs"] == min(values)
                assert r.observed["max_abs"] == max(values)
                assert r.observed["all_within_bounds"] == all(lo <= v <= hi for v in values)
                assert r.observed["min_attained"] == (min(values) == lo)
                assert r.observed["max_attained"] == (max(values) == hi)
                assert r.observed["samples"] == trials
                assert r.passed


def test_identification_experiment_period_budget() -> None:
    r = exp.identification_experiment(4, trials=20_000, seed=1, max_periods=3)
    assert r.passed
    assert r.theoretical["undecided_bound"] == Fraction(1, 16)
    assert r.observed["wrong_complete_trials"] == 0


def test_identification_experiment_epsilon_budget() -> None:
    r = exp.identification_experiment(8, trials=5_000, seed=1, epsilon="1/1000")
    assert r.passed
    assert r.parameters["max_periods"] == 7


def test_identification_experiment_argument_exclusivity() -> None:
    with pytest.raises(ValueError):
        exp.identification_experiment(4, trials=10, epsilon="1/10", max_periods=3)
    with pytest.raises(ValueError):
        exp.identification_experiment(4, trials=10)


def test_identification_experiment_with_baseline() -> None:
    r = exp.identification_experiment(
        4, trials=300, seed=1, epsilon="1/1000", include_baseline=True
    )
    assert r.passed
    assert r.observed["baseline_mean_tests"] > 0
    # a handful of false matches is expected at this epsilon; they must stay
    # within the advertised per-test budget (bound 2^N * 2^-M per trial)
    bound = 300 * (2**4) * float(idf.verification_error_bound(10))
    assert r.observed["baseline_false_matches"] <= bound + 3 * math.sqrt(bound)


def test_benchmark_report_shape_and_determinism() -> None:
    kwargs = dict(epsilon="1/100", trials=40, seed=3, include_baseline=True)
    r1 = exp.identification_benchmark([2, 3], **kwargs)
    r2 = exp.identification_benchmark([2, 3], **kwargs)
    assert r1 == r2
    assert r1.to_csv_text() == r2.to_csv_text()
    assert len(r1.rows) == 2
    row = r1.rows[0]
    assert row["bits"] == 2
    assert row["tsinbl_budget_ticks"] == 2 * 2 * idf.required_periods(2, Fraction(1, 100))
    assert "tsinbl_mean_ticks_observed" in row and "baseline_mean_tests" in row


def test_benchmark_respects_baseline_cap() -> None:
    r = exp.identification_benchmark(
        [2, 16], epsilon="1/100", trials=10, seed=3, include_baseline=True, baseline_cap=14
    )
    by_bits = {row["bits"]: row for row in r.rows}
    assert by_bits[2]["baseline_mean_tests"] is not None
    assert by_bits[16]["baseline_mean_tests"] is None


def test_baseline_cap_refused_before_any_trial(monkeypatch) -> None:
    # the cap guards the exponential 2^N-candidate scan, so it is refused before any trial
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the cap was checked")

    monkeypatch.setattr(exp, "run_identification_trials", no_trials)
    monkeypatch.setattr(exp, "run_baseline_trials", no_trials)
    cap = exp.BASELINE_BITS_CAP
    with pytest.raises(ValueError, match=str(cap)):
        exp.identification_benchmark([4], epsilon="1/100", trials=10, baseline_cap=cap + 1)
    with pytest.raises(ValueError, match=str(cap)):
        exp.identification_experiment(cap + 1, 10, epsilon="1/100", include_baseline=True)
    # a cap below 1 would run no baseline under a report that names one
    for low in (0, -1):
        with pytest.raises(ValueError, match=f"at least 1, got {low}"):
            exp.identification_benchmark([4], epsilon="1/100", trials=10, baseline_cap=low)


def test_identification_memory_refused_before_allocating(monkeypatch) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    monkeypatch.setattr(rng, "sign_tensor", no_signs)
    monkeypatch.setattr(rng, "role_words", no_signs)
    n = 20_000_000
    with pytest.raises(ValueError, match="capped at"):
        eng.run_identification_trials(n, idf.required_periods(n, "1/1000"), 1, 1)
    with pytest.raises(ValueError, match="capped at"):
        exp.identification_experiment(n, 1, epsilon="1/1000")
    # the small bit count comes first but must not run either
    with pytest.raises(ValueError, match="capped at"):
        exp.identification_benchmark([4, n], epsilon="1/1000", trials=1, include_baseline=False)


def test_identification_memory_cap_boundary(monkeypatch) -> None:
    # one trial at N <= 64 holds one word per role and period:
    # 8 * (7M + 10) = 248 bytes at M = 3 and 304 at M = 4; N = 65 holds
    # two words, 496 bytes at M = 3
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 248)
    for n in (4, 64):
        assert eng.run_identification_trials(n, 3, 5, 1).trials == 5
        with pytest.raises(ValueError, match="304 bytes; capped at 248"):
            eng.run_identification_trials(n, 4, 5, 1)
    with pytest.raises(ValueError, match="496 bytes; capped at 248"):
        eng.run_identification_trials(65, 3, 5, 1)


def test_identification_memory_cap_counts_plane_bytes_at_one_bit(monkeypatch) -> None:
    # at N = 1 a trial still holds a whole role word per role and period,
    # the same 248 bytes at M = 3 and 304 at M = 4 as at N = 64
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 248)
    assert eng.run_identification_trials(1, 3, 5, 1).trials == 5
    with pytest.raises(ValueError, match="304 bytes; capped at 248"):
        eng.run_identification_trials(1, 4, 5, 1)


def test_engine_caches_hold_shapes_not_limits(monkeypatch) -> None:
    # the arrays kept between calls depend on a call's shape alone: once a
    # call of one shape has filled them, a cap or a batch size patched
    # afterwards still governs a call of that same shape, and no kept array
    # can be written
    n, m, trials, seed = 65, 3, 20, 5
    need = eng._identification_trial_bytes(n, m)
    first = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert eng.zero_prob_engine(n, 10, seed).sum() == 10
    base_bits, base_need = 5, eng._baseline_trial_bytes(5, 20)
    assert eng.run_baseline_trials(base_bits, 20, trials, seed).trials == trials

    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    with monkeypatch.context() as patched:
        patched.setattr(rng, "role_words", no_signs)
        patched.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", need - 1)
        with pytest.raises(ValueError, match=f"{need} bytes; capped at {need - 1}"):
            eng.run_identification_trials(n, m, trials, seed)
        patched.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", eng._period_bytes(n) - 1)
        with pytest.raises(ValueError, match=f"{eng._period_bytes(n)} bytes; capped at"):
            eng.zero_prob_engine(n, 10, seed)
        patched.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", base_need - 1)
        with pytest.raises(ValueError, match=f"{base_need} bytes; capped at"):
            eng.run_baseline_trials(base_bits, 20, trials, seed)
    # batches of 7 trials: the same trials in three draws, not one
    monkeypatch.setattr(eng, "_ENGINE_BATCH_BYTES", eng._UFUNC_BUFFER_BYTES + 7 * need)
    drawn = _spy_role_words(monkeypatch)
    again = eng.run_identification_trials(n, m, trials, seed, keep_per_trial=True)
    assert [len(words) for words in drawn] == [7, 7, 6]
    for field in ("hidden_bits", "complete", "recovered_bits", "ticks_observed", "periods_used"):
        assert (getattr(first, field) == getattr(again, field)).all()
    kept = (rng.role_mask(n), *rng._draw_steps(n, trials), *rng._draw_steps(n, 7),
            *eng._tick_offsets(n, m), eng._key_tags(base_bits))
    assert all(array.size for array in kept)
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


# a full identification batch's tracemalloc peak per trial, and a mismatch
# run's peak per chunk period, may fall below its count by this factor and
# no more, so that the count stays a count of what the engine holds
_PEAK_SLACK = 1.25


@pytest.mark.parametrize("n, m", [(1, 1), (16, 1), (16, 2), (16, 7), (64, 8), (1024, 10)])
def test_identification_batch_stays_inside_its_memory_count(n: int, m: int) -> None:
    count = eng._identification_trial_bytes(n, m)
    trials = eng._batch_trials("an identification trial", count)
    eng.run_identification_trials(n, m, 2, 1)  # imports and caches first
    stats, peak = _traced_peak(lambda: eng.run_identification_trials(n, m, trials, 1))
    assert stats.trials == trials
    assert peak <= eng._ENGINE_BATCH_BYTES
    assert count / _PEAK_SLACK <= peak / trials <= count


def test_period_chunk_stays_inside_its_memory_count() -> None:
    # the draw loop under zero-prob, Monte Carlo range, the mismatch rate and
    # not-demo, read by the mismatch rate's masked key into a 2-bin histogram
    # (zero_prob_engine's has N + 1 bins); three chunks peak as one does,
    # since nothing of a chunk is held while the next is drawn
    for n in (20, 1000, 20000):
        count = eng._period_bytes(n)
        periods = eng._batch_trials("a period", count)
        eng.mismatch_rate_engine(n, 10, 1)  # imports and caches first
        for chunks in (1, 3):
            (mismatches, _, _), peak = _traced_peak(
                lambda: eng.mismatch_rate_engine(n, chunks * periods, 1))
            assert 0 < mismatches < chunks * periods
            assert peak <= eng._ENGINE_BATCH_BYTES
            assert count / _PEAK_SLACK <= peak / periods <= count, (n, chunks, peak / periods)


def test_reference_memory_refused_before_allocating(monkeypatch) -> None:
    def no_signs(*args, **kwargs):
        raise AssertionError("signs were drawn before the memory check")

    monkeypatch.setattr(rng, "sign_matrix", no_signs)
    monkeypatch.setattr(rng, "role_words", no_signs)
    # range holds 26 * ceil(N/64) + 14 bytes a period, just over 2^28 here;
    # the refusal comes before (1+lambda)^N is built
    with pytest.raises(ValueError, match="capped at"):
        exp.amplitude_range_experiment(660_764_161, "1/2", trials=1)
    # not-demo's count takes 1024 cached values of (N+1) * 2 bits at lambda
    # = 1, 2.9 * 10^8 bytes here; its periods cost no memory
    with pytest.raises(ValueError, match="capped at"):
        exp.not_gate_demo(300_000, 1, 1, periods=1)


def test_reference_memory_cap_boundary(monkeypatch) -> None:
    # range holds _period_bytes(N) = 26 * ceil(N/64) + 14 bytes per period,
    # whatever the trial count; not-demo's one count grows with N, not with
    # its periods
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", 40)
    assert exp.amplitude_range_experiment(64, "1/2", trials=5).observed["samples"] == 5
    assert exp.amplitude_range_experiment(7, "1/2", trials=500).observed["samples"] == 500
    with pytest.raises(ValueError, match="66 bytes; capped at 40"):
        exp.amplitude_range_experiment(65, "1/2", trials=1)
    half = Fraction(1, 2)
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", exp._not_demo_bytes(1, half))
    assert exp.not_gate_demo(1, "1/2", 1, periods=5).passed
    assert exp.not_gate_demo(1, "1/2", 1, periods=50_000).passed  # seven chunks
    with pytest.raises(ValueError, match=f"{exp._not_demo_bytes(2, half)} bytes; capped at"):
        exp.not_gate_demo(2, "1/2", 1, periods=5)


def test_not_gate_demo_refuses_before_drawing(monkeypatch) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError("drew signs before refusing")

    monkeypatch.setattr(rng, "sign_matrix", no_work)
    monkeypatch.setattr(rng, "role_words", no_work)
    with pytest.raises(ValueError, match="periods must be >= 1"):
        exp.not_gate_demo(18, "1/2", 1, periods=0)
    with pytest.raises(ValueError, match="lambda"):
        exp.not_gate_demo(18, "0", 1)
    # 4 * 10^9 bits of exact values at lambda = 1/2
    with pytest.raises(ValueError, match="capped at"):
        exp.not_gate_demo(10**9, "1/2", 2, periods=1)
    # lambda = 1/10^100 has 333-bit parts: at N = 20,000 each exact value
    # would have about 1.3 * 10^7 bits
    tiny = Fraction(1, 10**100)
    with pytest.raises(ValueError, match="values of about 13320000 bits; capped at 1000000"):
        exp.not_gate_demo(20_000, tiny, 1, periods=1000)
    # at N = 300,000 and lambda = 1 (3N bits a value) the values fit their
    # cap, but 1024 of them do not fit the memory cap
    assert 300_000 * 3 <= exp.NOT_DEMO_VALUE_BITS_CAP
    with pytest.raises(ValueError, match="bytes; capped at"):
        exp.not_gate_demo(300_000, 1, 1, periods=1)


def test_not_gate_demo_memory_cap_boundary(monkeypatch) -> None:
    half = Fraction(1, 2)
    monkeypatch.setattr(eng, "ENGINE_TRIAL_BYTES_CAP", exp._not_demo_bytes(3, half))
    assert exp.not_gate_demo(3, "1/2", 2, periods=5).passed
    with pytest.raises(ValueError, match=str(exp._not_demo_bytes(4, half))):
        exp.not_gate_demo(4, "1/2", 2, periods=5)


def test_not_gate_demo_value_cap_boundary(monkeypatch) -> None:
    # a value is counted as N times the bit lengths of p + q and q: 4N bits
    # at lambda = 1/2, 3N at lambda = 1
    monkeypatch.setattr(exp, "NOT_DEMO_VALUE_BITS_CAP", 12)
    assert exp.not_gate_demo(3, "1/2", 2, periods=5).passed
    assert exp.not_gate_demo(4, 1, 2, periods=5).passed
    with pytest.raises(ValueError, match="at 4 bits evaluates values of about 16 bits; capped at 12"):
        exp.not_gate_demo(4, "1/2", 2, periods=5)


def test_identify_and_bench_reach_one_verdict() -> None:
    # bench runs bit count N on seed derive_seed(seed, 2N); identify on that
    # seed must report the same run and the same verdict
    for n, eps, trials, seed in ((2, "1/10", 40, 1), (5, "1/1000", 300, 7),
                                 (8, "1/1000", 200, 3), (70, "1/100", 30, 11)):
        one = exp.identification_experiment(n, trials, rng.derive_seed(seed, 2 * n), epsilon=eps)
        bench = exp.identification_benchmark([n], eps, trials, seed, include_baseline=False)
        (row,) = bench.rows
        assert row["tsinbl_undecided_rate"] == one.observed["undecided_rate"]
        assert row["tsinbl_mean_ticks_observed"] == one.observed["mean_ticks_observed"]
        assert row["tsinbl_budget_ticks"] == one.theoretical["budget_ticks"]
        assert bench.passed == one.passed


def test_benchmark_soundness_counts_wrong_decided_bits(monkeypatch) -> None:
    # a decided bit that is wrong breaks soundness in both reports, even when
    # no complete trial is wrong and no contradiction was seen
    real = exp.run_identification_trials

    def one_wrong_bit(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), wrong_decided_bits=1)

    kwargs = dict(epsilon="1/100", trials=50, seed=3, include_baseline=False)
    assert exp.identification_benchmark([4], **kwargs).passed
    assert exp.identification_experiment(4, 50, seed=3, epsilon="1/100").passed
    monkeypatch.setattr(exp, "run_identification_trials", one_wrong_bit)
    assert not exp.identification_benchmark([4], **kwargs).passed
    assert not exp.identification_experiment(4, 50, seed=3, epsilon="1/100").passed


def test_benchmark_timing_columns_are_opt_in() -> None:
    plain = exp.identification_benchmark([2], epsilon="1/100", trials=10, seed=3,
                                         include_baseline=False)
    timed = exp.identification_benchmark([2], epsilon="1/100", trials=10, seed=3,
                                         include_baseline=False, include_timing=True)
    assert not any("ms_per" in k for k in plain.rows[0])
    assert any("ms_per" in k for k in timed.rows[0])


def test_not_gate_expanded_route_matches_waveform() -> None:
    # the demo compares readouts with the factored NOT result; the expanded
    # result, 2^N terms, must agree with both at every period
    periods = 12
    for n in (1, 2, 5, 8):
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            for target in sorted({1, (n + 1) // 2, n}):
                refs = rtw.build_reference_system(n + target, n, periods, lam)
                uni = alg.uniform_superposition(n)
                expanded = alg.evaluator(alg.apply_not(alg.expand(uni), target, lam), lam)
                factored = alg.evaluator(alg.apply_not(uni, target, lam), lam)
                hl = alg.selection_evaluator([(target, "H"), (target, "L")], lam)
                y = sig.superposition_readouts(refs, uni)
                for v, column in zip(y, refs.signs.T.tolist()):
                    assert v * hl(column) == expanded(column) == factored(column)
                r = exp.not_gate_demo(n, lam, target, periods=periods, seed=n + target)
                assert r.passed and r.observed["readouts_agreeing"] == periods


def _not_gate_keys(signs: np.ndarray, target: int) -> list[tuple[int, int, int]]:
    """Each period's (A-parity, target agrees, other bits agreeing) from slot-ordered signs."""
    agree = signs[0::2] == signs[1::2]
    parity = np.count_nonzero(signs[1::2] < 0, axis=0) & 1
    on_target = agree[target - 1].astype(int)
    others = np.count_nonzero(agree, axis=0) - on_target
    return list(zip(parity.tolist(), on_target.tolist(), others.tolist()))


def test_not_gate_engine_keys_match_reference_signs(monkeypatch) -> None:
    # period k's key is where the table of the first k + 1 periods gains
    # one; drawn 3 periods a chunk, and whole, from the same role words that
    # build_reference_system's sign matrix unpacks
    periods = 10
    for n in (1, 2, 3, 63, 64, 65, 130):
        for target in sorted({1, (n + 1) // 2, n}):
            seed = 7 * n + target
            signs = rtw.build_reference_system(seed, n, periods).signs
            whole = eng.not_gate_engine(n, target, periods, seed)
            assert whole.shape == (2, 2, n) and whole.sum() == periods
            with monkeypatch.context() as m:
                chunk = eng._UFUNC_BUFFER_BYTES + 3 * eng._period_bytes(n)
                m.setattr(eng, "_ENGINE_BATCH_BYTES", chunk)
                prefix = [eng.not_gate_engine(n, target, k, seed) for k in range(1, periods + 1)]
            assert (prefix[-1] == whole).all()
            before = [np.zeros_like(whole)] + prefix
            keys = [tuple(np.argwhere(b - a)[0]) for a, b in zip(before, prefix)]
            assert keys == _not_gate_keys(signs, target), (n, target)


def test_not_gate_demo_builds_no_reference_system(monkeypatch) -> None:
    # the demo reads its keys from role words: no sign matrix, reference
    # system or column evaluator takes part
    expect = exp.not_gate_demo(65, "1/3", 33, periods=300, seed=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a sign matrix, reference system or evaluator was used")

    for module, name in ((rng, "sign_matrix"), (rtw, "build_reference_system"),
                         (exp, "build_reference_system"), (alg, "evaluator"),
                         (exp, "evaluator"), (alg, "selection_evaluator")):
        monkeypatch.setattr(module, name, refuse)
    r = exp.not_gate_demo(65, "1/3", 33, periods=300, seed=2)
    assert r.passed and r.observed["readouts_agreeing"] == 300
    assert r.render("csv") == expect.render("csv")


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("n", [1, 3, 8, 64])
def test_not_gate_demo_counts_periods_not_groups(monkeypatch, n: int, lam: Fraction) -> None:
    # the NOT result's law moved by one at odd A-parity: the demo checks
    # each key once, and readouts_agreeing must still count the periods of
    # the keys that agree, here those of even A-parity
    agreement_law = alg.agreement_law

    def off_at_odd_parity(f, lam):
        groups, value = agreement_law(f, lam)
        if f is alg.uniform_superposition(f.num_bits):
            return groups, value
        return groups, lambda state: value(state) + 1 if state[0] else value(state)

    monkeypatch.setattr(exp, "agreement_law", off_at_odd_parity)
    periods, seed, target = 3000, 5, (n + 1) // 2
    r = exp.not_gate_demo(n, lam, target, periods=periods, seed=seed)
    keys = _not_gate_keys(rtw.build_reference_system(seed, n, periods).signs, target)
    agree = sum(1 for parity, _, _ in keys if parity == 0)
    agreeing_keys = len({key for key in keys if key[0] == 0})
    assert 0 < agreeing_keys < agree < periods
    assert r.observed["readouts_agreeing"] == agree
    assert not r.passed


def test_not_gate_demo_fails_a_wrong_factored_result(monkeypatch) -> None:
    # each symbolic field reads its own part of the factored NOT result: the
    # target bit's pair, then the bit count and every other bit's pair
    apply_not = alg.apply_not

    def unpermuted(s, target_bit, lam):
        return s

    def other_bit_changed(s, target_bit, lam):
        f = apply_not(s, target_bit, lam)
        c_l = list(f.c_l)
        c_l[target_bit % f.num_bits] *= 2
        return alg.FactoredSuperposition(f.num_bits, f.c_h, tuple(c_l))

    fields = ("coefficient_permutation_ok", "factored_route_matches")
    for wrong, expect in ((unpermuted, (False, True)), (other_bit_changed, (True, False))):
        monkeypatch.setattr(exp, "apply_not", wrong)
        r = exp.not_gate_demo(3, "1/2", 2, periods=50, seed=3)
        assert tuple(r.observed[k] for k in fields) == expect, wrong.__name__
        assert not r.passed


# _not_demo_bytes does not depend on P: it takes a full chunk of the draw
# and every value _shared can keep, which the runs at N <= 4 nearly reach
# and the shorter ones do not, so each size states the least share of the
# count its tracemalloc peak must reach, over _PEAK_SLACK


def test_not_gate_demo_stays_inside_its_memory_check() -> None:
    exp.not_gate_demo(1, "1/2", 1, periods=100)  # imports and caches first
    for n, periods, share in ((1, 20_000, 0.86), (4, 20_000, 0.85), (16, 5_000, 0.49),
                              (1000, 100, 0.076)):
        r, peak = _traced_peak(lambda: exp.not_gate_demo(n, "1/2", 1, periods=periods))
        assert r.passed and r.observed["readouts_agreeing"] == periods
        count = exp._not_demo_bytes(n, Fraction(1, 2))
        assert share / _PEAK_SLACK * count <= peak <= count, (n, periods, peak / count)


def test_not_gate_demo_counts_its_exact_values() -> None:
    # at lambda = 2^-300 each factor has about 300 bits, and the values the
    # run keeps outweigh the draw: the traced peak is more than the count at
    # lambda = 1/2, and stays inside the count at its own (0.22 of it: the
    # count takes 364 values, each at its largest size)
    n, periods, lam = 60, 1000, Fraction(1, 2**300)
    alg._shared.cache_clear()  # values an earlier run left cached are not made again
    r, peak = _traced_peak(lambda: exp.not_gate_demo(n, lam, 1, periods=periods))
    assert r.passed and r.observed["readouts_agreeing"] == periods
    assert exp._not_demo_bytes(n, Fraction(1, 2)) < peak
    assert peak <= exp._not_demo_bytes(n, lam)


def test_not_gate_demo_passes_both_lambdas() -> None:
    r = exp.not_gate_demo(2, "1/2", 1, periods=200, seed=3)
    assert r.passed
    assert r.observed["former_l_scale"] == Fraction(1, 4)
    assert r.observed["readouts_agreeing"] == 200
    r = exp.not_gate_demo(3, 1, 2, periods=100, seed=4)
    assert r.passed
    assert r.observed["former_l_scale"] == Fraction(1)


# ---------------------------------------------------------------- reports


def test_three_sigma_and_fit_slope() -> None:
    assert exp.three_sigma(0.5, 100) == pytest.approx(3 * math.sqrt(0.25 / 100))
    slope, intercept = exp.fit_slope([1.0, 2.0, 3.0], [5.0, 7.0, 9.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(3.0)


def test_report_csv_layout() -> None:
    r = exp.zero_probability_experiment(2, 1000, seed=7)
    lines = r.to_csv_text().splitlines()
    assert lines[0] == "section,key,value"
    assert lines[1] == "experiment,name,zero-probability"
    assert any(line.startswith("result,passed,") for line in lines)
    assert all(line.split(",")[0] in
               {"section", "experiment", "parameters", "observed", "theoretical",
                "result", "note", "table", ""} or line == ""
               for line in lines)


def test_report_json_mirror() -> None:
    r = exp.resolution_experiment(200, "1/2")
    d = json.loads(r.to_json_text())
    assert d["experiment"] == r.name
    assert d["passed"] is True
    assert d["observed"]["resolution_bits"] == 317
    assert r.render("json") == r.to_json_text()
    assert r.render("csv") == r.to_csv_text()
    with pytest.raises(ValueError):
        r.render("yaml")


def test_reports_are_deterministic() -> None:
    a = exp.zero_probability_experiment(3, 2000, seed=5)
    b = exp.zero_probability_experiment(3, 2000, seed=5)
    assert a == b
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_text() == b.to_json_text()
