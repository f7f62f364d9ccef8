"""Counter-based sign derivation for telegraph-wave streams.

Every +-1 sign is a pure function of (master seed, stream index, period
index), so any period of any stream can be evaluated in O(1) without
generating history, and independent Monte Carlo trials can derive their
own seeds without sharing state.

One 64-bit mix yields 64 signs.  Stream s is the carrier of noise-bit
q + 1, q = s // 2, in role s % 2 (0: the L carrier, 1: the H carrier).
Each (period k, role, plane word g) has one role word,
derive_seed(seed, 2g + role, k), and the carrier of noise-bit q + 1,
g = q // 64, has sign -1 in period k exactly when bit 63 - q % 64 of that
word is set.
`sign_at` states this and is the only definition of the stream; it does
not depend on N, and the word tags 0..2W-1 (W = ceil(N/64)) stay below
2N, the tag of a trial's hidden string.  `word_seeds` derives each
(role, g) tag seed once per draw, `role_words` folds the periods into
them to draw the words themselves, and every numpy draw reads them and
agrees with `sign_at` bit for bit.  The role words are the one packed
layout of every Monte Carlo engine (identification, zero-prob, Monte
Carlo range, the mismatch rate, not-demo and the baseline scan).
`sign_matrix` unpacks them into one int8 row per stream for a reference
system, the exact path's one int8 layout (`sign_block` and
`sign_tensor`, kept because perfbench's tracer wraps them, are views of
it).  The mixes run in place on chunks that stay in cache.

Trial t of master seed s reads its own master seed derive_seed(s, t)
(`trial_master_seed`) only through tag seeds: its role-word tags 2g + role
and its hidden string's tag 2N, whose words w >= 1 nest one more tag w
(`hidden_bits_for`).  `trial_draws` folds a batch of that chain in three
array mixes (the trial seeds, their first re-mix, every tag at once) and a
fourth for the nested words, so with `role_words` a batch costs four or
five mixes.  `role_order` lays an N-bit value out in the role words' bit
order, and `role_order_ints` reads it back.

What depends only on a call's shape is built once per shape and kept in
two bounded caches of read-only arrays, held between runs and counted by
no run's memory check: `role_mask(N)`, the N-bit all-ones value in role
order, 8W bytes for each of at most _ROLE_MASKS = 16 bit counts, and
`_draw_steps(N, b)`, trial_draws' trial, tag and nested-word steps,
8(b + 3W) bytes for each of at most _DRAW_STEPS = 16 (N, batch) shapes.

The mixer is the SplitMix64 finalizer (public-domain constants).
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
_MASK64 = MASK64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanching hash on 64 bits."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Fold non-negative integer tags into a seed, one mix per tag.

    Used for role words (tags 2g + role, then the period), per-trial
    seeds (tag = trial index) and auxiliary draws (tag past the role-word
    range).
    """
    x = mix64(seed + _GAMMA)
    for tag in tags:
        if tag < 0:
            raise ValueError("seed tags must be non-negative")
        x = mix64(x + (tag + 1) * _GAMMA)
    return x


def sign_at(master_seed: int, stream_index: int, period: int) -> int:
    """Sign of one stream in one clock period, in O(1): one bit of one role word."""
    q, role = divmod(stream_index, 2)
    word = derive_seed(master_seed, 2 * (q // 64) + role, period)
    return -1 if word >> (63 - q % 64) & 1 else 1


def num_words(num_bits: int) -> int:
    """uint64 words that hold num_bits bits, ceil(N/64): a role's plane, a hidden string."""
    return -(-num_bits // 64)


def trial_master_seed(seed: int, trial_index: int) -> int:
    """Per-trial master seed; trials are independent and order-free."""
    return derive_seed(seed, trial_index)


def draw_bits(seed: int, tag: int, num_bits: int) -> int:
    """Uniform num_bits-bit integer from ceil(N/64) derived 64-bit words.

    Word 0 (the low 64 bits) is derive_seed(seed, tag); word w >= 1 is
    derive_seed(seed, tag, w), whose nested tag cannot collide with a
    single-tag draw at tag + 1.
    """
    value = derive_seed(seed, tag)
    for w in range(1, num_words(num_bits)):
        value |= derive_seed(seed, tag, w) << (64 * w)
    return value & ((1 << num_bits) - 1)


def hidden_bits_for(trial_seed: int, num_bits: int) -> int:
    """Uniform hidden product string for one trial, as a bits integer (tag 2N)."""
    return draw_bits(trial_seed, 2 * num_bits, num_bits)


# ---------------------------------------------------------------------------
# numpy mirror of the scalar path (bit-identical)
# ---------------------------------------------------------------------------

_NP_GAMMA = np.uint64(_GAMMA)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_NP_MIX_S27, _NP_MIX_S30, _NP_MIX_S31 = np.uint64(27), np.uint64(30), np.uint64(31)

# uint64 elements per in-place mix step: a step and its scratch stay in
# cache; sign_matrix unpacks _CHUNK // 16 role words at a time
_CHUNK = 2**15

# role_mask keeps the masks of this many bit counts, and _draw_steps the
# steps of this many (bit count, batch) shapes
_ROLE_MASKS = 16
_DRAW_STEPS = 16

# words per role up to which word_seeds derives one seed's tag seeds on
# Python ints: 2W derive_seed calls cost less than derive_seed_np's two
# mixes on a tiny array
_SCALAR_WORDS = 8


def _mix(x: np.ndarray) -> np.ndarray:
    """mix64 on a uint64 array, _CHUNK elements at a time.

    In place on a C-contiguous array; anything else is copied first, so
    read the result.
    """
    x = np.asarray(x)
    if not x.flags.c_contiguous:
        x = x.copy()
    flat = x.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo : lo + _CHUNK]
        part ^= part >> _NP_MIX_S30
        part *= _NP_MIX1
        part ^= part >> _NP_MIX_S27
        part *= _NP_MIX2
        part ^= part >> _NP_MIX_S31
    return x


def _fold(x: np.ndarray, tag: np.ndarray | int) -> np.ndarray:
    """One derive_seed step on arrays: mix64(x + (tag + 1) * gamma), broadcast."""
    return _mix(x + (np.asarray(tag, dtype=np.uint64) + np.uint64(1)) * _NP_GAMMA)


def derive_seed_np(seeds: np.ndarray, *tags: np.ndarray | int) -> np.ndarray:
    """Vector mirror of derive_seed(seed, *tags), broadcasting seeds against tags."""
    # uint64 wraparound is the intended modular arithmetic here
    with np.errstate(over="ignore"):
        x = _mix(np.asarray(seeds, dtype=np.uint64) + _NP_GAMMA)
        for tag in tags:
            x = _fold(x, tag)
    return x


def word_seeds(master_seed: int, n_words: int) -> np.ndarray:
    """(2, n_words) uint64: derive_seed(seed, 2g + role) at [role, g].

    Derived once per draw, however many chunks of periods `role_words`
    then folds in; up to _SCALAR_WORDS words, as Python ints.
    """
    seed = int(master_seed) & MASK64
    if n_words <= _SCALAR_WORDS:
        return np.array(
            [[derive_seed(seed, 2 * g + role) for g in range(n_words)] for role in (0, 1)],
            dtype=np.uint64,
        )
    tags = 2 * np.arange(n_words, dtype=np.uint64) + np.arange(2, dtype=np.uint64)[:, None]
    return derive_seed_np(np.uint64(seed), tags)


@functools.lru_cache(maxsize=_DRAW_STEPS)
def _draw_steps(num_bits: int, batch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """trial_draws' shape-only steps, read-only: trial, tag and nested-word gammas.

    (batch,) t * gamma for a batch's trial offsets; (2W + 1,) each tag + 1
    times gamma, as derive_seed folds it: word_seeds' tags in its (role, g)
    order, then the hidden string's; (W - 1,) (v + 1) * gamma for the
    nested tag of hidden word v >= 1.  At most _DRAW_STEPS = 16 shapes are
    kept, each 8 * (batch + 3W) bytes, held between runs and counted by no
    run's memory check.
    """
    w = num_words(num_bits)
    plus_one = [2 * g + role + 1 for role in (0, 1) for g in range(w)] + [2 * num_bits + 1]
    steps = (
        np.arange(batch, dtype=np.uint64) * _NP_GAMMA,
        np.array(plus_one, dtype=np.uint64) * _NP_GAMMA,
        np.arange(2, w + 1, dtype=np.uint64) * _NP_GAMMA,
    )
    for step in steps:
        step.flags.writeable = False
    return steps


def trial_draws(
    seed: int, num_bits: int, trials: int, batch_size: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per batch of batch_size trials: its first trial, tag seeds and hidden words.

    For trial t, ts = trial_master_seed(seed, t): the (b, 2, W) tag seeds
    hold word_seeds(ts, W) and the (b, W) hidden words, word 0 lowest,
    the words of draw_bits(ts, 2N, N) before its mask, so their low N bits
    are hidden_bits_for(ts, N).  W = ceil(N/64).  The steps that depend
    only on N and the batch come from _draw_steps.
    """
    w = num_words(num_bits)
    first = derive_seed(seed) + _GAMMA  # derive_seed(seed, t) mixes first + t * gamma
    trial_step, tag_step, word_step = _draw_steps(num_bits, min(batch_size, trials))
    for start in range(0, trials, batch_size):
        x = _mix(trial_step[: trials - start] + np.uint64((first + start * _GAMMA) & _MASK64))
        x = _mix(_mix(x + _NP_GAMMA)[:, None] + tag_step)
        hidden = x[:, 2 * w :]
        if w > 1:  # words v >= 1 nest one more tag v, folded as (v + 1) * gamma
            hidden = np.concatenate((hidden, _mix(hidden + word_step)), axis=1)
        yield start, x[:, : 2 * w].reshape(len(x), 2, w), hidden


def role_order(words: np.ndarray, num_bits: int) -> np.ndarray:
    """The low N bits of (..., W) uint64 words, word 0 lowest, laid out as role_words.

    Value bit N - 1 - q, noise-bit q + 1's bit in a bits integer, goes to
    bit 63 - q % 64 of word q // 64: the value shifted left by 64W - N and
    read with word 0 most significant.  Bits past noise-bit N stay clear.
    """
    rev = words[..., ::-1]
    shift = np.uint64(64 * words.shape[-1] - num_bits)
    out = rev << shift
    if shift and words.shape[-1] > 1:  # each word but the last takes the next one's top bits
        out[..., :-1] |= rev[..., 1:] >> (np.uint64(64) - shift)
    return out


@functools.lru_cache(maxsize=_ROLE_MASKS)
def role_mask(num_bits: int) -> np.ndarray:
    """(W,) uint64, read-only: all N bits set, laid out as role_words.

    role_order of the N-bit all-ones value: noise-bits 1..N set, the bits
    past noise-bit N clear.  At most _ROLE_MASKS = 16 bit counts are kept,
    each 8W bytes, held between runs and counted by no run's memory check.
    """
    n_words = num_words(num_bits)
    mask = role_order(np.full(n_words, MASK64, dtype=np.uint64), num_bits)
    mask.flags.writeable = False
    return mask


def role_order_ints(words: np.ndarray, num_bits: int) -> np.ndarray:
    """One bits integer per row of (trials, W) role-order words: role_order undone.

    uint64 for one word; above that, an object array of Python ints.
    """
    shift = 64 * words.shape[1] - num_bits
    if words.shape[1] == 1:
        return words[:, 0] >> np.uint64(shift)
    big = words.astype(">u8")
    return np.array([int.from_bytes(row.tobytes(), "big") >> shift for row in big], dtype=object)


def role_words(seeds: np.ndarray, num_periods: int, start_period: int = 0) -> np.ndarray:
    """(..., 2, W, P) uint64 words: derive_seed(seed, 2g + role, k) at [..., role, g, k].

    `seeds` is word_seeds(seed, W), or trial_draws' (b, 2, W) tag seeds.
    Bit 63 - j of word g holds the sign of noise-bit 64g + j + 1's carrier
    in that role, as in `sign_at`; period k runs from start_period.
    Periods are the last axis, so the mix runs along them however few
    words a period has.
    """
    # each period + 1 times gamma, folded in place, as _fold states it; the
    # steps are dropped before the mix, so its scratch is the words' alone
    steps = np.arange(start_period + 1, start_period + num_periods + 1, dtype=np.uint64)
    steps *= _NP_GAMMA
    words = seeds[..., None] + steps
    del steps
    return _mix(words)


def _bits(words: np.ndarray, count: int) -> np.ndarray:
    """(..., P, count) uint8 bits of (..., W, P) role words.

    Noise-bit 64g + b is bit 63 - b of word g.
    """
    *lead, n_words, periods = words.shape
    bits = np.unpackbits(words.astype(">u8").view(np.uint8).reshape(-1))
    bits = bits.reshape(*lead, n_words, periods, 64).swapaxes(-3, -2)
    return bits.reshape(*lead, periods, 64 * n_words)[..., :count]


def sign_block(master_seed: int, stream_index: int, start_period: int, count: int) -> np.ndarray:
    """Signs of one stream over [start_period, start_period+count): a sign_matrix row."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return sign_matrix(master_seed, stream_index + 1, count, start_period)[stream_index]


def sign_matrix(
    master_seed: int, num_streams: int, num_periods: int, start_period: int = 0
) -> np.ndarray:
    """(num_streams, num_periods) int8 sign matrix for one master seed.

    Drawn at most _CHUNK // 16 role words at a time, at least one period,
    so however many periods are drawn a long matrix needs little more than
    its int8 result.
    """
    bits_per_role = -(-num_streams // 2)
    n_words = num_words(bits_per_role)
    out = np.empty((num_streams, num_periods), dtype=np.int8)
    seeds = word_seeds(master_seed, n_words)
    step = max(1, _CHUNK // 16 // (2 * max(1, n_words)))
    for k0 in range(0, num_periods, step):
        k1 = min(k0 + step, num_periods)
        # [role, k, q] bits as rows 2q + role, in stream order
        bits = _bits(role_words(seeds, k1 - k0, start_period + k0), bits_per_role)
        out[:, k0:k1] = bits.transpose(2, 0, 1).reshape(-1, k1 - k0)[:num_streams]
        del bits  # nothing of this chunk is held while the next is drawn
    out *= np.int8(-2)  # bit set -> 1 -> -1
    out += np.int8(1)
    return out


def sign_tensor(master_seeds: np.ndarray, num_streams: int, num_periods: int) -> np.ndarray:
    """(trials, num_streams, num_periods) int8 signs: one sign_matrix per master seed."""
    seeds = np.asarray(master_seeds, dtype=np.uint64).tolist()
    out = np.empty((len(seeds), num_streams, num_periods), dtype=np.int8)
    for t, seed in enumerate(seeds):
        out[t] = sign_matrix(seed, num_streams, num_periods)
    return out

