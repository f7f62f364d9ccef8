"""Counter-based sign derivation for telegraph-wave streams.

Every +-1 sign is a pure function of (master seed, stream index, period
index), so any period of any stream can be evaluated in O(1) without
generating history, and independent Monte Carlo trials can derive their
own seeds without sharing state.  The scalar path and the numpy draws
use the same integer mixing and agree bit for bit; `sign_block` and
`sign_tensor`, kept because perfbench's tracer wraps them, are views of
`sign_matrix`.  The Monte Carlo engines read the same signs packed into
uint64 words along the axis their decision runs on: the baseline search
XORs whole period sequences of single streams and reads `sign_words`
(one bit per period), while identification compares all noise-bits
within a period and reads `sign_planes` (one bit per noise-bit, per
period and carrier role).  The numpy draws mix in place on chunks that
stay in cache.

The mixer is the SplitMix64 finalizer (public-domain constants).  A
stream's period sequence is exactly a SplitMix64 output stream whose
initial state is derived from (master seed, stream index); the sign is
the top bit of the 64-bit output.
"""

from __future__ import annotations

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

    Used for per-stream seeds (tag = stream index), per-trial seeds
    (tag = trial index) and auxiliary draws (tag past the stream range).
    """
    x = mix64(seed + _GAMMA)
    for tag in tags:
        if tag < 0:
            raise ValueError("seed tags must be non-negative")
        x = mix64(x + (tag + 1) * _GAMMA)
    return x


def sign_at(master_seed: int, stream_index: int, period: int) -> int:
    """Sign of one stream in one clock period, in O(1)."""
    z = mix64(derive_seed(master_seed, stream_index) + (period + 1) * _GAMMA)
    return -1 if z >> 63 else 1


# ---------------------------------------------------------------------------
# numpy mirror of the scalar path (bit-identical)
# ---------------------------------------------------------------------------

_NP_GAMMA = np.uint64(_GAMMA)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)

# uint64 elements per buffer of the chunked draws (sign_matrix, sign_planes):
# a buffer and the scratch of its mix stay in cache
_CHUNK = 2**15


def mix64_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x).astype(np.uint64, copy=True)
    tmp = np.empty_like(x)
    # uint64 wraparound is the intended modular arithmetic here
    with np.errstate(over="ignore"):
        _mix_top(x, tmp)
        np.right_shift(x, np.uint64(31), out=tmp)
        x ^= tmp
    return x


def derive_seed_np(seeds: np.ndarray, *tags: np.ndarray | int) -> np.ndarray:
    """Vector mirror of derive_seed(seed, *tags), broadcasting seeds against tags."""
    with np.errstate(over="ignore"):
        x = mix64_np(np.asarray(seeds, dtype=np.uint64) + _NP_GAMMA)
        for tag in tags:
            tag = np.asarray(tag, dtype=np.uint64)
            x = mix64_np(x + (tag + np.uint64(1)) * _NP_GAMMA)
    return x


def _mix_top(x: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 in place on a uint64 buffer, up to the step that fixes the top bit.

    mix64's last step, x ^= x >> 31, leaves the top bit unchanged, so it is
    skipped: the sign is already in x's top bit.  tmp is scratch of x's shape.
    """
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _NP_MIX1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _NP_MIX2


def sign_block(master_seed: int, stream_index: int, start_period: int, count: int) -> np.ndarray:
    """Signs of one stream over [start_period, start_period+count): a sign_matrix row."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return sign_matrix(master_seed, stream_index + 1, count, start_period)[stream_index]


def sign_matrix(
    master_seed: int, num_streams: int, num_periods: int, start_period: int = 0
) -> np.ndarray:
    """(num_streams, num_periods) int8 sign matrix for one master seed.

    Drawn a few periods at a time on half a _CHUNK of signs (one period
    when num_streams is larger), so the uint64 intermediates stay under
    1 MiB however many periods are drawn, and a long matrix needs little
    more than its int8 result.
    """
    streams = np.arange(num_streams, dtype=np.uint64)
    seeds = derive_seed_np(np.uint64(master_seed & _MASK64), streams)[:, None]
    out = np.empty((num_streams, num_periods), dtype=np.int8)
    step = max(1, _CHUNK // max(2, 2 * num_streams))
    # uint64 wraparound is the intended modular arithmetic here
    with np.errstate(over="ignore"):
        for k0 in range(0, num_periods, step):
            k1 = min(k0 + step, num_periods)
            periods = np.arange(start_period + k0, start_period + k1, dtype=np.uint64)
            x = seeds + (periods + np.uint64(1)) * _NP_GAMMA
            _mix_top(x, np.empty_like(x))
            np.less(x.view(np.int64), 0, out=out[:, k0:k1].view(np.bool_))
    out *= np.int8(-2)  # top bit set -> 1 -> -1
    out += np.int8(1)
    return out


def sign_tensor(master_seeds: np.ndarray, num_streams: int, num_periods: int) -> np.ndarray:
    """(trials, num_streams, num_periods) int8 signs: one sign_matrix per master seed."""
    seeds = np.asarray(master_seeds, dtype=np.uint64).tolist()
    out = np.empty((len(seeds), num_streams, num_periods), dtype=np.int8)
    for t, seed in enumerate(seeds):
        out[t] = sign_matrix(seed, num_streams, num_periods)
    return out


# uint64 elements per sign_words block: (periods, trials, streams) blocks
# of this size, and the temporaries of their mix, stay in cache
_WORDS_CHUNK = 2**14


def sign_words(master_seeds: np.ndarray, num_streams: int, num_periods: int) -> np.ndarray:
    """sign_tensor(...) < 0 packed as (trials, num_streams, ceil(P/64)) uint64 words.

    Bit k % 64 of word k // 64 is set when period k's sign is -1.  Periods
    are drawn a few at a time on (periods, trials, streams) blocks of at
    most _WORDS_CHUNK elements and OR-reduced over the period axis.  The
    result is a transposed view of a (words, trials, streams) buffer, so
    each word's (trials, streams) plane is contiguous.
    """
    seeds = np.asarray(master_seeds, dtype=np.uint64)
    streams = np.arange(num_streams, dtype=np.uint64)
    stream_seeds = derive_seed_np(seeds[:, None], streams[None, :]).ravel()
    size = stream_seeds.size
    n_words = -(-num_periods // 64)
    out = np.zeros((n_words, size), dtype=np.uint64)
    cols = max(1, min(size, _WORDS_CHUNK))
    rows = max(1, min(64, _WORDS_CHUNK // cols))
    top = np.uint64(63)
    with np.errstate(over="ignore"):
        for lo in range(0, size, cols):
            block_seeds = stream_seeds[lo : lo + cols]
            for w in range(n_words):
                for k0 in range(64 * w, min(64 * w + 64, num_periods), rows):
                    k = np.arange(k0, min(k0 + rows, 64 * w + 64, num_periods), dtype=np.uint64)
                    x = block_seeds + ((k + np.uint64(1)) * _NP_GAMMA)[:, None]
                    _mix_top(x, np.empty_like(x))
                    x >>= top
                    x <<= (k % np.uint64(64))[:, None]
                    out[w, lo : lo + cols] |= np.bitwise_or.reduce(x, axis=0)
    return out.reshape(n_words, len(seeds), num_streams).transpose(1, 2, 0)


def sign_planes(master_seeds: np.ndarray, num_bits: int, num_periods: int) -> np.ndarray:
    """sign_tensor(seeds, 2N, P) < 0 as (P, trials, 2, ceil(N/64)) uint64 carrier planes.

    Plane 0 holds the L carriers (role B, even slots), plane 1 the H
    carriers (role A, odd slots).  Bit j of word w is set when the carrier
    of noise-bit r = N - (64w + j) has sign -1 in that period, so a plane
    word lays out its bits as the hidden-string integer does: word 0 holds
    bit positions 0-63 and bit 1 is the most significant; padding bits
    past bit 1 stay clear.  Signs are drawn on (periods, trials, 2,
    positions) chunks of at most _CHUNK uint64 elements, split along the
    positions in whole plane words when one trial's 2N * P block is
    larger, and along the periods only when 64 positions over all P
    periods still are.
    """
    seeds = np.asarray(master_seeds, dtype=np.uint64)
    n, trials = num_bits, len(seeds)
    n_words = -(-n // 64)
    # position p carries noise-bit r = N - p: its L carrier is stream
    # 2(N - p - 1), its H carrier the next one
    pos = np.arange(n, dtype=np.uint64)
    streams = np.uint64(2) * (np.uint64(n - 1) - pos) + np.arange(2, dtype=np.uint64)[:, None]
    stream_seeds = derive_seed_np(seeds[:, None, None], streams[None])  # (trials, 2, N)
    gamma_k = (np.arange(num_periods, dtype=np.uint64) + np.uint64(1)) * _NP_GAMMA
    cols = min(n, max(64, _CHUNK // (2 * num_periods) // 64 * 64))
    rows = min(num_periods, max(1, _CHUNK // (2 * cols)))
    per = max(1, _CHUNK // (2 * cols * rows))  # trials per chunk
    x_buf = np.empty(rows * per * 2 * cols, dtype=np.uint64)
    tmp_buf = np.empty_like(x_buf)
    bits_buf = np.empty(rows * per * 2 * -(-cols // 8) * 8, dtype=bool)
    # bytes of the plane words; whole bytes past bit 1 are never written
    out = np.zeros((num_periods, trials, 2, 8 * n_words), dtype=np.uint8)
    with np.errstate(over="ignore"):
        for p0 in range(0, n, cols):
            pc = min(cols, n - p0)
            nbytes = -(-pc // 8)
            for t0 in range(0, trials, per):
                tn = min(per, trials - t0)
                for k0 in range(0, num_periods, rows):
                    kn = min(rows, num_periods - k0)
                    size = kn * tn * 2 * pc
                    x = x_buf[:size].reshape(kn, tn, 2, pc)
                    np.add(stream_seeds[None, t0 : t0 + tn, :, p0 : p0 + pc],
                           gamma_k[k0 : k0 + kn, None, None, None], out=x)
                    _mix_top(x, tmp_buf[:size].reshape(x.shape))
                    bits = bits_buf[: kn * tn * 2 * 8 * nbytes].reshape(kn, tn, 2, 8 * nbytes)
                    np.less(x.view(np.int64), 0, out=bits[..., :pc])
                    # rows of whole bytes: packing the flat buffer packs each
                    # row; the bits of its last byte past bit 1 are cleared below
                    packed = np.packbits(bits, bitorder="little").reshape(kn, tn, 2, nbytes)
                    out[k0 : k0 + kn, t0 : t0 + tn, :, p0 // 8 : p0 // 8 + nbytes] = packed
    planes = out.view(np.dtype("<u8"))
    planes[..., -1] &= np.uint64((1 << (n - 64 * (n_words - 1))) - 1)
    return planes
