"""Counter-based sign derivation for telegraph-wave streams.

Every +-1 sign is a pure function of (master seed, stream index, period
index), so any period of any stream can be evaluated in O(1) without
generating history, and independent Monte Carlo trials can derive their
own seeds without sharing state.  The scalar path and the numpy block
path use the same integer mixing and agree bit for bit.  The Monte Carlo
engines read `sign_words`, the same signs packed one bit per period into
uint64 words.

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


def mix64_np(x: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the intended modular arithmetic here
    with np.errstate(over="ignore"):
        x = np.asarray(x).astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= _NP_MIX1
        x ^= x >> np.uint64(27)
        x *= _NP_MIX2
        x ^= x >> np.uint64(31)
    return x


def derive_seed_np(seeds: np.ndarray, *tags: np.ndarray | int) -> np.ndarray:
    """Vector mirror of derive_seed(seed, *tags), broadcasting seeds against tags."""
    with np.errstate(over="ignore"):
        x = mix64_np(np.asarray(seeds, dtype=np.uint64) + _NP_GAMMA)
        for tag in tags:
            tag = np.asarray(tag, dtype=np.uint64)
            x = mix64_np(x + (tag + np.uint64(1)) * _NP_GAMMA)
    return x


def _signs_from_seeds(stream_seeds: np.ndarray, periods: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = mix64_np(stream_seeds + (periods + np.uint64(1)) * _NP_GAMMA)
    top = (z >> np.uint64(63)).astype(np.int8)
    return np.int8(1) - np.int8(2) * top  # top bit set -> -1, clear -> +1


def sign_block(master_seed: int, stream_index: int, start_period: int, count: int) -> np.ndarray:
    """Signs of one stream over [start_period, start_period+count) as int8."""
    if count < 0:
        raise ValueError("count must be non-negative")
    seed = np.uint64(derive_seed(master_seed, stream_index))
    periods = np.arange(start_period, start_period + count, dtype=np.uint64)
    return _signs_from_seeds(seed, periods)


def sign_matrix(
    master_seed: int, num_streams: int, num_periods: int, start_period: int = 0
) -> np.ndarray:
    """(num_streams, num_periods) int8 sign matrix for one master seed."""
    streams = np.arange(num_streams, dtype=np.uint64)
    seeds = derive_seed_np(np.uint64(master_seed & _MASK64), streams)
    periods = np.arange(start_period, start_period + num_periods, dtype=np.uint64)
    return _signs_from_seeds(seeds[:, None], periods[None, :])


def sign_tensor(master_seeds: np.ndarray, num_streams: int, num_periods: int) -> np.ndarray:
    """(trials, num_streams, num_periods) sign tensor, one master seed per trial."""
    seeds = np.asarray(master_seeds, dtype=np.uint64)
    streams = np.arange(num_streams, dtype=np.uint64)
    stream_seeds = derive_seed_np(seeds[:, None], streams[None, :])
    periods = np.arange(num_periods, dtype=np.uint64)
    return _signs_from_seeds(stream_seeds[:, :, None], periods[None, None, :])


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
                    x ^= x >> np.uint64(30)
                    x *= _NP_MIX1
                    x ^= x >> np.uint64(27)
                    x *= _NP_MIX2
                    # mix64's last step, x ^= x >> 31, leaves the top bit
                    # unchanged, so it is skipped
                    x >>= top
                    x <<= (k % np.uint64(64))[:, None]
                    out[w, lo : lo + cols] |= np.bitwise_or.reduce(x, axis=0)
    return out.reshape(n_words, len(seeds), num_streams).transpose(1, 2, 0)
