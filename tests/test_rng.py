"""Counter-based sign derivation: determinism, fairness, path identity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtwlogic import rng


def test_mix64_is_stable() -> None:
    # frozen values pin the mixing function; reports and traces depend on it
    assert rng.mix64(0) == 0
    assert rng.mix64(1) == 6238072747940578789
    assert rng.mix64(42) == 12058926934050108962


def test_derive_seed_changes_with_every_tag() -> None:
    base = rng.derive_seed(7)
    seen = {rng.derive_seed(7, t) for t in range(200)}
    assert len(seen) == 200
    assert base not in seen


def test_derive_seed_rejects_negative_tags() -> None:
    try:
        rng.derive_seed(1, -1)
    except ValueError:
        pass
    else:
        raise AssertionError("negative tag accepted")


def test_sign_block_matches_scalar_path() -> None:
    for seed in (0, 1, 987654321, 2**63 + 11):
        for stream in (0, 3, 17):
            block = rng.sign_block(seed, stream, 5, 64)
            scalars = [rng.sign_at(seed, stream, 5 + k) for k in range(64)]
            assert block.tolist() == scalars


def test_sign_matrix_and_tensor_match_block() -> None:
    seed = 20260815
    mat = rng.sign_matrix(seed, 6, 40)
    for j in range(6):
        assert (mat[j] == rng.sign_block(seed, j, 0, 40)).all()
    offset = rng.sign_matrix(seed, 6, 25, start_period=15)
    assert (offset == mat[:, 15:]).all()
    trial_seeds = np.array([rng.derive_seed(seed, i) for i in range(5)], dtype=np.uint64)
    tensor = rng.sign_tensor(trial_seeds, 6, 40)
    for i in range(5):
        assert (tensor[i] == rng.sign_matrix(int(trial_seeds[i]), 6, 40)).all()


def test_sign_block_and_tensor_match_scalar_path_across_chunks(monkeypatch) -> None:
    # both are views of sign_matrix; with a small _CHUNK the draw crosses
    # chunk boundaries (4 streams: 3 periods a chunk, 18: one), and every
    # sign is still sign_at's
    monkeypatch.setattr(rng, "_CHUNK", 25)
    seed = 2**63 + 11
    for stream in (0, 3, 17):
        block = rng.sign_block(seed, stream, 5, 40)
        assert block.dtype == np.int8
        assert block.tolist() == [rng.sign_at(seed, stream, 5 + k) for k in range(40)]
    assert rng.sign_block(seed, 2, 7, 0).shape == (0,)
    with pytest.raises(ValueError):
        rng.sign_block(seed, 0, 0, -1)
    trial_seeds = [rng.derive_seed(seed, i) for i in range(3)]
    tensor = rng.sign_tensor(np.array(trial_seeds, dtype=np.uint64), 4, 10)
    assert tensor.shape == (3, 4, 10) and tensor.dtype == np.int8
    expect = [[[rng.sign_at(t, j, k) for k in range(10)] for j in range(4)] for t in trial_seeds]
    assert tensor.tolist() == expect


def _pack(neg: np.ndarray) -> np.ndarray:
    """(trials, streams, P) booleans as uint64 words, one period at a time."""
    trials, streams, periods = neg.shape
    words = np.zeros((trials, streams, -(-periods // 64)), dtype=np.uint64)
    for k in range(periods):
        words[:, :, k // 64] |= neg[:, :, k].astype(np.uint64) << np.uint64(k % 64)
    return words


def _trial_seeds(count: int) -> np.ndarray:
    return np.array([rng.derive_seed(77, i) for i in range(count)], dtype=np.uint64)


@pytest.mark.parametrize("periods", [1, 2, 63, 64, 65, 130])
def test_sign_words_pack_tensor_and_scalar_signs(periods: int) -> None:
    for trials in (1, 4):
        seeds = _trial_seeds(trials)
        for streams in (1, 3, 6):
            words = rng.sign_words(seeds, streams, periods)
            assert words.dtype == np.uint64
            assert words.shape == (trials, streams, -(-periods // 64))
            # bits past the last period stay clear
            assert (words == _pack(rng.sign_tensor(seeds, streams, periods) < 0)).all()
            for t in range(trials):
                for j in range(streams):
                    for k in range(periods):
                        bit = int(words[t, j, k // 64]) >> (k % 64) & 1
                        assert bit == (rng.sign_at(int(seeds[t]), j, k) < 0)


def test_sign_words_chunking_invariance(monkeypatch) -> None:
    seeds = _trial_seeds(5)
    whole = rng.sign_words(seeds, 3, 130)
    # 15 trial-streams: blocks of 7, 7 and 1 of them, one period each
    monkeypatch.setattr(rng, "_WORDS_CHUNK", 7)
    assert (rng.sign_words(seeds, 3, 130) == whole).all()
    # blocks of 3 periods leave a ragged block at the end of each word
    # and a 2-period block in the third word
    monkeypatch.setattr(rng, "_WORDS_CHUNK", 47)
    assert (rng.sign_words(seeds, 3, 130) == whole).all()


def _planes(neg: np.ndarray) -> np.ndarray:
    """(trials, 2N, P) booleans as (P, trials, 2, W) carrier planes, one bit at a time."""
    trials, spp, periods = neg.shape
    n = spp // 2
    planes = np.zeros((periods, trials, 2, -(-n // 64)), dtype=np.uint64)
    for s in range(spp):
        pos = n - 1 - s // 2  # noise-bit r = s // 2 + 1 sits at position N - r
        planes[:, :, s % 2, pos // 64] |= neg[:, s, :].T.astype(np.uint64) << np.uint64(pos % 64)
    return planes


@pytest.mark.parametrize("periods", [1, 9, 64, 65, 130])
@pytest.mark.parametrize("bits", [1, 3, 63, 64, 65, 130])
def test_sign_planes_match_tensor_and_scalar_signs(bits: int, periods: int) -> None:
    for trials in (1, 4):
        seeds = _trial_seeds(trials)
        planes = rng.sign_planes(seeds, bits, periods)
        assert planes.dtype == np.uint64
        assert planes.shape == (periods, trials, 2, -(-bits // 64))
        # padding bits past bit 1 stay clear
        assert (planes == _planes(rng.sign_tensor(seeds, 2 * bits, periods) < 0)).all()
        # the first, middle and last noise-bit of the last trial, scalar path
        t = trials - 1
        for r in sorted({1, (bits + 1) // 2, bits}):
            pos = bits - r
            for role in (0, 1):
                for k in range(periods):
                    bit = int(planes[k, t, role, pos // 64]) >> (pos % 64) & 1
                    assert bit == (rng.sign_at(int(seeds[t]), 2 * (r - 1) + role, k) < 0)


def test_sign_planes_chunking_invariance(monkeypatch) -> None:
    seeds = _trial_seeds(5)
    cases = [(3, 9), (3, 130), (130, 3), (130, 130)]
    whole = [rng.sign_planes(seeds, bits, periods) for bits, periods in cases]
    # 7: one period of one trial per chunk, 64 positions at a time above 64
    # bits; 109: two trials of 3 bits over 9 periods, then one; 389: 130
    # bits over 3 periods split into words of 64, 64 and 2 positions, and
    # 3 bits over 130 periods into 64, 64 and 2 periods
    for chunk in (7, 109, 389):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        for (bits, periods), expect in zip(cases, whole):
            assert (rng.sign_planes(seeds, bits, periods) == expect).all()


def test_sign_matrix_chunking_invariance(monkeypatch) -> None:
    whole = rng.sign_matrix(11, 6, 130, start_period=7)
    # 6 streams: chunks of 1, 2 and 32 periods, the last one ragged
    for chunk in (7, 25, 389):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        assert (rng.sign_matrix(11, 6, 130, start_period=7) == whole).all()


def test_signs_are_plus_minus_one() -> None:
    block = rng.sign_block(3, 0, 0, 1000)
    assert set(np.unique(block)) <= {-1, 1}


def test_sign_fairness_three_sigma() -> None:
    # binomial oracle: 3*sqrt(0.25/T) around one half
    trials = 100_000
    block = rng.sign_block(1, 0, 0, trials)
    frac_plus = float((block > 0).mean())
    assert abs(frac_plus - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_cross_stream_independence_three_sigma() -> None:
    # product of two fair independent signs has mean 0, sigma 1/sqrt(T)
    trials = 100_000
    a = rng.sign_block(1, 0, 0, trials).astype(np.int32)
    b = rng.sign_block(1, 1, 0, trials).astype(np.int32)
    assert abs(float((a * b).mean())) <= 3 / math.sqrt(trials)


def test_lagged_self_independence() -> None:
    trials = 100_000
    a = rng.sign_block(1, 2, 0, trials + 1).astype(np.int32)
    assert abs(float((a[1:] * a[:-1]).mean())) <= 3 / math.sqrt(trials)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=2**16),
    period=st.integers(min_value=0, max_value=2**32),
)
def test_sign_at_is_deterministic_and_binary(seed: int, stream: int, period: int) -> None:
    s = rng.sign_at(seed, stream, period)
    assert s in (-1, 1)
    assert s == rng.sign_at(seed, stream, period)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_np_mirrors_scalar(seed: int) -> None:
    tags = np.arange(8, dtype=np.uint64)
    vec = rng.derive_seed_np(np.uint64(seed), tags)
    assert vec.tolist() == [rng.derive_seed(seed, t) for t in range(8)]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_np_mirrors_nested_tags(seed: int) -> None:
    words = np.arange(1, 5, dtype=np.uint64)
    vec = rng.derive_seed_np(np.uint64(seed), 40, words)
    assert vec.tolist() == [rng.derive_seed(seed, 40, w) for w in range(1, 5)]
