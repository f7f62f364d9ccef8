"""Counter-based sign derivation: determinism, fairness, path identity."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

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


# sha256 of the stream's first words at seed 2024: rng.role_words at W = 1,
# 8 and 9 words per role (both sides of _SCALAR_WORDS), rng.sign_matrix at 7
# and 8 streams from periods 0 and 17, and rng.trial_draws' tag seeds and
# hidden words at N = 16, 64 and 130 (nested hidden words), 5 trials in
# batches of 3; a change of any drawn bit fails here by name
_STREAM_DIGEST = "63a65b0741bb6d1361d165b7288e93af3d1de42da508079eb40d7afa7cdddc1d"


def test_sign_stream_matches_its_pinned_digest() -> None:
    digest = hashlib.sha256()
    for w in (1, 8, 9):
        digest.update(rng.role_words(rng.word_seeds(2024, w), 5).astype("<u8").tobytes())
    for streams in (7, 8):
        for start in (0, 17):
            digest.update(rng.sign_matrix(2024, streams, 5, start).tobytes())
    for n in (16, 64, 130):
        for _, tag_seeds, hidden in rng.trial_draws(2024, n, 5, 3):
            digest.update(tag_seeds.astype("<u8").tobytes() + hidden.astype("<u8").tobytes())
    assert digest.hexdigest() == _STREAM_DIGEST


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
    # chunk boundaries (3 periods a chunk up to 128 streams), and every
    # sign is still sign_at's
    monkeypatch.setattr(rng, "_CHUNK", 100)
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


def _trial_seeds(count: int) -> np.ndarray:
    return np.array([rng.derive_seed(77, i) for i in range(count)], dtype=np.uint64)


def _word_seeds(seeds: np.ndarray, n_words: int) -> np.ndarray:
    """(trials, 2, n_words) tag seeds: one rng.word_seeds draw per trial seed, stacked."""
    return np.stack([rng.word_seeds(seed, n_words) for seed in seeds.tolist()])


def _role_word_bits(neg: np.ndarray) -> np.ndarray:
    """(trials, 2 * 64W, P) booleans as (trials, 2, W, P) role words, one bit at a time."""
    trials, streams, periods = neg.shape
    words = np.zeros((trials, 2, streams // 128, periods), dtype=np.uint64)
    for s in range(streams):
        q = s // 2  # stream s carries noise-bit q + 1 in role s % 2
        words[:, s % 2, q // 64] |= neg[:, s].astype(np.uint64) << np.uint64(63 - q % 64)
    return words


# a period's two role words are its L and H sign planes, one bit per
# noise-bit, which the identification engine XORs period to period
@pytest.mark.parametrize("periods", [1, 9, 64, 65, 130])
@pytest.mark.parametrize("bits", [1, 3, 63, 64, 65, 130])
def test_sign_planes_match_tensor_and_scalar_signs(bits: int, periods: int) -> None:
    n_words = -(-bits // 64)
    for trials in (1, 4):
        seeds = _trial_seeds(trials)
        words = rng.role_words(_word_seeds(seeds, n_words), periods)
        assert words.dtype == np.uint64
        assert words.shape == (trials, 2, n_words, periods)
        # the bits past noise-bit N hold the signs of the next noise-bits
        assert (words == _role_word_bits(rng.sign_tensor(seeds, 128 * n_words, periods) < 0)).all()
        # the first, middle and last noise-bit of the last trial, scalar path
        t = trials - 1
        for q in sorted({0, (bits - 1) // 2, bits - 1}):
            for role in (0, 1):
                for k in range(periods):
                    bit = int(words[t, role, q // 64, k]) >> (63 - q % 64) & 1
                    assert bit == (rng.sign_at(int(seeds[t]), 2 * q + role, k) < 0)


def test_sign_planes_chunking_invariance(monkeypatch) -> None:
    seeds = _trial_seeds(5)
    cases = [(3, 9), (3, 130), (130, 3), (130, 130)]

    def draw(bits: int, periods: int, start_period: int = 0) -> np.ndarray:
        return rng.role_words(_word_seeds(seeds, -(-bits // 64)), periods, start_period)

    whole = [draw(bits, periods) for bits, periods in cases]
    # the role words (5 trials, 2 roles, 1 or 3 words, 3 to 130 periods)
    # are mixed 7, 109 or 389 at a time, the last step ragged; a draw that
    # starts at period 2 is the rest of the whole draw
    for chunk in (7, 109, 389):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        for (bits, periods), expect in zip(cases, whole):
            assert (draw(bits, periods) == expect).all()
            assert (draw(bits, periods - 2, 2) == expect[..., 2:]).all()


def test_sign_matrix_chunking_invariance(monkeypatch) -> None:
    whole = rng.sign_matrix(11, 6, 130, start_period=7)
    # up to 128 streams: chunks of 1, 3 and 12 periods, the last one ragged
    for chunk in (7, 100, 389):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        assert (rng.sign_matrix(11, 6, 130, start_period=7) == whole).all()


def _sign_matrix_scratch(streams: int, periods: int) -> int:
    """sign_matrix's tracemalloc peak above its int8 result, in bytes."""
    rng.sign_matrix(1, streams, periods)  # imports and caches first
    tracemalloc.start()
    try:
        rng.sign_matrix(1, streams, periods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - streams * periods


@pytest.mark.parametrize("streams, periods", [(2, 20_000), (8, 20_000), (130, 3000), (300, 2000)])
def test_sign_matrix_scratch_does_not_grow_with_periods(streams: int, periods: int) -> None:
    # one plane word, then two and three: a bounded number of role words is
    # unpacked at a time, so the scratch beside the result (170,176 bytes at
    # one plane word and 279,688 at three, numpy 2.4.6) is the same at 4P
    scratch = _sign_matrix_scratch(streams, periods)
    assert _sign_matrix_scratch(streams, 4 * periods) <= scratch + 1024


def test_signs_are_plus_minus_one() -> None:
    block = rng.sign_block(3, 0, 0, 1000)
    assert set(np.unique(block)) <= {-1, 1}


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


def test_word_seeds_agree_on_both_sides_of_the_scalar_cut() -> None:
    # up to _SCALAR_WORDS words a seed's tag seeds are Python ints, past it
    # they come from derive_seed_np; a negative seed folds as seed mod 2^64
    for seed in (*_trial_seeds(3).tolist(), -5):
        for w in (0, 1, rng._SCALAR_WORDS, rng._SCALAR_WORDS + 1):
            one = rng.word_seeds(seed, w)
            assert one.dtype == np.uint64 and one.shape == (2, w)
            expected = [[rng.derive_seed(seed, 2 * g + role) for g in range(w)] for role in (0, 1)]
            assert one.tolist() == expected


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -5])
def test_trial_draws_fold_the_scalar_chain(seed: int) -> None:
    # 7 trials in batches of 3; a negative seed folds as seed mod 2^64
    for n in (1, 14, 63, 64, 65, 128, 130):
        w = rng.num_words(n)
        batches = list(rng.trial_draws(seed, n, 7, 3))
        assert [start for start, _, _ in batches] == [0, 3, 6]
        tag_seeds = np.concatenate([tags for _, tags, _ in batches])
        hidden = np.concatenate([words for _, _, words in batches])
        assert tag_seeds.dtype == hidden.dtype == np.uint64
        assert tag_seeds.shape == (7, 2, w) and hidden.shape == (7, w)
        for t in range(7):
            ts = rng.trial_master_seed(seed, t)
            assert ts == rng.derive_seed(seed & rng.MASK64, t)
            assert (tag_seeds[t] == rng.word_seeds(ts, w)).all()
            nested = [rng.derive_seed(ts, 2 * n, v) for v in range(1, w)]
            assert hidden[t].tolist() == [rng.derive_seed(ts, 2 * n)] + nested
            value = sum(int(word) << (64 * v) for v, word in enumerate(hidden[t]))
            assert value & ((1 << n) - 1) == rng.hidden_bits_for(ts, n)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 1024])
def test_role_order_round_trips_and_places_each_noise_bit(n: int) -> None:
    w = rng.num_words(n)
    values = [0, (1 << n) - 1, 1, 1 << (n - 1), rng.draw_bits(3, 0, n), rng.draw_bits(4, 0, n)]

    def words(value: int) -> list[int]:  # word 0 lowest, as trial_draws yields them
        return [value >> (64 * v) & rng.MASK64 for v in range(w)]

    laid = rng.role_order(np.array([words(v) for v in values], dtype=np.uint64), n)
    assert laid.dtype == np.uint64 and laid.shape == (len(values), w)
    assert [int(v) for v in rng.role_order_ints(laid, n)] == values
    # noise-bit q + 1 is value bit N - 1 - q, and lands alone at bit
    # 63 - q % 64 of word q // 64, where sign_at reads its carriers
    seed = 2**64 - 3
    drawn = rng.role_words(rng.word_seeds(seed, w), 2)
    for q in sorted({0, 1, n // 2, 62, 63, 64, n - 2, n - 1} & set(range(n))):
        one = rng.role_order(np.array(words(1 << (n - 1 - q)), dtype=np.uint64), n)
        expect = [1 << (63 - q % 64) if v == q // 64 else 0 for v in range(w)]
        assert one.tolist() == expect
        for role in (0, 1):
            for k in range(2):
                neg = bool((drawn[role, :, k] & one).any())
                assert neg == (rng.sign_at(seed, 2 * q + role, k) < 0)


# a stream-statistics check fails only when its statistic lies in a tail
# this improbable under a fair, independent stream, summed over every
# position or pair it tests (union bound)
_STREAM_TAIL = 1e-9


def _hoeffding_bound(samples: int, checks: int) -> float:
    """t with P(|mean of samples values in [-1, 1] with mean 0| >= t) <= _STREAM_TAIL / checks."""
    return math.sqrt(2 * math.log(2 * checks / _STREAM_TAIL) / samples)


def _role_word_signs(seed: int, periods: int, block: int = 8192):
    """(128, block) float32 signs of both role words' 64 positions, block by block."""
    for k0 in range(0, periods, block):
        yield rng.sign_matrix(seed, 128, block, start_period=k0).astype(np.float32)


def test_every_bit_position_is_fair() -> None:
    # the 128 streams of the first plane word are the 64 bit positions of
    # the L and the H word; each position's mean sign is 0
    periods = 2**16
    signs = _role_word_signs(20261019, periods)
    total = sum(block.sum(axis=1, dtype=np.float64) for block in signs)
    assert np.abs(total / periods).max() < _hoeffding_bound(periods, 128)


def test_bit_positions_are_pairwise_independent() -> None:
    # pairs within the L word, within the H word, and across the L and H
    # words of one period: the mean product of two independent fair signs is 0
    periods = 2**16
    gram = sum(s @ s.T for s in _role_word_signs(20261020, periods)).astype(np.float64)
    pairs = np.triu_indices(128, k=1)
    assert np.abs(gram[pairs] / periods).max() < _hoeffding_bound(periods, len(pairs[0]))


def test_lagged_self_independence() -> None:
    # a stream's consecutive signs are independent and fair, so their
    # products are too: the mean product is 0, within 0.0090 at 2^19 periods
    # but for a tail of _STREAM_TAIL
    periods = 2**19
    a = rng.sign_block(1, 2, 0, periods + 1).astype(np.int32)
    assert abs(float((a[1:] * a[:-1]).mean())) < _hoeffding_bound(periods, 1)


def test_sign_matrix_rows_do_not_depend_on_stream_count() -> None:
    seed, periods = 2**64 - 3, 9
    widest = rng.sign_matrix(seed, 260, periods, start_period=70)
    for streams in (1, 62, 64, 66, 128, 130, 260):
        assert (rng.sign_matrix(seed, streams, periods, start_period=70) == widest[:streams]).all()
    for s in (0, 1, 127, 128, 129, 259):
        assert widest[s].tolist() == [rng.sign_at(seed, s, 70 + k) for k in range(periods)]


# noise-bits 31-34 sit at bits 33-30 of the first role word, where mix64's
# final x ^= x >> 31 starts to change bits (from bit 32 down); 64-66 straddle
# the boundary between the first and second role word
_EDGE_BITS = (31, 32, 33, 34, 64, 65, 66)


@pytest.mark.parametrize("bits", [34, 66, 130])
def test_draws_match_sign_at_at_edge_bits(bits: int) -> None:
    seeds, periods = _trial_seeds(3), 5
    by_role = rng.role_words(_word_seeds(seeds, -(-bits // 64)), periods)
    for t, ts in enumerate(int(s) for s in seeds):
        matrix = rng.sign_matrix(ts, 2 * bits, periods)
        for r in (r for r in _EDGE_BITS if r <= bits):
            q = r - 1
            for role in (0, 1):
                s = 2 * q + role
                neg = [rng.sign_at(ts, s, k) < 0 for k in range(periods)]
                assert (matrix[s] < 0).tolist() == neg
                row = by_role[t, role, q // 64]
                assert [int(w) >> (63 - q % 64) & 1 == 1 for w in row] == neg
