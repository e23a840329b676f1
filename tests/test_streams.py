import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab.streams import (GENERATOR_VERSION, SubstreamSampler, _int32_signs,
                          rademacher_signs, substream, wilson_interval)


def oracle_signs(rng, size):
    """numpy's bounded-integer signs, the mapping the raw-word reads must equal."""
    return rng.integers(0, 2, size=size, dtype=np.int64) * 2 - 1


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = rademacher_signs(substream(7, 3), 100)
        b = rademacher_signs(substream(7, 3), 100)
        assert np.array_equal(a, b)

    def test_different_replicates_differ(self):
        a = rademacher_signs(substream(7, 3), 100)
        b = rademacher_signs(substream(7, 4), 100)
        assert not np.array_equal(a, b)

    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.one_of(st.integers(0, 5000), st.integers(2 ** 32, 2 ** 64 - 1)),
                    min_size=1, max_size=4),
           st.integers(1, 3000))
    def test_sampler_matches_fresh_generator(self, seed, reps, size):
        # the raw-word path reads bit 31 of each 32-bit half of Philox output,
        # the bit `integers(0, 2)` keeps; odd sizes leave a half-word unused
        sampler = SubstreamSampler()
        want = np.concatenate([rademacher_signs(substream(seed, rep), size) for rep in reps])
        got = sampler.signs(seed, reps, size)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        # rewinding after use still reproduces the streams from the start
        assert np.array_equal(sampler.signs(seed, reps, size), want)

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_words_are_each_streams_first_raw_words(self, size):
        # rows of ceil(size / 2) words, drawn with the key rewound for each index
        sampler = SubstreamSampler()
        reps = range(5, 9)
        got = sampler.words(11, reps, size)
        want = [substream(11, rep).bit_generator.random_raw(-(-size // 2)) for rep in reps]
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert np.array_equal(sampler.words(11, reps, size), want)

    @pytest.mark.parametrize("key", [0, 1, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("size", [1, 6, 9])
    def test_words_are_philox_keyed_directly(self, key, size):
        # seed and index masked to 64 bits key a fresh Philox at counter 0; the
        # key goes in as a uint64 array, since numpy reads a list that mixes
        # ints past 2**63 with small ones through float64
        M = 2 ** 64 - 1
        sampler = SubstreamSampler()
        for seed, idx in [(key, key), (key, 3), (3, key), (-1 - key, key), (-7, key)]:
            want = np.random.Philox(key=np.array([seed & M, idx & M], dtype=np.uint64))
            got = sampler.words(seed, [idx], size)
            assert np.array_equal(got, [want.random_raw(-(-size // 2))])

    def test_one_sampler_across_master_seeds(self):
        # each call re-keys from its own master seed, whatever the last one was
        sampler = SubstreamSampler()
        for seed in [5, 2 ** 64 - 1, -3, 5, 0]:
            want = [substream(seed, rep).bit_generator.random_raw(4) for rep in range(3)]
            assert np.array_equal(sampler.words(seed, range(3), 8), want)

    def test_sampler_masks_keys_like_substream(self):
        sampler = SubstreamSampler()
        for seed, rep in [(-1, 2 ** 64 + 5), (2 ** 70 + 3, -2), (2 ** 64 - 1, 2 ** 33)]:
            want = rademacher_signs(substream(seed, rep), 9)
            assert np.array_equal(sampler.signs(seed, [rep], 9), want)

    def test_signs_are_plus_minus_one(self):
        s = rademacher_signs(substream(1, 1), 1000)
        assert set(np.unique(s)) == {-1, 1}

    def test_generator_version_names_family(self):
        assert GENERATOR_VERSION.startswith("philox4x64/")


class TestSignsAgainstOracle:
    """Every sign path reads raw Philox words; numpy's `integers(0, 2)` on a
    fresh stream is the independent oracle."""

    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.one_of(st.integers(0, 5000), st.integers(2 ** 32, 2 ** 64 - 1)),
                    min_size=1, max_size=4),
           st.integers(0, 3000))
    @example(0, [0], 0)
    @example(7, [3, 4], 1)
    @example(2 ** 64 - 1, [2 ** 40 + 1, 0, 9], 63)
    @example(31, [5], 64)
    @example(2024, [0, 2 ** 33], 65)
    @example(9, [1, 2], 2731)
    def test_prefixes_match(self, seed, reps, size):
        want = np.concatenate([oracle_signs(substream(seed, rep), size) for rep in reps])
        assert np.array_equal(SubstreamSampler().signs(seed, reps, size), want)
        got = np.concatenate([rademacher_signs(substream(seed, rep), size) for rep in reps])
        assert got.dtype == np.int32 and np.array_equal(got, want)

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1),
           st.lists(st.integers(1, 200).map(lambda k: 2 * k), min_size=1, max_size=6))
    def test_even_blocks_continue_the_stream(self, seed, rep, blocks):
        rng = substream(seed, rep)
        got = np.concatenate([rademacher_signs(rng, size) for size in blocks])
        assert np.array_equal(got, oracle_signs(substream(seed, rep), sum(blocks)))

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
    def test_episode_pairs_match_single_draws(self, seed, rep):
        # the coupling game draws two signs per episode; 160 episodes' pairs
        # are the next 320 one-at-a-time draws of the stream
        rng, oracle = substream(seed, rep), substream(seed, rep)
        got = [s for _ in range(160) for s in rademacher_signs(rng, 2).tolist()]
        assert got == [int(oracle_signs(oracle, 1)[0]) for _ in range(320)]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=12),
           st.integers(1, 3), st.integers(0, 24))
    @example([2 ** 31, 2 ** 63, 2 ** 31 - 1, 2 ** 63 - 1], 2, 8)
    def test_words_in_either_byte_order(self, words, rows, size):
        # sign i is bit 31 of the i-th 32-bit half of the word's value, however
        # the word is laid out in memory
        size = min(size, 2 * len(words))
        raw = np.array(words * rows, dtype=np.uint64).reshape(rows, -1)
        want = np.array([[1 if w >> (32 * i + 31) & 1 else -1 for w in row for i in (0, 1)]
                         for row in raw.tolist()])[:, :size]
        for order in ("<u8", ">u8"):
            assert np.array_equal(_int32_signs(raw.astype(order), size), want)


def shifted_byte_signs(raw, size):
    """Sign i as the top bit of byte 3 of the i-th little-endian 32-bit half,
    shifted down to 0 or 2 and less one: the mapping the one-compare read
    replaced."""
    out = np.empty(raw.shape[:-1] + (size,), dtype=np.int8)
    top = raw.astype("<u8", copy=False).view(np.uint8)[..., 3::4][..., :size]
    np.right_shift(top, 6, out=out, casting="unsafe")
    out &= 2
    out -= 1
    return out


def check_int32_signs(raw, size):
    """`_int32_signs` on a copy of `raw` against the byte shift: an int32 view
    over little-endian words, and big-endian words left as they were."""
    words = raw.copy()
    got = _int32_signs(words, size)
    assert got.dtype == np.int32 and got.shape == raw.shape[:-1] + (size,)
    assert np.array_equal(got, shifted_byte_signs(raw, size))
    if raw.dtype.byteorder == ">":
        assert np.array_equal(words, raw) and not np.shares_memory(got, words)
    else:
        assert np.shares_memory(got, words) == (size > 0)


class TestSignsAgainstByteShift:
    @pytest.mark.parametrize("shape", [(7,), (64,), (5, 33), (3, 4, 10)],
                             ids=["1d_odd", "1d_even", "2d", "3d"])
    @pytest.mark.parametrize("order", ["<u8", ">u8"])
    def test_matches_byte_shift(self, shape, order):
        rng = np.random.default_rng(sum(shape))
        raw = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64, endpoint=False)
        raw = raw.astype(order)
        for size in {0, 1, 2 * shape[-1] - 1, 2 * shape[-1]}:
            got = _int32_signs(raw.copy(), size)
            assert got.dtype == np.int32 and got.shape == shape[:-1] + (size,)
            assert np.array_equal(got, shifted_byte_signs(raw, size))
            check_int32_signs(raw, size)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
           st.integers(0, 80))
    @example([2 ** 31, 2 ** 63, 2 ** 32 - 1, 2 ** 31 - 1, 0, 2 ** 64 - 1], 11)
    def test_matches_byte_shift_on_any_words(self, words, size):
        size = min(size, 2 * len(words))
        for order in ("<u8", ">u8"):
            raw = np.array(words, dtype=np.uint64).astype(order)
            assert np.array_equal(_int32_signs(raw.copy(), size),
                                  shifted_byte_signs(raw, size))
            check_int32_signs(raw, size)


class TestWilson:
    def test_contains_point_estimate(self):
        for hits, n in [(0, 10), (5, 10), (10, 10), (1, 1000)]:
            lo, hi = wilson_interval(hits, n)
            assert 0.0 <= lo <= hits / n <= hi <= 1.0

    def test_shrinks_with_more_trials(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert hi2 - lo2 < hi1 - lo1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
