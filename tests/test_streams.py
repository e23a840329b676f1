import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlab.streams import (GENERATOR_VERSION, SubstreamSampler, rademacher_signs,
                          substream, wilson_interval)


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
        assert got.dtype == np.int8
        assert np.array_equal(got, want)
        # rewinding after use still reproduces the streams from the start
        assert np.array_equal(sampler.signs(seed, reps, size), want)

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
