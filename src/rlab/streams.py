"""Counter-based random streams and the Wilson score interval.

Every Monte Carlo consumer derives an independent substream per replicate
from `(master_seed, replicate)` via the Philox counter-based generator, so
results do not depend on replicate execution order or worker count.

Every sign is read from raw Philox words by one kernel, `_int32_signs`: sign
i is +1 when bit 31 of the i-th 32-bit half of `Philox.random_raw`, low half
first, is set, else -1. With the words laid out little-endian on any machine,
that bit is the sign bit of the i-th int32, so the kernel writes each sign
over its own half and returns an int32 view of the words: the Monte Carlo
blocks walk in the memory they were drawn into. `_signs_from_words` runs it
on a copy and casts to int8; `rademacher_signs` applies that to the next
words of one stream and `SubstreamSampler.signs` to the first words of many,
which `SubstreamSampler.words` draws on their own so that another thread can
map them.
The tests keep numpy's bounded `Generator.integers` over {0, 1} as the
oracle: it keeps the same bit of the same 32-bit halves, so these are the
signs rlab drew through it before.
"""

from __future__ import annotations

import math

import numpy as np

GENERATOR_FAMILY = "philox4x64"
GENERATOR_VERSION = f"{GENERATOR_FAMILY}/numpy-{np.__version__}"

# 99% two-sided normal quantile, used for every Wilson interval we report.
WILSON_Z = 2.5758293035489004
WILSON_CONFIDENCE = 0.99


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Stateless substream keyed by (master_seed, index)."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _int32_signs(raw: np.ndarray, size: int) -> np.ndarray:
    """The first `size` signs of each row of uint64 Philox words, written over
    the words as an int32 view of them.

    Bit 31 of each little-endian 32-bit half is its int32 sign bit. The "<u8"
    cast makes no copy on a little-endian machine, so the signs overwrite
    `raw`; on any other it swaps the bytes into a copy and leaves `raw` as it
    was. An odd size leaves the last high half as it was. numpy's right shift
    of a signed int is arithmetic, so h >> 31 is -1 where the bit is set and
    0 where not, and -2 (h >> 31) - 1 is the sign.
    """
    halves = raw.astype("<u8", copy=False).view("<i4")[..., :size]
    halves >>= 31
    halves *= -2
    halves -= 1
    return halves


def _signs_from_words(raw: np.ndarray, size: int) -> np.ndarray:
    """`_int32_signs` of a copy of `raw`, as int8; `raw` stays as it was."""
    return _int32_signs(raw.astype("<u8"), size).astype(np.int8)


def rademacher_signs(rng: np.random.Generator, size: int) -> np.ndarray:
    """The next `size` fair signs of `rng`'s stream in {-1, +1} as int8.

    Signs are read from whole raw words, so only even sizes continue the
    stream: an odd size drops the high half of its last word. `rng` must not
    also be drawn from through the `Generator` API, whose buffered 32-bit
    half `random_raw` skips.
    """
    return _signs_from_words(rng.bit_generator.random_raw(-(-size // 2)), size)


class SubstreamSampler:
    """Reusable Philox that rewinds to any (master_seed, index) substream.

    Re-keying a single Philox is several times cheaper than constructing a
    fresh generator per replicate and draws bit-identical values. Not thread
    safe: use one sampler per worker.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        # a fresh state of plain ints, which numpy's setter reads faster than
        # the numpy arrays its getter returns
        self._key = [0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def words(self, master_seed: int, indices, size: int) -> np.ndarray:
        """The raw Philox words behind the first `size` signs of each substream
        in `indices`: one uint64 row of ceil(size / 2) words per index.

        Row r holds the first words of `substream(master_seed, indices[r])`,
        so `_int32_signs(rows, size)` gives the same signs on whichever
        thread maps them. Each row re-keys the one Philox to counter 0 and key
        (master_seed, indices[r]), both masked to 64 bits, from the sampler's
        dict of plain ints. Drawing is the only step that touches the sampler.
        """
        words = -(-size // 2)
        key, bitgen = self._key, self._bitgen
        key[0] = master_seed & 0xFFFFFFFFFFFFFFFF
        raw = np.empty((len(indices), words), dtype=np.uint64)
        for row, index in enumerate(indices):
            key[1] = index & 0xFFFFFFFFFFFFFFFF
            bitgen.state = self._state
            raw[row] = bitgen.random_raw(words)
        return raw

    def signs(self, master_seed: int, indices, size: int) -> np.ndarray:
        """The first `size` signs of each substream in `indices` as int8.

        Row-major and flat: replicate `indices[r]` owns entries
        `r * size .. (r + 1) * size - 1`, equal to
        `rademacher_signs(substream(master_seed, indices[r]), size)`.
        """
        return _signs_from_words(self.words(master_seed, indices, size), size).reshape(-1)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at WILSON_CONFIDENCE."""
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p = hits / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    centre = p + z2 / (2.0 * trials)
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom)
