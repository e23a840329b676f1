"""Counter-based random streams and the Wilson score interval.

Every Monte Carlo consumer derives an independent substream per replicate
from `(master_seed, replicate)` via the Philox counter-based generator, so
results do not depend on replicate execution order or worker count.
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


def rademacher_signs(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` fair signs in {-1, +1} as int64."""
    return rng.integers(0, 2, size=size, dtype=np.int64) * 2 - 1


class SubstreamSampler:
    """Reusable generator that rewinds to any (master_seed, index) substream.

    Re-keying a single Philox is several times cheaper than constructing a
    fresh generator per replicate and draws bit-identical values. Not thread
    safe: use one sampler per worker.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)

    def _rewind(self, master_seed: int, index: int) -> np.random.Generator:
        state = self._bitgen.state
        state["state"]["counter"][:] = 0
        state["state"]["key"][0] = master_seed & 0xFFFFFFFFFFFFFFFF
        state["state"]["key"][1] = index & 0xFFFFFFFFFFFFFFFF
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._gen

    def signs(self, master_seed: int, index: int, size: int) -> np.ndarray:
        return rademacher_signs(self._rewind(master_seed, index), size)


def wilson_interval(hits: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = p + z2 / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom)
