"""Reproducible Monte Carlo for walks the exact engine cannot reach.

Replicate i draws from the substream (master_seed, i), so every estimate is
invariant under replicate execution order and worker count; aggregation is
commutative (integer counts only). mpmath is imported when the first
coupling game or replay starts (`_SequenceView`), so no other experiment
loads it.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import exact
from .bounds import kochen_stone_ratio
from .errors import ConfigurationError, DomainError, InfeasibleError
from .sequences import StepSequenceSpec, generate, recurrence_event_window
from .streams import (GENERATOR_VERSION, SubstreamSampler, _int32_signs,
                      rademacher_signs, substream, wilson_interval)

# each experiment and the names of the params it reads (see `run_experiment`)
EXPERIMENTS = {
    "interval_hits": ("C", "windows", "block_ks"),
    "q1_estimate": ("n",),
    "embed2d": ("k",),
    "coupling": ("d", "epsilon", "horizon", "dps"),
}
# mpmath's context and number type, bound by the first `_SequenceView`
mp = mpf = None
_BLOCK = 1 << 21  # sign entries per block (`_map_blocks`); 2M ran faster than 0.25M-8M
_REAL_STEP_GRID = 16  # unit windows slide on a 1/16 grid for real-valued walks


@dataclass(frozen=True)
class McRunManifest:
    """Seed, replicate count, horizon, and sequence spec: the reproducibility contract."""

    master_seed: int
    replicates: int
    horizon: int
    spec: StepSequenceSpec
    experiment: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}")
        unknown = sorted(map(str, set(self.params) - set(EXPERIMENTS[self.experiment])))
        if unknown:
            raise ConfigurationError(
                f"{self.experiment} does not read params." + ", params.".join(unknown))
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:  # substream keys only 64 bits
            raise ConfigurationError("master_seed must lie in [0, 2**64)")

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "replicates": self.replicates,
            "horizon": self.horizon,
            "spec": self.spec.to_dict(),
            "experiment": self.experiment,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "McRunManifest":
        needed = {"master_seed", "replicates", "horizon", "spec", "experiment"}
        missing = needed - set(data)
        if missing:
            raise ConfigurationError(f"manifest is missing keys: {sorted(missing)}")
        unknown = set(data) - needed - {"params"}
        if unknown:
            raise ConfigurationError(f"unknown manifest keys: {sorted(unknown)}")
        if not isinstance(data.get("params", {}), dict):
            raise ConfigurationError(
                f"manifest params must be an object, not {data['params']!r}")
        counts = {}
        for key in ("master_seed", "replicates", "horizon"):
            try:
                counts[key] = _integer(data[key])
            except TypeError:
                raise ConfigurationError(
                    f"manifest {key} must be an integer, not {data[key]!r}") from None
        return cls(
            **counts,
            spec=StepSequenceSpec.from_dict(data["spec"]),
            experiment=data["experiment"],
            params=dict(data.get("params", {})),
        )


@dataclass
class EventStats:
    hits: int
    replicates: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float


@dataclass
class RecurrenceStats:
    """Per-window hit frequencies plus all pairwise joint hit counts."""

    per_event: dict[int, EventStats]
    joint: dict[tuple[int, int], int]
    replicates: int


@dataclass
class TwoDEmbedding:
    """Lattice path of a paired block walk and its visits to a fixed line."""

    path: list[tuple[int, int]]
    line: tuple[int, int, int]  # (A, B, c) encoding A*a + B*b + c = 0
    visits_to_line: int


@dataclass
class Q1Estimate:
    q1_hat: float
    stderr: float
    replicates: int
    n: int
    low_sample: bool  # estimator is upward biased when replicates < 100 / q1_hat


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class CoupledPair:
    """Outcome of the two-walk alignment game started `offset_d` apart."""

    offset_d: float
    epsilon_target: float
    episodes_used: int
    final_gap: float
    episode_wins: list[bool]
    anti_steps: list[tuple[int, int]]  # (step index, sign taken by the first walk)
    end_time: int
    evaluations: int  # values a(n) this game added to its view, at the working precision


def _steps_array(manifest: McRunManifest, used: int | None = None):
    """The first `used` steps of the horizon (all of them by default).

    The whole horizon is generated and sets the dtype, so a prefix holds the
    same values; the 64-bit guard reads only the prefix the walk uses.
    """
    steps = generate(manifest.spec, manifest.horizon)
    if all(type(a) is int for a in steps):
        if sum(steps[:used]) >= exact._INT64_GUARD:
            raise InfeasibleError(
                "walk positions on these steps would overflow 64-bit integers")
        return np.asarray(steps[:used], dtype=np.int64)
    return np.asarray(steps[:used], dtype=np.float64)


def simulate_walk(manifest: McRunManifest, replicate: int, steps=None) -> np.ndarray:
    """Positions X_0..X_horizon for one replicate; deterministic in (seed, replicate)."""
    if not 0 <= replicate < manifest.replicates:
        raise ConfigurationError(
            f"replicate {replicate} outside 0..{manifest.replicates - 1}")
    if steps is None:
        steps = _steps_array(manifest)
    if len(steps) < manifest.horizon:
        raise ConfigurationError(
            f"sequence provides {len(steps)} steps but horizon is {manifest.horizon}")
    rng = substream(manifest.master_seed, replicate)
    signs = rademacher_signs(rng, manifest.horizon)
    trace = np.empty(manifest.horizon + 1, dtype=steps.dtype)
    trace[0] = 0
    np.cumsum(signs * steps[: manifest.horizon], out=trace[1:])
    return trace


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(manifest: McRunManifest, worker, size: int, threads: int) -> list:
    """`worker(signs)` for each block of replicates, returned in replicate order.

    A block is the matrix of the first `size` signs of about _BLOCK / size
    (at least one) consecutive replicates, one row each; `size` is the prefix
    the experiment walks (its last window end, n or block end), not the
    horizon. The calling thread draws every block's raw words with one
    `SubstreamSampler`; `threads - 1` pool workers turn them into signs with
    `_int32_signs` and run `worker`, and at most `threads` blocks are drawn
    and not yet collected. The signs are an int32 view over the block's own
    words: a worker may overwrite them, say with its walk, and must not keep
    them past its return.
    Both counts are capped at the usable CPUs, and with one thread everything
    runs on the calling thread. A worker's error stops the drawing and is
    raised here once the blocks in flight end. Replicate i's signs depend
    only on (master_seed, i), so the results are the same for any thread
    count.
    """
    R, rows = manifest.replicates, max(1, _BLOCK // max(1, size))
    sampler = SubstreamSampler()

    def draw(start):
        return sampler.words(manifest.master_seed, range(start, min(start + rows, R)), size)

    def task(words):
        return worker(_int32_signs(words, size))

    threads = min(threads, _usable_cpus())
    if threads <= 1:
        return [task(draw(start)) for start in range(0, R, rows)]
    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        for start in range(0, R, rows):
            if len(pending) == threads:
                results.append(pending.popleft().result())
            pending.append(pool.submit(task, draw(start)))
        return results + [future.result() for future in pending]


def _narrow_walk_steps(steps: np.ndarray, C=0) -> tuple[np.ndarray, int]:
    """Integer steps cast for the walk, and c = min(floor(C), S) for their sum S;
    real steps as they are, and c = 0.

    For integer x, |x| <= C holds exactly when |x| <= c, since |x| <= S. Every
    position x + c lies in [c - S, S + c], which int32 holds when
    S + c < 2**31 and int64 always does (S < 2**62).
    """
    if steps.dtype.kind == "f":
        return steps, 0
    S = int(steps.sum())
    c = min(math.floor(C), S)
    return steps.astype(np.int32 if S + c < 1 << 31 else np.int64), c


def _walk(signs: np.ndarray, steps: np.ndarray, c=0) -> np.ndarray:
    """c + X_1, ..., c + X_size in each row of a block's signs.

    int32 steps (see `_narrow_walk_steps`) walk in the signs' own memory;
    int64 or float64 steps, or signs of another byte order, take a fresh
    array of the steps' dtype.
    """
    own = signs.dtype == steps.dtype
    walk = np.multiply(signs, steps, out=signs if own else None, dtype=steps.dtype)
    if c:
        walk[:, :1] += c  # the cumsum carries it to every position
    return np.cumsum(walk, axis=1, out=walk)


def estimate_interval_hits(manifest: McRunManifest, C: float, block_windows,
                           threads: int = 1) -> RecurrenceStats:
    """Hit frequencies of {exists i in window: |X_i| <= C} for disjoint index windows.

    Windows are inclusive (start, end) ranges of step indices, 1-based; events
    are keyed 1..K in the given order. Wilson intervals at 99%.
    """
    if C < 0:
        raise DomainError("C must be non-negative")
    windows = [(int(s), int(e)) for s, e in block_windows]
    for s, e in windows:
        if not 1 <= s <= e <= manifest.horizon:
            raise ConfigurationError(f"window ({s}, {e}) outside 1..{manifest.horizon}")
    for (s1, e1), (s2, e2) in zip(sorted(windows), sorted(windows)[1:]):
        if s2 <= e1:
            raise ConfigurationError(
                f"windows ({s1},{e1}) and ({s2},{e2}) overlap")
    K = len(windows)
    last = max((e for _, e in windows), default=0)
    steps, c = _narrow_walk_steps(_steps_array(manifest, last), C)
    integral = steps.dtype.kind == "i"

    def worker(signs):
        walk = _walk(signs, steps, c)
        if integral:
            # |x| <= c exactly when x + c, read unsigned, is at most 2c
            walk = walk.view(f"u{walk.itemsize}")
            bound = walk.dtype.type(2 * c)
        else:
            np.abs(walk, out=walk)
            bound = C
        hits = np.empty((len(signs), K), dtype=np.int64)
        for j, (s, e) in enumerate(windows):
            hits[:, j] = walk[:, s - 1:e].min(axis=1) <= bound
        # hit counts on the diagonal, joint counts of window pairs off it
        return hits.T @ hits

    gram = sum(_map_blocks(manifest, worker, last, threads))
    R = manifest.replicates
    per_event = {}
    for j in range(K):
        h = int(gram[j, j])
        lo, hi = wilson_interval(h, R)
        per_event[j + 1] = EventStats(h, R, h / R, lo, hi)
    joint_map = {(j + 1, k + 1): int(gram[j, k])
                 for j in range(K) for k in range(j + 1, K)}
    return RecurrenceStats(per_event, joint_map, R)


def kochen_stone_estimate(stats: RecurrenceStats, up_to_k: int) -> dict:
    """Plug-in first and second moments of Z = number of events hit, and their ratio."""
    if stats.replicates < 1:
        raise DomainError("no replicates recorded")
    keys = [k for k in sorted(stats.per_event) if k <= up_to_k]
    if not keys:
        raise DomainError(f"no events recorded at or below k={up_to_k}")
    R = stats.replicates
    z_mean = math.fsum(stats.per_event[k].p_hat for k in keys)
    cross = 0.0
    for j in keys:
        for k in keys:
            if j < k:
                cross += stats.joint.get((j, k), 0) / R
    z_second = z_mean + 2.0 * cross
    if z_second == 0.0:
        return {"z_mean": 0.0, "z_second_moment": 0.0, "ratio": 0.0}
    return {"z_mean": z_mean, "z_second_moment": z_second,
            "ratio": kochen_stone_ratio(z_mean, z_second)}


def estimate_q1(manifest: McRunManifest, n: int, threads: int = 1) -> Q1Estimate:
    """Empirical maximum unit-window frequency of X_n over the replicates.

    Integer-step walks anchor the windows at integers (each window holds one
    lattice point); real-step walks slide the window on a 1/16 grid, which
    biases the estimate upward by at most one grid cell of mass.
    """
    if n < 1 or n > manifest.horizon:
        raise ConfigurationError(f"n={n} outside 1..{manifest.horizon}")
    R = manifest.replicates
    steps, _ = _narrow_walk_steps(_steps_array(manifest, n))
    integral = steps.dtype.kind == "i"

    def worker(signs):
        if integral:
            # einsum sums int32 signs and steps in int32, with no walk matrix;
            # int64 steps it casts the block to piece by piece
            return np.unique(np.einsum("ij,j->i", signs, steps), return_counts=True)
        # real steps keep `@`: their results depend on its summation order
        cells = np.floor((signs @ steps) * _REAL_STEP_GRID).astype(np.int64)
        return np.unique(cells, return_counts=True)

    # merge the blocks' histograms; raw positions would grow with the replicates
    vals, cnts = map(np.concatenate, zip(*_map_blocks(manifest, worker, n, threads)))
    keys, where = np.unique(vals, return_inverse=True)
    totals = np.zeros(keys.size, dtype=np.int64)
    np.add.at(totals, where, cnts)
    # the empirical law in counts over R; a real-step unit window spans 16 cells
    law = exact.ExactPMF(keys.astype(np.int64, copy=False), totals, n, R)
    q1_hat = float(exact.concentration_q(law, 1 if integral else _REAL_STEP_GRID).result)
    stderr = math.sqrt(q1_hat * (1.0 - q1_hat) / R)
    return Q1Estimate(q1_hat, stderr, R, n, low_sample=R * q1_hat < 100.0)


def _event_window(manifest: McRunManifest, k: int) -> tuple[int, int]:
    """recurrence_event_window(k), which must end within the horizon. A k past
    the horizon's bit length starts past it too: refused before 4^(2k) is built."""
    if k > manifest.horizon.bit_length():
        raise ConfigurationError(f"horizon {manifest.horizon} does not reach block {2 * k}")
    start, end = recurrence_event_window(k)
    if end > manifest.horizon:
        raise ConfigurationError(f"horizon {manifest.horizon} does not reach block end {end}")
    return start, end


def block_pair_trace(manifest: McRunManifest, replicate: int, k: int,
                     steps=None) -> np.ndarray:
    """Positions of the paired walk Y_m = X_{2m} across the (2k)-th block."""
    start, end = _event_window(manifest, k)
    trace = simulate_walk(manifest, replicate, steps=steps)
    return trace[start - 1:end + 1:2]


def embed_2d(trace, k: int) -> TwoDEmbedding:
    """Map a paired-block trace to the lattice: big steps move in x, small in y.

    `trace` holds the paired-walk positions across one (2k)-th block, whose
    increments all lie in {+-2**(2k+1), +-2}. Points on the returned line
    correspond exactly to zeros of the one-dimensional walk.
    """
    if k < 1:
        raise DomainError("block index k must be >= 1")
    trace = [int(v) for v in trace]
    if not trace:
        raise DomainError("trace must contain at least the block-start position")
    big = 2 ** (2 * k + 1)
    a = b = 0
    path = [(0, 0)]
    for idx, (prev, cur) in enumerate(zip(trace, trace[1:]), 1):
        inc = cur - prev
        if inc == big:
            a += 1
        elif inc == -big:
            a -= 1
        elif inc == 2:
            b += 1
        elif inc == -2:
            b -= 1
        else:
            raise DomainError(
                f"pair-step {idx}: increment {inc} not in {{+-{big}, +-2}}")
        path.append((a, b))
    c = trace[0]
    visits = sum(1 for (pa, pb) in path if big * pa + 2 * pb + c == 0)
    return TwoDEmbedding(path, (big, 2, c), visits)


def _embed_blocks(manifest: McRunManifest, k: int, threads: int) -> tuple[int, int]:
    """Total `embed_2d` line visits over the replicates' paired traces across
    the (2k)-th block, and the number of traces whose visits differ from
    their zero count.

    Each replicate walks only the steps up to the block end, so the 64-bit
    guard reads only those; the traces equal `block_pair_trace`'s. A block
    takes `embed_2d`'s steps in array passes over its pair matrix: the
    positions cast to integers, each increment split into an x step (+-big)
    or a y step (+-2), and a visit wherever big * x + 2 * y + c = 0. The
    first row with another increment is handed to `embed_2d`, which names
    its first bad pair-step.
    """
    start, end = _event_window(manifest, k)
    steps, _ = _narrow_walk_steps(_steps_array(manifest, end))
    big = 2 ** (2 * k + 1)

    def worker(signs):
        walk = _walk(signs, steps)
        # column j holds X_{j+1}: the pair trace is X_{start-1}, X_{start+1}, ..., X_end
        pairs = walk[:, start - 2::2]
        # int() of each position, as embed_2d reads it; every partial sum of
        # the increments is at most the step sum, so int32 walks stay int32
        trace = pairs.astype(np.int64) if pairs.dtype.kind == "f" else pairs
        x = np.diff(trace, axis=1)
        size = np.abs(x)
        small = size == 2
        bad = (size != big) & ~small
        if bad.any():
            embed_2d(pairs[bad.any(axis=1).argmax()], k)  # raises
        del size, bad  # freed before y is allocated, off the block's peak
        np.sign(x, out=x)
        y = x * small  # the y steps, and x keeps the x steps
        x[small] = 0
        np.cumsum(x, axis=1, out=x)
        np.cumsum(y, axis=1, out=y)
        x *= big
        y *= 2
        x += y  # big * x + 2 * y at each point after the path's start (0, 0)
        c = trace[:, :1]
        visits = (c[:, 0] == 0) + np.count_nonzero(x == -c, axis=1)
        zeros = np.count_nonzero(pairs == 0, axis=1)
        return np.array([visits.sum(), np.count_nonzero(visits != zeros)])

    return tuple(sum(_map_blocks(manifest, worker, end, threads)).tolist())


def fit_exponent(points) -> FitResult:
    """Ordinary least squares in log-log coordinates over (n, value) points."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise DomainError("need at least 3 points to fit an exponent")
    for n, v in pts:
        if v <= 0:
            raise DomainError(f"non-positive value {v} at n={n}")
        if n <= 0:
            raise DomainError(f"non-positive n {n}")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2)


# --------------------------------------------------------------------------
# The two-walk alignment game
# --------------------------------------------------------------------------

_DEFAULT_COUPLING_HORIZON = 10**60
_MAX_EPISODES = 10_000
# mpmath digits a manifest may ask for: at 10^4 a power alpha = 0.25 game of
# d 1, epsilon 0.1 takes 1.0-1.8 s (1-3 episodes); at 10^8 none ended in 60 s
MAX_DPS = 10_000


def _memoised(query):
    """`query` answered once per view for each argument tuple; an answer
    that raises is not stored, so asking again raises again."""
    @functools.wraps(query)
    def memoised(view, *args):
        key = (query.__name__, *args)
        found = view._found.get(key)
        if found is None:
            found = view._found[key] = query(view, *args)
        return found
    return memoised


class _SequenceView:
    """Random access to a_n for the coupling game, each a(n) evaluated once.

    Values and index answers are memoised, so a view serves one working
    precision and may be shared by the games of one run. Both index
    queries take one search, `_first`: a closed-form guess that `_confirmed`
    checks against rounding, else doubling and bisection, which find the same
    index. Values invert as m >= t**(1/alpha) (power) or m >= exp(t**(1/alpha))
    (log_power); gap(n) < h first holds just above x + 1/2 where a'(x) = h.
    Custom gaps take the exact predicate "every gap from n on is below h" and
    no guess; custom values need not increase, so they are scanned in order.
    """

    def __init__(self, spec: StepSequenceSpec, horizon: int | None):
        global mp, mpf
        from mpmath import mp, mpf

        self.spec = spec
        self._memo: dict[int, mpf] = {}
        self._found: dict[tuple, int] = {}
        self.kind = fam = spec.family
        self.alpha = spec.alpha
        self.horizon = horizon or _DEFAULT_COUPLING_HORIZON
        if fam == "power":
            if spec.floor_values:
                raise ConfigurationError(
                    "floored power steps have unit gaps; the game needs vanishing gaps")
            if not (spec.alpha and 0.0 < spec.alpha < 1.0):
                raise ConfigurationError(
                    "coupling requires power alpha in (0, 1) for vanishing gaps")
            self.gap_floor = 2
        elif fam == "log_power":
            if spec.floor_values:
                raise ConfigurationError(
                    "floored log-power steps have integer gaps; the game needs "
                    "vanishing gaps")
            if not (spec.alpha and spec.alpha > 0):
                raise ConfigurationError("log_power requires alpha > 0")
            self.gap_floor = max(3, int(math.ceil(math.exp(max(0.0, spec.alpha - 1.0)))) + 1)
        elif fam == "custom":
            values = [float(v) for v in (spec.custom_values or ())]
            if len(values) < 3:
                raise ConfigurationError("custom coupling sequence needs >= 3 values")
            self.values = values
            self.horizon = min(horizon or len(values), len(values))
            gaps = [abs(b - a) for a, b in zip(values, values[1:])]
            # suffix maxima let us check "all later gaps below delta/2" exactly
            self.suffix_gap = list(accumulate(reversed(gaps), max))[::-1]
        else:
            raise ConfigurationError(
                f"family {fam!r} does not provide unbounded steps with vanishing gaps")

    def a(self, n: int) -> mpf:
        value = self._memo.get(n)
        if value is None:
            if self.kind == "power":
                value = mpf(n) ** mpf(self.alpha)
            elif self.kind == "log_power":
                value = mp.log(mpf(n)) ** mpf(self.alpha)
            else:
                value = mpf(self.values[n - 1])
            self._memo[n] = value
        return value

    def gap(self, n: int) -> mpf:
        return self.a(n) - self.a(n - 1)

    def _confirmed(self, guess: mpf, lo: int, margin) -> int | None:
        """The smallest c in [lo, horizon] with margin(c) > 0, tried at `guess`
        and the index after it; None when neither is confirmed.

        `margin` increases with its index for the exact values. Requiring
        margin(c) > tol and, above lo, margin(c - 1) < -tol, with
        tol = a(c) * 2**(8 - prec) far above the rounding of a, fixes the
        computed sign of `margin` at every index the doubling and bisection
        probe, all of them below 2c. So they would return the same c.
        """
        if not guess < self.horizon + 1:
            return None
        c = max(int(guess), lo)
        for c in range(c, min(c + 2, self.horizon + 1)):
            tol = mp.ldexp(self.a(c), 8 - mp.prec)
            here = margin(c)
            if here > tol:
                return c if c == lo or margin(c - 1) < -tol else None
            if not here < -tol:
                return None
        return None

    def _first(self, lo: int, holds, unreachable: str, guess=None, margin=None) -> int:
        """Smallest n in [lo, horizon] where the monotone predicate `holds` is
        true: `guess` if `_confirmed` takes it, else doubling then bisection."""
        if lo > self.horizon:
            raise InfeasibleError(unreachable)
        if guess is not None:
            found = self._confirmed(guess, lo, margin)
            if found is not None:
                return found
        hi = lo
        while not holds(hi):
            if hi >= self.horizon:
                raise InfeasibleError(unreachable)
            lo, hi = hi, min(2 * hi, self.horizon)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _gap_guess(self, h: mpf) -> mpf | None:
        """About x + 3/2, where a'(x) = h (see the class docstring)."""
        alpha = mpf(self.alpha)
        if self.kind == "power":
            return (h / alpha) ** (1 / (alpha - 1)) + 1.5
        # alpha * u**(alpha - 1) / e**u = h on u = ln x: f(u) = u - (alpha - 1) ln u - L
        # is 0, and Newton from u > alpha - 1 with f(u) <= 0 stays where f' > 0
        L = mp.log(alpha / h)
        u = L + (alpha - 1) * mp.log(L) if L > 1 else alpha - 1
        if not u > alpha - 1:
            return None
        for _ in range(8):
            u -= (u - (alpha - 1) * mp.log(u) - L) / (1 - (alpha - 1) / u)
        return mp.exp(u) + 1.5

    @_memoised
    def first_gap_below(self, lo: int, half_delta: mpf) -> int:
        """Smallest n in [lo, horizon] with every later gap below half_delta."""
        if self.kind == "custom":
            return self._first(
                max(lo, 2), lambda n: self.suffix_gap[n - 2] < half_delta,
                f"no index on the horizon has all later gaps below {float(half_delta)}")
        n = max(lo, self.gap_floor)
        if n > self.horizon:
            raise InfeasibleError("no indices left on the horizon")
        return self._first(
            n, lambda k: self.gap(k) < half_delta,
            f"gap threshold {float(half_delta)} unreachable within horizon",
            self._gap_guess(half_delta), lambda k: half_delta - self.gap(k))

    @_memoised
    def first_value_at_least(self, after: int, target: mpf) -> int:
        """Smallest m in (after, horizon] with a(m) >= target."""
        if self.kind == "custom":
            for m in range(after + 1, self.horizon + 1):
                if self.a(m) >= target:
                    return m
            raise InfeasibleError(
                f"no step on the horizon reaches value {float(target)}")
        root = target ** (1 / mpf(self.alpha))
        return self._first(
            after + 1, lambda k: self.a(k) >= target,
            f"steps on the horizon never reach value {float(target)}",
            mp.ceil(root if self.kind == "power" else mp.exp(root)),
            lambda k: self.a(k) - target)


def simulate_coupling(spec: StepSequenceSpec, d: float, epsilon: float, seed: int,
                      replicate: int = 0, horizon: int | None = None,
                      dps: int = 60, *, view: _SequenceView | None = None) -> CoupledPair:
    """Play the episode strategy aligning two walks started `d` apart to within epsilon.

    Episode i: with current signed gap d_i and delta_i = min(epsilon, |d_i|),
    pick n_i past which all step gaps are below delta_i / 2, find m_i with
    a(m_i) - a(n_i) inside [x - delta_i/2, x] for the strategy offset x, and
    anti-couple the signs at n_i and m_i (coupling them equal everywhere
    else). Each episode closes the gap into [0, epsilon] with probability at
    least 1/4. Arithmetic runs at `dps` significant digits so deep episode
    chains (whose gaps and indices grow geometrically) stay exact enough to
    place the window. `view`, a `_SequenceView(spec, horizon)` that other
    games at the same `dps` may share, defaults to a fresh one.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if view is None:
        view = _SequenceView(spec, horizon)
    evaluated = len(view._memo)
    rng = substream(seed, replicate)
    with mp.workdps(dps):
        D = mpf(float(d))
        eps = mpf(float(epsilon))
        anti: list[tuple[int, int]] = []
        wins: list[bool] = []
        if 0 <= D <= eps:
            return CoupledPair(float(d), float(epsilon), 0, float(D), wins, anti, 0, 0)
        t = 0
        episodes = 0
        while episodes < _MAX_EPISODES:
            episodes += 1
            delta = min(eps, abs(D))
            try:
                n_i = view.first_gap_below(t + 1, delta / 2)
                x = D / 2 if D > 0 else -D / 2 + delta / 2
                target = view.a(n_i) + x - delta / 2
                m_i = view.first_value_at_least(n_i, target)
            except InfeasibleError as exc:
                raise InfeasibleError(
                    f"episode {episodes} (gap target delta={float(delta)}): {exc}"
                ) from exc
            if view.a(m_i) - view.a(n_i) > x:
                raise InfeasibleError(
                    f"episode {episodes}: step gaps past n={n_i} are too coarse for "
                    f"delta={float(delta)}")
            # one word per episode: its low half signs n_i, its high half m_i
            for idx, sign in zip((n_i, m_i), rademacher_signs(rng, 2).tolist()):
                D = D + 2 * sign * view.a(idx)
                anti.append((idx, sign))
                if 0 <= D <= eps:
                    wins.append(True)
                    return CoupledPair(float(d), float(epsilon), episodes, float(D),
                                       wins, anti, idx, len(view._memo) - evaluated)
            t = m_i
            wins.append(False)
        raise InfeasibleError(f"no alignment within {_MAX_EPISODES} episodes")


def replay_final_gap(spec: StepSequenceSpec, d: float, anti_steps,
                     horizon: int | None = None, dps: int = 60) -> float:
    """Re-run the gap recursion from the recorded anti-coupled signs.

    Equal-coupled steps cancel exactly, so the gap changes only at the
    recorded indices; this replays those updates in the original order.
    """
    view = _SequenceView(spec, horizon)
    with mp.workdps(dps):
        D = mpf(float(d))
        for idx, sign in anti_steps:
            D = D + 2 * sign * view.a(idx)
        return float(D)


def _param(params: dict, name: str, check, default=None):
    """Manifest parameter `name` passed through `check`, or `default` when it is
    absent; a value `check` rejects is a ConfigurationError naming it."""
    if name not in params:
        return default
    try:
        return check(params[name])
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"malformed manifest params.{name}: {params[name]!r}") from None


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(value)
    return int(value)


def _positive(value) -> int:
    value = _integer(value)
    if value < 1:
        raise ValueError(value)
    return value


def _dps(value) -> int:
    value = _positive(value)
    if value > MAX_DPS:
        raise ValueError(value)
    return value


def _real(value):
    """`value` itself if it is a finite int or float in the float range (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if not math.isfinite(value):  # OverflowError for an int past the float range
        raise ValueError(value)
    return value


def run_experiment(manifest: McRunManifest, threads: int = 1) -> dict:
    """The `result` block of an `rlab mc` report; interval_hits, q1_estimate
    and embed2d run their replicates on `threads` threads (see `_map_blocks`)."""
    params = manifest.params
    if manifest.experiment == "interval_hits":
        if ("windows" in params) == ("block_ks" in params):
            raise ConfigurationError(
                "interval_hits needs exactly one of params.windows and params.block_ks")
        windows = _param(params, "windows",
                         lambda v: [(_integer(s), _integer(e)) for s, e in v])
        if windows is None:
            ks = _param(params, "block_ks", lambda v: [_integer(k) for k in v])
            windows = [_event_window(manifest, k) for k in ks]
        # checked, not converted: an integer walk compares exactly against floor(C)
        C = _param(params, "C", _real, 0.0)
        stats = estimate_interval_hits(manifest, C, windows, threads=threads)
        result = {
            "kind": "mc_interval_hits",
            "per_event": {str(k): vars(ev) for k, ev in stats.per_event.items()},
            "joint": {f"{j},{k}": c for (j, k), c in stats.joint.items()},
            "kochen_stone": kochen_stone_estimate(stats, max(stats.per_event))
            if stats.per_event else {},
        }
    elif manifest.experiment == "q1_estimate":
        if "n" not in params:
            raise ConfigurationError("q1_estimate needs params.n")
        est = estimate_q1(manifest, _param(params, "n", _positive), threads=threads)
        result = {"kind": "mc_q1", **vars(est)}
    elif manifest.experiment == "embed2d":
        k = _param(params, "k", _positive, 1)
        visits, mismatches = _embed_blocks(manifest, k, threads)
        result = {"kind": "mc_embed2d", "k": k, "traces": manifest.replicates,
                  "fidelity_mismatches": mismatches,
                  "mean_visits": visits / manifest.replicates}
    else:
        d = _param(params, "d", lambda v: float(_real(v)), 1.0)
        eps = _param(params, "epsilon", lambda v: float(_real(v)), 0.1)
        horizon = _param(params, "horizon", _positive)
        dps = _param(params, "dps", _dps, 60)
        # one view for every game, so each a(n) and index search runs once per
        # run; none for epsilon <= 0, which simulate_coupling rejects first
        view = _SequenceView(manifest.spec, horizon) if eps > 0 else None
        episodes = wins = gap_ok = max_episodes = 0
        for rep in range(manifest.replicates):
            pair = simulate_coupling(manifest.spec, d, eps, manifest.master_seed,
                                     replicate=rep, horizon=horizon, dps=dps, view=view)
            episodes += len(pair.episode_wins)
            wins += sum(pair.episode_wins)
            gap_ok += 0.0 <= pair.final_gap <= eps
            max_episodes = max(max_episodes, pair.episodes_used)
        result = {"kind": "mc_coupling", "d": d, "epsilon": eps,
                  "runs": manifest.replicates, "final_gap_in_range": gap_ok,
                  "episodes": episodes,
                  "per_episode_win_rate": wins / episodes if episodes else 1.0,
                  "max_episodes": max_episodes}
    return {**result, "mc_manifest": manifest.to_dict(), "generator": GENERATOR_VERSION}
