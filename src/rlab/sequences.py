"""Step-size sequence families and arithmetic side-condition checkers.

Every family is a pure function of (spec, n): the same spec always yields
the identical prefix, and generate(spec, n) is a prefix of
generate(spec, m) for n < m. The FAMILIES table maps each family to its
prefix function and to the spec fields it reads; a spec rejects any other
field set away from its default, and serialises only the fields it reads.
mpmath's interval arithmetic, which `log_power_counts` needs for its exact
ceilings, is imported on that function's first call, not with this module.

Families
--------
power           a_n = n**alpha (optionally floored)
log_power       a_n = ln(n)**alpha (optionally floored; a_1 = 0 is allowed)
sqrt_block      consecutive blocks, the k-th of length 4**k / 2, alternating
                2**k + 1 and 2**k - 1 (starting high); a_n = Theta(sqrt(n))
fast_block      blocks of pairs (r+1, r): one pair, then 2 (T+1)^4 pairs for T
                the sum of the earlier steps, so that each block returns the
                walk to 0 with probability >= 1/70 (fast_block_pairs); r
                clears the tabulated growth function at the block's end
fast_increasing strictly increasing reals: blocks x_j + c_1, ..., x_j + c_m
                with c_1 = 0 and c_{m+1} - c_m = m^{-3/2}/sqrt(1 + ln m)
sparse_values   constant blocks of the odd squares p_i = (2i+1)**2 with
                block lengths >= p_{i+1}**2 and fixed parities
geometric       a_n = 2**floor(log2 f(n)) for a tabulated f >= 1
constant        a_n = alpha for every n (default 1)
custom          an explicit list of non-negative values
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, InfeasibleError


@dataclass(frozen=True)
class StepSequenceSpec:
    """Declarative description of a step-size family; the single source of a_n.

    A family reads only the fields FAMILIES lists for it; any other field
    must keep its default, or the spec is a ConfigurationError. Numbers must
    be finite. `alpha` doubles as the level of the `constant` family.
    `growth_fn` is a tabulated non-decreasing function given as the values
    f(1), f(2), ...; indices beyond the table clamp to the last entry.
    """

    family: str
    alpha: float | None = None
    floor_values: bool = False
    growth_fn: tuple[float, ...] | None = None
    custom_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ConfigurationError(f"unknown sequence family {self.family!r}")
        reads = FAMILIES[self.family][1]
        for f in fields(self)[1:]:
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigurationError(f"{self.family} does not read spec.{f.name}")
        if self.alpha is not None:
            _require_number(self.alpha, "alpha")
        _require(isinstance(self.floor_values, bool),
                 f"sequence spec floor_values must be true or false, "
                 f"not {self.floor_values!r}")
        if self.growth_fn is not None:
            object.__setattr__(self, "growth_fn", tuple(
                float(v) for v in _number_tuple(self.growth_fn, "growth_fn")))
        if self.custom_values is not None:
            object.__setattr__(self, "custom_values",
                               _number_tuple(self.custom_values, "custom_values"))

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for name in FAMILIES[self.family][1]:
            value = getattr(self, name)
            if value is not None and value is not False:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "StepSequenceSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(f"sequence spec must be an object, not {data!r}")
        if "family" not in data:
            raise ConfigurationError("sequence spec is missing the 'family' key")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown sequence spec keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class SequenceCounts:
    """Multiset histogram of an integer step-size prefix."""

    counts: dict[int, int]
    prefix_length: int


@dataclass
class IntsConditionReport:
    """Both sides of the two transience side-conditions at a value n."""

    n: int
    assump1_lhs: int
    assump1_rhs: int
    assump1_holds: bool
    assump2_lhs: int
    assump2_rhs: float
    assump2_holds: bool


@dataclass
class SparseConditionReport:
    """Per-value witness check for sparse-valued non-decreasing sequences.

    For each value s, `witnesses[s]` is some smaller value s' whose
    multiplicity is at least epsilon * s**2, or None when no witness exists.
    `harmonic_sum` is the partial sum of 1/s over the checked value set.
    `all_hold` ignores the smallest value, which can never have a witness.
    """

    epsilon: float
    harmonic_sum: float
    witnesses: dict[int, int | None]
    all_hold: bool


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_number(value, name: str) -> None:
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an int past the float range; every family takes floats of it
        ok = False
    _require(ok, f"sequence spec {name} must be a finite number, not {value!r}")


def _number_tuple(values, name: str) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        raise ConfigurationError(
            f"sequence spec {name} must be a list of numbers, not {values!r}") from None
    for v in items:
        _require_number(v, name)
    return items


class _Tabulated:
    """Non-decreasing tabulated function over 1-based indices, clamped at the end."""

    def __init__(self, table):
        _require(table is not None and len(table) > 0,
                 "this family requires a non-empty growth_fn table")
        vals = [float(v) for v in table]
        for a, b in zip(vals, vals[1:]):
            if b < a:
                raise ConfigurationError("growth_fn table must be non-decreasing")
        self.values = vals

    def __call__(self, i: int) -> float:
        if i < 1:
            raise DomainError("growth function indices start at 1")
        return self.values[min(i, len(self.values)) - 1]

    def first_index_at_least(self, target: float) -> int:
        """Smallest 1-based index with f(i) >= target; infeasible if never reached."""
        if self.values[-1] < target:
            raise InfeasibleError(
                f"growth_fn table tops out at {self.values[-1]} < required {target}")
        return bisect.bisect_left(self.values, target) + 1


def generate(spec: StepSequenceSpec, n: int) -> list:
    """First n step sizes of the family described by `spec`.

    Deterministic, and prefix-stable: the result is a prefix of any longer
    generation from the same spec.
    """
    if n < 1:
        raise DomainError("sequence length n must be >= 1")
    return FAMILIES[spec.family][0](spec, n)


def _power_prefix(spec, n):
    _require(spec.alpha is not None, "power family requires alpha")
    alpha = spec.alpha
    if float(alpha).is_integer() and alpha >= 0:
        e = int(alpha)
        # a sequence file reads integers of up to `digits` digits back; the
        # float estimate keeps a longer n**e from being built
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        _require(e * math.log10(n) <= digits + 1 and n**e < 10**digits,
                 f"power alpha {alpha!r}: step {n} has more than {digits} digits, "
                 f"more than a sequence file reads back")
        return [k**e for k in range(1, n + 1)]
    _float_power(float(n), alpha, "power", n)  # the n-th step is the largest for alpha > 0
    vals = [float(k) ** alpha for k in range(1, n + 1)]
    if spec.floor_values:
        return [int(math.floor(v)) for v in vals]
    return vals


def _log_power_prefix(spec, n):
    _require(spec.alpha is not None, "log_power family requires alpha")
    _require(spec.alpha > 0, "log_power requires alpha > 0")
    _float_power(math.log(n), spec.alpha, "log_power", n)  # the n-th step is the largest
    vals = [math.log(k) ** spec.alpha for k in range(1, n + 1)]
    if spec.floor_values:
        return [int(math.floor(v)) for v in vals]
    return vals


def _float_power(base: float, alpha, family: str, n: int) -> None:
    """Check that step n, base ** alpha, lies in the float range."""
    try:
        base ** alpha
    except OverflowError:
        raise ConfigurationError(
            f"{family} alpha {alpha!r}: step {n} is past the float range") from None


def sqrt_block_start(k: int) -> int:
    """1-based index of the first entry of the k-th alternating block."""
    if k < 1:
        raise DomainError("block index k must be >= 1")
    return (4**k + 2) // 6


def sqrt_block_window(k: int) -> tuple[int, int]:
    """Inclusive index range covered by the k-th block."""
    return sqrt_block_start(k), sqrt_block_start(k + 1) - 1


def recurrence_event_window(k: int) -> tuple[int, int]:
    """Index window of the (2k)-th block, where the k-th return event lives."""
    return sqrt_block_window(2 * k)


def _sqrt_block_prefix(spec, n):
    out = []
    k = 1
    while len(out) < n:
        length = 4**k // 2
        hi, lo = 2**k + 1, 2**k - 1
        block = [hi if i % 2 == 0 else lo for i in range(length)]
        out.extend(block)
        k += 1
    return out[:n]


def fast_block_pairs(span: int) -> int:
    """Pairs (r+1, r) in the fast_block block after steps that sum to `span`:
    1 for the first block, 2 (span+1)^4 for every later one.

    Whatever r is, each later block puts the walk at 0 with conditional
    probability >= 1/70, so by Levy's conditional Borel-Cantelli lemma the
    walk is weakly recurrent for any growth function. Let T = span and h the
    pair count. One pair moves the walk by +-(2r+1) or +-1, each with
    probability 1/4, so at pair ends the walk is X + (2r+1) a + b for a
    planar simple random walk (a, b) and the block's start X, |X| <= T;
    visiting (0, -X) puts the walk at 0. By the strong Markov property at
    the first visit, P(visit z within h steps) >= G_h(z) / G_h(0), where G_h
    counts expected visits within h steps. a + b and a - b are independent
    +-1 walks, so G_h((0, y)) = sum_{j<=h} P(S_j = y)^2. The bounds
    4^i / sqrt(4i) <= C(2i, i) <= 4^i / sqrt(3i+1) and C(2i, i+k) >=
    C(2i, i) (1 - k^2/i) give P(S_j = y)^2 >= 1/(64 i) for j = 2i + (|y| mod 2)
    and i >= (|y|+1)^2 / 2, and G_h(0) <= 1 + (1 + ln(h/2)) / 3. At
    h = 2 (T+1)^4 the ratio for every |y| <= T is therefore at least
    3 ln((T+1)^4 / i_0) / (256 (1 + ln(T+1))) with i_0 = ceil((T+1)^2 / 2):
    0.0144 > 1/70 at T = 1, rising with T towards 3/128. Exact sums put the
    ratio near 0.39.
    """
    return 1 if span == 0 else 2 * (span + 1) ** 4


def _fast_block_prefix(spec, n):
    f = _Tabulated(spec.growth_fn)
    out: list[int] = []
    total = 0
    while len(out) < n:
        pairs = fast_block_pairs(total)
        r = max(0, math.ceil(f(len(out) + 2 * pairs)))
        # from the third block on a block is far longer than any prefix
        length = min(2 * pairs, n - len(out))
        out.extend([r + 1, r] * (length // 2) + [r + 1] * (length % 2))
        total += (2 * r + 1) * pairs
    return out


def _fast_increasing_prefix(spec, n):
    f = _Tabulated(spec.growth_fn)
    out: list[float] = []
    prev_last = -1.0
    j = 1
    produced = 0
    while len(out) < n:
        block_len = j + 1
        x = max(f(produced + block_len), prev_last + 1.0, 0.0)
        offset = 0.0
        block = []
        for m in range(1, block_len + 1):
            block.append(x + offset)
            offset += m ** -1.5 / math.sqrt(1.0 + math.log(m))
        out.extend(block)
        prev_last = block[-1]
        produced += block_len
        j += 1
    return out[:n]


def _sparse_parity(block_index: int) -> int | None:
    """Required parity of the block length, or None when the length is free."""
    if block_index < 2:
        return None
    if block_index % 2 == 0:
        return (block_index // 2 + 1) % 2
    return ((block_index - 1) // 2) % 2


def _sparse_values_prefix(spec, n):
    f = _Tabulated(spec.growth_fn) if spec.growth_fn is not None else None
    out: list[int] = []
    if f is not None:
        # Leading zero steps cover indices where the envelope is still below p_1 = 9.
        lead = f.first_index_at_least(9.0) - 1
        out.extend([0] * min(lead, n))
    i = 1
    while len(out) < n:
        p_i = (2 * i + 1) ** 2
        p_next = (2 * (i + 1) + 1) ** 2
        length = p_next * p_next
        if f is not None:
            # The next block's value p_{i+1} must stay under the envelope, so
            # this block extends until f has reached p_{i+1}.
            min_end = f.first_index_at_least(float(p_next)) - 1
            length = max(length, min_end - len(out))
        want = _sparse_parity(i)
        if want is not None and length % 2 != want:
            length += 1
        out.extend([p_i] * length)
        i += 1
    return out[:n]


def _geometric_prefix(spec, n):
    f = _Tabulated(spec.growth_fn)
    out = []
    for k in range(1, n + 1):
        v = f(k)
        if v < 1.0:
            raise ConfigurationError("geometric family requires growth_fn >= 1")
        out.append(2 ** int(math.floor(math.log2(v))))
    return out


def _constant_prefix(spec, n):
    level = 1.0 if spec.alpha is None else spec.alpha
    if level < 0:
        raise ConfigurationError("constant family requires a non-negative level")
    if float(level).is_integer():
        return [int(level)] * n
    return [float(level)] * n


def _custom_prefix(spec, n):
    _require(spec.custom_values is not None, "custom family requires custom_values")
    values = spec.custom_values
    if n > len(values):
        raise ConfigurationError(
            f"custom sequence has {len(values)} values but {n} were requested")
    for idx, v in enumerate(values[:n], 1):
        if v < 0:
            raise DomainError(f"custom step {idx} is negative")
    return [int(v) if float(v).is_integer() else float(v) for v in values[:n]]


# family -> (prefix function, the spec fields it reads, in field order)
FAMILIES = {
    "power": (_power_prefix, ("alpha", "floor_values")),
    "log_power": (_log_power_prefix, ("alpha", "floor_values")),
    "sqrt_block": (_sqrt_block_prefix, ()),
    "fast_block": (_fast_block_prefix, ("growth_fn",)),
    "fast_increasing": (_fast_increasing_prefix, ("growth_fn",)),
    "sparse_values": (_sparse_values_prefix, ("growth_fn",)),
    "geometric": (_geometric_prefix, ("growth_fn",)),
    "constant": (_constant_prefix, ("alpha",)),
    "custom": (_custom_prefix, ("custom_values",)),
}


def value_counts(seq) -> SequenceCounts:
    """Exact multiset histogram of an integer step-size prefix."""
    seq = list(seq)
    counts: Counter[int] = Counter()
    for idx, v in enumerate(seq, 1):
        iv = int(v)
        if iv != v:
            raise DomainError(f"entry {idx} is not an integer: {v!r}")
        if iv < 0:
            raise DomainError(f"entry {idx} is negative: {v!r}")
        counts[iv] += 1
    return SequenceCounts(dict(counts), len(seq))


def check_ints_conditions(counts: SequenceCounts, n: int) -> IntsConditionReport:
    """Evaluate both transience side-conditions at the value n.

    Left-hand sides are exact integers. The second condition's right-hand
    side is 4 n^2 ln^3(n) L_n, with 4 ln^3(n) (natural logarithm) taken as a
    64-bit float c. Its verdict compares lhs2 with c * n^2 * L_n exactly, so
    it holds for counts of any size; `assump2_rhs` is that product as a
    float, or `math.inf` when it lies beyond the float range.
    An all-zero histogram fails both conditions.
    """
    if n < 2:
        raise DomainError("condition checks require n >= 2")
    table = counts.counts
    lhs1 = sum(c for i, c in table.items() if 0 < i <= n and math.gcd(i, n) == 1)
    rhs1 = 2 * n * n
    lhs2 = sum(i * i * c for i, c in table.items() if 0 < i < n)
    num, den = (4.0 * math.log(n) ** 3).as_integer_ratio()
    weight = n * n * table.get(n, 0)
    try:
        rhs2 = num * weight / den
    except OverflowError:
        rhs2 = math.inf
    return IntsConditionReport(
        n=n,
        assump1_lhs=lhs1,
        assump1_rhs=rhs1,
        assump1_holds=lhs1 >= rhs1,
        assump2_lhs=lhs2,
        assump2_rhs=rhs2,
        assump2_holds=lhs2 > 0 and lhs2 * den >= num * weight,
    )


def _ceil_exp_sqrt(j: int) -> int:
    """ceil(e^sqrt(j)), exactly, from interval arithmetic at growing precision.

    For j >= 1, e^sqrt(j) is transcendental (Lindemann-Weierstrass), so no
    interval that encloses it tightly enough contains an integer.
    """
    if j == 0:
        return 1
    # imported here: see the module docstring
    from mpmath.libmp import from_int, mpi_exp, mpi_sqrt, round_floor, to_int

    point = (from_int(j), from_int(j))
    prec = int(1.5 * math.sqrt(j)) + 64
    while True:
        lo, hi = mpi_exp(mpi_sqrt(point, prec), prec)
        below = to_int(lo, round_floor)
        if below == to_int(hi, round_floor):
            return below + 1
        prec *= 2


def log_power_counts(top: int) -> SequenceCounts:
    """Exact histogram of a_k = floor(ln^2 k) over every k with a_k <= top.

    Value i is taken by the k in [e^sqrt(i), e^sqrt(i+1)), so its multiplicity
    is L_i = ceil(e^sqrt(i+1)) - ceil(e^sqrt(i)), and the prefix has
    ceil(e^sqrt(top+1)) - 1 terms. This is the `log_power` family with
    alpha = 2 and floor_values, without generating it.
    """
    if top < 0:
        raise DomainError("top value must be >= 0")
    ceils = [_ceil_exp_sqrt(j) for j in range(top + 2)]
    table = {i: ceils[i + 1] - ceils[i] for i in range(top + 1)}
    return SequenceCounts(table, ceils[-1] - 1)


# log_power_ratio_bounds takes L_i from log_power_counts below this index and
# from the closed form e^sqrt(i+1) - e^sqrt(i) at and above it. There every
# difference exceeds 2^57, so the ceilings move a log by less than 2^-56.
_EXACT_COUNTS_TOP = 2048
_CEILING_SLACK = 2.0 ** -56
# sqrt(i + 2^16) - sqrt(i) <= 2^8, so the log terms i^2 L_i of one chunk span
# less than 300 and their exp relative to the chunk's largest never underflows.
_CHUNK = 1 << 16
# Head terms stop where e^sqrt(i) falls e^40 below e^sqrt(n): the tail
# identity then bounds everything below the head within float precision.
_HEAD_DEPTH = 40.0


@dataclass(frozen=True)
class LogRatioBounds:
    """Certified bounds lo <= log(lhs / rhs) <= hi on both side conditions.

    Describes a_k = floor(ln^2 k) at the values `n`; each field is a float
    for one n and an array aligned with `n` for a window. A condition holds
    where its lo >= 0 and fails where its hi < 0.
    """

    n: int | np.ndarray
    cond1_lo: float | np.ndarray
    cond1_hi: float | np.ndarray
    cond2_lo: float | np.ndarray
    cond2_hi: float | np.ndarray


@lru_cache(maxsize=1)
def _exact_log_counts() -> np.ndarray:
    table = log_power_counts(_EXACT_COUNTS_TOP - 1).counts
    logs = np.array([math.log(table[i]) for i in range(_EXACT_COUNTS_TOP)])
    logs.flags.writeable = False
    return logs


def _log_counts(lo: int, hi: int) -> np.ndarray:
    """log L_i for i in [lo, hi), each within _CEILING_SLACK plus float error."""
    parts = [_exact_log_counts()[lo:min(hi, _EXACT_COUNTS_TOP)]]
    start = max(lo, _EXACT_COUNTS_TOP)
    if start < hi:
        # sqrt(i+1) - sqrt(i) = 1 / (sqrt(i+1) + sqrt(i)) avoids cancellation.
        root = np.sqrt(np.arange(start, hi + 1, dtype=np.float64))
        parts.append(root[1:] + np.log(-np.expm1(-1.0 / (root[1:] + root[:-1]))))
    return np.concatenate(parts)


def _float_error(n, cumulative):
    """Bound on the float error of a computed log-ratio at n.

    The log of a term i^2 L_i is off by at most 2^-53 (3 sqrt(i+1) + 6 ln i
    + 57), and so is the log of the right side. Summing a head in log space
    adds 2^-53 (sqrt(n) + 2 ln n + 100) for the shift, exp and log, and the
    tail and the final subtraction add 2^-53 (2 sqrt(n) + 10). A window
    repeats the shift, exp and log once more. 2^-49 (sqrt(n+1) + 4 ln n + 32)
    covers all of these. The sums add 2^-41: the chunks of `_sum` and the
    carries between them. A window's cumulative sum over `cumulative` terms
    adds at most 2^-52 per term (any order), and the ceilings add
    2 * _CEILING_SLACK (left and right side).
    """
    return (2.0 ** -49 * (np.sqrt(n + 1.0) + 4.0 * np.log(n) + 32.0)
            + 2.0 ** -41 + 2.0 ** -52 * cumulative + 2.0 * _CEILING_SLACK)


def _sum(values: np.ndarray) -> float:
    """Sum of non-negative floats within relative error 2^-42.

    numpy sums blocks of at most 1024 values, each within 1023 * 2^-53 in
    whatever order it adds them, and fsum adds the block sums exactly rounded.
    """
    return math.fsum(np.add.reduceat(values, np.arange(0, values.size, 1024)))


def _prime_factors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


class _LogSum:
    """log of a running sum of exp(x), rescaled so that nothing overflows."""

    def __init__(self):
        self.peak = -math.inf
        self.total = 0.0

    def add(self, logs: np.ndarray) -> None:
        if logs.size == 0:
            return
        top = float(logs.max())
        if top > self.peak:
            self.total *= math.exp(self.peak - top)
            self.peak = top
        self.total += _sum(np.exp(logs - self.peak))

    def log(self) -> float:
        return self.peak + math.log(self.total)


def _log_lhs_bounds(n: int) -> tuple[float, float, float, float]:
    """Bounds on log lhs1 and log lhs2 at n, before float error.

    The head sums the terms with i in [m, n) exactly in log space; both sums
    are at least their head. Below m, sum_{0<i<m} L_i = ceil(e^sqrt(m)) - 3
    < e^sqrt(m) bounds lhs1's tail, and (m-1)^2 times that bounds lhs2's.
    """
    depth = math.sqrt(n) - _HEAD_DEPTH
    m = max(1, math.floor(depth * depth)) if depth > 1 else 1
    primes = _prime_factors(n)
    lhs1, lhs2 = _LogSum(), _LogSum()
    for a in range(m, n, _CHUNK):
        b = min(n, a + _CHUNK)
        log_l = _log_counts(a, b)
        coprime = np.ones(b - a, dtype=bool)
        for p in primes:
            coprime[-a % p::p] = False
        lhs1.add(log_l[coprime])
        lhs2.add(2.0 * np.log(np.arange(a, b)) + log_l)
    lo1, lo2 = lhs1.log(), lhs2.log()
    if m == 1:
        return lo1, lo1, lo2, lo2
    tail = math.sqrt(m)
    hi1 = float(np.logaddexp(lo1, tail))
    hi2 = float(np.logaddexp(lo2, 2.0 * math.log(m - 1) + tail))
    return lo1, hi1, lo2, hi2


def _log_rhs(n, log_count_n):
    """log(2 n^2) and log(4 n^2 ln^3(n) L_n)."""
    log_n = np.log(n)
    return (math.log(2.0) + 2.0 * log_n,
            math.log(4.0) + 2.0 * log_n + 3.0 * np.log(log_n) + log_count_n)


def log_power_ratio_bounds(n: int) -> LogRatioBounds:
    """Certified bounds on log(lhs/rhs) of both check_ints_conditions
    inequalities for a_k = floor(ln^2 k), at one n >= 2.

    The lhs sums are truncated to a head of terms below n, which bounds them
    from below; the tail identity of log_power_counts bounds the rest from
    above. The bounds widen by `_float_error`. The head holds about
    80 sqrt(n) terms, 8 * 10^6 at n = 10^10.
    """
    if n < 2:
        raise DomainError("condition checks require n >= 2")
    lo1, hi1, lo2, hi2 = _log_lhs_bounds(n)
    rhs1, rhs2 = _log_rhs(n, float(_log_counts(n, n + 1)[0]))
    err = _float_error(n, 0)
    return LogRatioBounds(n, float(lo1 - rhs1 - err), float(hi1 - rhs1 + err),
                          float(lo2 - rhs2 - err), float(hi2 - rhs2 + err))


def log_power_ratio_window(start: int, stop: int) -> LogRatioBounds:
    """log_power_ratio_bounds for every n in [start, stop), in one pass.

    Condition 2 starts from the bounds at `start` and adds one term of lhs2
    per step. Condition 1 gets the bracket L_{n-1} <= lhs1 < e^sqrt(n): its
    lhs holds the coprime term i = n - 1 and no more than every L_i with
    0 < i < n. That bracket decides condition 1 once L_{n-1} >= 2 n^2, which
    it is from n = 223 on.
    """
    if start < 2 or stop <= start:
        raise DomainError("a window needs 2 <= start < stop")
    _, _, lo2, hi2 = _log_lhs_bounds(start)
    n = np.arange(start, stop)
    log_l = _log_counts(start - 1, stop)  # L_{start-1} .. L_{stop-1}
    step = 2.0 * np.log(n) + log_l[1:]  # log n^2 L_n = log lhs2(n+1) - lhs2(n)
    lhs2_lo, lhs2_hi = np.empty(n.size), np.empty(n.size)
    # lhs2 below the current chunk, relative to e^peak
    peak, below_lo, below_hi = hi2, math.exp(lo2 - hi2), 1.0
    for a in range(0, n.size, _CHUNK):
        chunk = step[a:a + _CHUNK]
        top = max(peak, float(chunk.max()))
        scale = math.exp(peak - top)
        below_lo, below_hi, peak = below_lo * scale, below_hi * scale, top
        sums = np.cumsum(np.exp(chunk - peak))
        added = np.concatenate(([0.0], sums[:-1]))
        lhs2_lo[a:a + chunk.size] = peak + np.log(below_lo + added)
        lhs2_hi[a:a + chunk.size] = peak + np.log(below_hi + added)
        below_lo += sums[-1]
        below_hi += sums[-1]
    rhs1, rhs2 = _log_rhs(n, log_l[1:])
    err = _float_error(n, n - start)
    return LogRatioBounds(n, log_l[:-1] - rhs1 - err, np.sqrt(n) - rhs1 + err,
                          lhs2_lo - rhs2 - err, lhs2_hi - rhs2 + err)


def check_sparse_conditions(counts: SequenceCounts, epsilon: float) -> SparseConditionReport:
    """Witness check: each value s needs some s' < s with L_{s'} >= epsilon * s**2."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    table = counts.counts
    values = sorted(table)
    witnesses: dict[int, int | None] = {}
    for s in values:
        found = None
        for cand in values:
            if cand >= s:
                break
            if table[cand] >= epsilon * s * s:
                found = cand
                break
        witnesses[s] = found
    positive = [s for s in values if s > 0]
    harmonic = math.fsum(1.0 / s for s in positive)
    smallest = values[0] if values else None
    all_hold = all(w is not None for s, w in witnesses.items() if s != smallest)
    return SparseConditionReport(epsilon, harmonic, witnesses, all_hold)


def parse_json_object(text: str, path, what: str) -> dict:
    """Parse a JSON object read from `path`; anything else is a ConfigurationError."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigurationError(f"{path}: malformed JSON {what}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: the {what} must be a JSON object")
    return data


def read_input_text(path) -> str:
    """The text of an input file the user named.

    Bytes that do not decode are a ConfigurationError naming the file; the
    decode error itself carries no path. OSErrors name it already.
    """
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot decode {path}: {exc}") from exc


def read_sequence_file(path, n: int | None = None) -> list:
    """Load steps from a file: newline-delimited decimals, or a JSON spec object."""
    text = read_input_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        spec = StepSequenceSpec.from_dict(parse_json_object(text, path, "sequence spec"))
        if n is None:
            raise ConfigurationError("a JSON sequence spec needs an explicit length n")
        return generate(spec, n)
    values = []
    for idx, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            v = int(line)  # integers exactly, up to int()'s digit limit
        except ValueError:
            digits = line[1:] if line[0] in "+-" else line
            # int() refuses a string of decimal digits only past its limit
            _require(not digits.isdecimal(), f"{path}:{idx}: integer step "
                     f"{line[:20]}... has too many digits ({len(digits):,})")
            try:
                v = float(line)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{idx}: cannot parse step {line!r}") from exc
            _require(math.isfinite(v), f"{path}:{idx}: step {line!r} is not finite")
            v = int(v) if v.is_integer() else v
        values.append(v)
    if n is not None:
        if n < 1:
            raise ConfigurationError("sequence length n must be >= 1")
        if n > len(values):
            raise ConfigurationError(
                f"{path} holds {len(values)} steps but {n} were requested")
        values = values[:n]
    return values


def sequence_text(steps) -> str:
    """The sequence-file text of `steps`: one per line, whole values as integers."""
    lines = []
    for v in steps:
        whole = isinstance(v, (int, np.integer)) or float(v).is_integer()
        lines.append(str(int(v)) if whole else repr(float(v)))
    return "\n".join(lines) + "\n"


def write_sequence_file(path, steps) -> None:
    Path(path).write_text(sequence_text(steps))
