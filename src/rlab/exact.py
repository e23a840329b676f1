"""Exact laws of signed sums of integer steps, on Z and on Z/mZ.

A walk law is built one step at a time by a single lattice kernel. After
steps summing to S the position lies on the lattice -S + 2g*Z, g being the gcd
of the nonzero steps, so a step a adds the law to a copy of itself shifted by
a/g lattice slots. While at least DENSE_FILL of the window [-S, S] is reached
and the window fits the atom cap, the law is a dense weight array and a step is
two shifted slice-adds; otherwise it is the sorted array of reached slots and a
step merges the two shifted copies. The form is chosen again at every step from
the fill it will have. A dense window keeps a reach mask only while some slot
is unreached: a full window overlaps its shift by s slots in max(w - s, 0)
slots and stays full after a step no longer than itself, so unit and
lattice-filling steps never build one, and a refilled window drops its mask.

Float mode halves the weights at every step. Rational mode (probabilities
k / 2**n with exact integer numerators) runs the same kernel on int64 sign
counts; it backs the enumeration oracles and is limited to 40 nonzero steps.
Both modes answer every query with the same numpy code on the weights: a sum
of counts is at most 2**40, so `math.fsum` and `cumsum` give it exactly, and
one Fraction is built per answer. Support values are int64 in both modes, so
the steps must sum to less than 2**62.

Many short step lists have a row kernel, `walk_pmf_rows`: their float laws
are the rows of one matrix on the integer grid [-S, S], each step position one
gather of every row shifted by its own step. It matches `walk_pmf` bit for bit
because each atom gets the same two halved operands, h(v + a) and h(v - a), in
the same step order; float addition is commutative, and adding 0.0 for an
unreached operand is exact.

The window scan of `concentration_q`, the tail sums of `tail_prob` and
`abs_tail_prob` and the pairwise sum of `convolve` each run on weights with a
leading row axis: the `*_rows` functions answer a stack of float laws on one
shared support in one set of array passes, bit for bit as one call per law
would, with one window width or tail threshold per row if asked.

The law on Z/mZ depends only on the number of steps in each nonzero residue
class: `residue_coefficients` gives its Fourier coefficients, which
`modular_walk_pmf` inverts and keeps on the law, and which
`bounds.cosine_product_bound` sums.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DomainError, InfeasibleError

DEFAULT_SUPPORT_CAP = 1 << 26
SUPPORT_CAP_ENV = "RLAB_SUPPORT_CAP"
EXACT_MODE_MAX_STEPS = 40
DENSE_FILL = 1 / 8  # least share of the window reached for the dense form
_INT64_GUARD = 1 << 62


@dataclass
class ExactPMF:
    """Exact law of a walk position on the integers, held as sorted int64 atoms.

    `weights` matches `support`: float64 probabilities in float mode
    (`denominator` None), or int64 sign counts over `denominator` = 2**n in
    rational mode. Every query runs on the weights and turns its answer into a
    float or a Fraction through `value`, so both modes share one code path.
    """

    support: np.ndarray
    weights: np.ndarray
    steps_applied: int
    denominator: int | None = None

    @property
    def exact(self) -> bool:
        return self.denominator is not None

    @property
    def one(self):
        """The weight of probability 1."""
        return self.denominator or 1

    @property
    def probs(self):
        """The probabilities: the float array, or a list of Fractions."""
        if self.denominator is None:
            return self.weights
        return [Fraction(c, self.denominator) for c in self.weights.tolist()]

    def value(self, w):
        """A weight, or a sum of weights, as a float or an exact Fraction."""
        return float(w) if self.denominator is None else Fraction(int(w), self.denominator)

    def __len__(self) -> int:
        return len(self.support)

    def prob_at(self, value: int):
        idx = int(np.searchsorted(self.support, value))
        if idx < len(self.support) and self.support[idx] == value:
            return self.value(self.weights[idx])
        return self.value(0)

    def max_atom(self):
        return self.value(np.max(self.weights))

    def total_mass(self):
        return self.value(math.fsum(self.weights))

    def as_dict(self) -> dict:
        """{value: probability} with Python ints and floats (or Fractions)."""
        return {int(v): self.value(w) for v, w in zip(self.support, self.weights)}


@dataclass
class ModularPMF:
    """Dense law of a walk position on Z/mZ; probs[r] = P(X = r mod m).

    `counts` holds the number of steps in each nonzero residue class, in order
    of first appearance, and `coefficients` is `residue_coefficients(modulus,
    counts)`, the table the law was inverted from.
    """

    modulus: int
    probs: np.ndarray
    counts: dict
    coefficients: np.ndarray


@dataclass
class ConcentrationQuery:
    """A window width r, the supremum over half-open windows (x, x+r], and a maximiser."""

    r: float
    result: object
    argmax_x: float


@dataclass
class SummaryMoments:
    variance: object
    l2_norm: float
    total: object


def support_cap() -> int:
    env = os.environ.get(SUPPORT_CAP_ENV)
    if not env:
        return DEFAULT_SUPPORT_CAP
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"{SUPPORT_CAP_ENV} must be an integer, not {env!r}") from None


def _as_int_steps(steps) -> list[int]:
    out = []
    for idx, a in enumerate(steps, 1):
        ia = int(a)
        if ia != a:
            raise DomainError(
                f"step {idx} is not an integer ({a!r}); the exact engine is integer-only")
        if ia < 0:
            raise DomainError(f"step {idx} is negative ({a!r})")
        out.append(ia)
    return out


def walk_pmf(steps, exact: bool = False) -> ExactPMF:
    """Exact law of the signed sum of `steps` under independent fair signs.

    Zero steps are identity convolutions and are skipped. Raises
    InfeasibleError when the projected support would exceed the atom cap.
    """
    int_steps = _as_int_steps(steps)
    limit = support_cap()
    nonzero = sum(1 for a in int_steps if a)
    if exact and nonzero > EXACT_MODE_MAX_STEPS:
        raise ConfigurationError(
            f"rational mode supports at most {EXACT_MODE_MAX_STEPS} nonzero steps "
            f"(got {nonzero})")
    support, weights = _lattice_law(int_steps, limit, exact)
    return ExactPMF(support, weights, len(int_steps), 2**nonzero if exact else None)


def _lattice_law(int_steps, limit, exact=False, on_step=None):
    """The walk law as (support values, weights), built one step at a time.

    Slot k holds the value 2*g*k - S. The dense form keeps weights over the
    whole window and, while some slot of it is unreached, a `reach` mask; a
    full window keeps none (`reach` and `slots` both None). The sparse form
    keeps the sorted reached `slots` and their weights. In every form each
    atom's weight is 0 + h(v - a) + h(v + a), h being the halved weights
    (float) or the sign counts (exact), and the cap is checked on the
    projected atom count before weights are allocated. `on_step` sees the
    weights after every step, zero steps included.
    """
    g = math.gcd(*int_steps) or 1
    total, count = 0, 1
    reach, slots = None, None
    weights = np.ones(1, dtype=np.int64 if exact else np.float64)
    for idx, a in enumerate(int_steps, 1):
        if a:
            total += a
            if total >= _INT64_GUARD:
                raise InfeasibleError(
                    f"step {idx}: support values would overflow 64-bit integers")
            s, width = a // g, total // g + 1
            if slots is not None:
                hi = slots + s
                pos = np.minimum(np.searchsorted(slots, hi), slots.size - 1)
                overlap = np.count_nonzero(slots[pos] == hi)
            elif reach is not None:
                overlap = np.count_nonzero(reach[s:] & reach[:max(reach.size - s, 0)])
            else:  # a full window of width - s slots overlaps its shift by s
                overlap = max(width - 2 * s, 0)
            count = 2 * count - int(overlap)
            if count > limit:
                raise InfeasibleError(
                    f"step {idx}: projected support {count} exceeds cap {limit}")
            dense = width <= limit and count >= DENSE_FILL * width
            if dense and slots is not None:
                reach = np.zeros(width - s, dtype=bool)
                reach[slots] = True
                full = np.zeros(width - s, dtype=weights.dtype)
                full[slots] = weights
                weights, slots = full, None
            elif not dense and slots is None:
                slots = np.arange(width - s) if reach is None else np.flatnonzero(reach)
                weights, reach = weights[slots], None
            if not exact:
                weights *= 0.5
            if dense:
                low, high, size = slice(0, width - s), slice(s, width), width
                if count < width:  # a slot is unreached: keep the mask
                    was = True if reach is None else reach
                    reach = np.zeros(width, dtype=bool)
                    reach[low] = was
                    reach[high] |= was
                else:
                    reach = None
            else:
                hi = slots + s
                merged = np.union1d(slots, hi)
                low, high = np.searchsorted(merged, slots), np.searchsorted(merged, hi)
                slots, size = merged, merged.size
            grown = np.zeros(size, dtype=weights.dtype)
            grown[low] = weights
            grown[high] += weights
            weights = grown
        if on_step is not None:
            on_step(weights)
    if reach is not None:
        slots = np.flatnonzero(reach)
        weights = weights[slots]
    elif slots is None:
        slots = np.arange(weights.size)
    return slots * (2 * g) - total, weights


def walk_pmf_rows(step_lists):
    """(grid, weights): the float law of each step list as a row of `weights` on
    the integer grid [-S, S], S the largest step total. Row i is
    `walk_pmf(step_lists[i])` scattered onto the grid, bit for bit, 0.0 elsewhere.

    Zero steps are dropped, as `walk_pmf` skips them, and the rows are walked
    longest first, so the rows a step position moves are a leading block. A row
    holds slot k for the value 2k - P, P its steps so far, so a step a leaves
    h(x + a) in slot k and brings h(x - a) from slot k - a: each step halves the
    block's reached slots and adds one gather, through flat indices, of every
    row shifted by its own step. An atom thus gets the same two halved operands
    as in `walk_pmf`; float addition is commutative and adding 0.0 for an
    unreached one is exact. Raises InfeasibleError when the rows would hold
    more grid atoms than the cap.
    """
    lists = step_lists
    values = list(chain.from_iterable(lists))
    if set(map(type, values)) - {int} or min(values, default=0) < 0:
        lists = [_as_int_steps(steps) for steps in lists]
        values = list(chain.from_iterable(lists))
    sums = list(map(sum, lists))
    total = max(sums, default=0)
    width, limit, count = 2 * total + 1, support_cap(), len(lists)
    if count * width > limit:
        raise InfeasibleError(f"{count} laws on a grid of {width} values exceed cap {limit}")
    moves = [[a for a in steps if a] for steps in lists]
    order = sorted(range(count), key=lambda i: -len(moves[i]))  # longest first
    steps = np.zeros((count, max(map(len, moves), default=0)), dtype=np.int64)
    for row, i in enumerate(order):
        steps[row, :len(moves[i])] = moves[i]
    reach = np.cumsum(steps, axis=1)
    moved = steps > 0
    # per step position: the rows it moves, and their largest reach before and after
    active = np.count_nonzero(moved, axis=0).tolist()
    before = np.where(moved, reach - steps, 0).max(axis=0, initial=0).tolist()
    after = np.where(moved, reach, 0).max(axis=0, initial=0).tolist()
    pad = max(values, default=0)  # slots below 0, read as zeros
    weights = np.zeros((count, pad + total + 1))
    weights[:, pad] = 1.0
    cells = weights.reshape(-1)
    at = np.arange(0, cells.size, weights.shape[1])[:, None] + np.arange(pad, pad + total + 1)
    for j, (k, lo, hi) in enumerate(zip(active, before, after)):
        weights[:k, pad:pad + lo + 1] *= 0.5
        weights[:k, pad:pad + hi + 1] += cells.take(at[:k, :hi + 1] - steps[:k, j, None])
    out = np.zeros((count, width))
    for slots, i in zip(weights[:, pad:], order):
        # slot k holds the value 2k - sums[i]
        out[i, total - sums[i]:total + sums[i] + 1:2] = slots[:sums[i] + 1]
    return np.arange(-total, total + 1), out


def pmf_from_atoms(atoms: dict) -> ExactPMF:
    """Build a float-mode PMF from a value -> probability mapping (must sum to 1
    within 1e-9)."""
    if not atoms:
        raise DomainError("a PMF needs at least one atom")
    support = sorted(atoms)
    probs = [atoms[v] for v in support]
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"atom probabilities sum to {total}, not 1")
    return ExactPMF(np.asarray(support, dtype=np.int64),
                    np.asarray(probs, dtype=np.float64), 0)


def convolve(a: ExactPMF, b: ExactPMF) -> ExactPMF:
    """Law of the sum of two independent float-mode integer PMFs."""
    if a.exact or b.exact:
        raise ConfigurationError("convolve takes float-mode PMFs, not rational ones")
    support, weights = convolve_rows(a.support, a.weights, b.support, b.weights)
    return ExactPMF(support, weights, a.steps_applied + b.steps_applied)


def convolve_rows(a_support, a_weights, b_support, b_weights):
    """(support, weights) of the law of A + B for each row pair of float weights.

    Row i of `a_weights` is the law {a_support[j]: a_weights[i, j]}, and likewise
    for B; a 1-D weight array is one law. Every sum of two atoms is a key, even
    where zero weights pad a row. Each key adds its products p * q in ascending
    order of A's atom, starting from 0, as a loop over the atom pairs would, so
    zero-weight atoms change no sum: x + 0.0 is x.
    """
    sums = a_support[:, None] + b_support
    support = np.unique(sums)
    at = np.searchsorted(support, sums)
    rows = np.broadcast_shapes(a_weights.shape[:-1], b_weights.shape[:-1])
    weights = np.zeros(rows + (support.size,))
    for i in range(a_support.size):
        weights[..., at[i]] += a_weights[..., i, None] * b_weights
    return support, weights


def _window_masses(support, weights, r):
    """The mass of the window [v, v + ceil(r) - 1] at each atom v of `support`,
    for the law in each row of `weights` (its last axis runs along `support`)."""
    if not 0 < r < math.inf:
        raise DomainError("window width r must be positive and finite")
    w = math.ceil(r)  # lattice points a half-open window (x, x+r] can capture
    # no window need pass the last atom, so the int64 ends cannot overflow
    reach = min(w - 1, int(support[-1] - support[0]))
    ends = np.searchsorted(support, np.minimum(support, support[-1] - reach) + reach,
                           side="right")
    csum = np.zeros(weights.shape[:-1] + (support.size + 1,), dtype=weights.dtype)
    np.cumsum(weights, axis=-1, out=csum[..., 1:])
    return csum[..., ends] - csum[..., :-1]


def concentration_q(pmf: ExactPMF, r: float) -> ConcentrationQuery:
    """Supremum of P(x < X <= x + r) over real x, with a maximising left endpoint.

    For an integer-valued law and r = 1 this is the maximum point mass.
    """
    masses = _window_masses(pmf.support, pmf.weights, r)
    best_i = int(np.argmax(masses))  # the first maximum
    return ConcentrationQuery(r, pmf.value(masses[best_i]),
                              float(int(pmf.support[best_i]) + (math.ceil(r) - 1) - r))


def concentration_rows(support, weights, r) -> np.ndarray:
    """`concentration_q(...).result` of the law in each row of float `weights` on
    one sorted `support`, bit for bit; zero weights may pad a row. `r` is one
    width, or an array of one width per row of a weight matrix.

    A window starting between atoms holds no more than the one starting at the
    next atom, since cumulative sums of non-negative floats never decrease.
    """
    if np.ndim(r) == 0:
        return _window_masses(support, weights, r).max(axis=-1)
    out = np.empty(weights.shape[:-1])
    widths, row_width = np.unique(r, return_inverse=True)
    for i, width in enumerate(widths.tolist()):
        rows = row_width == i
        out[rows] = _window_masses(support, weights[rows], width).max(axis=-1)
    return out


def q1_profile(steps) -> list[float]:
    """Max point mass of the walk law after each prefix of `steps` (float mode)."""
    int_steps = _as_int_steps(steps)
    out: list[float] = []
    _lattice_law(int_steps, support_cap(), on_step=lambda w: out.append(float(w.max())))
    return out


def residue_coefficients(m: int, counts) -> np.ndarray:
    """prod_r cos(2 pi r lambda / m)**counts[r] for lambda = 0..m//2: the Fourier
    coefficients of the symmetric walk law on Z/mZ, whose other half mirrors these."""
    lam, table = np.arange(m // 2 + 1), np.cos(2.0 * np.pi * np.arange(m) / m)
    coeffs = np.ones(lam.size)
    for r, c in counts.items():
        factor = table[r * lam % m]
        coeffs *= factor if c == 1 else factor**c
    return coeffs


def modular_walk_pmf(steps, m: int) -> ModularPMF:
    """Exact law of the signed sum on Z/mZ, the inverse real FFT of its coefficients.

    The law of n nonzero-residue steps lies on the grid k / 2**n. Up to n = 50
    it is snapped to that grid, so exact; above, values are within about 2.2e-16
    absolute. None is negative, and residues the walk cannot reach are exactly 0.
    """
    m = operator.index(m)  # a Python int: the reach set is an m-bit int
    if m < 2:
        raise DomainError("modulus m must be >= 2")
    counts = Counter(a % m for a in _as_int_steps(steps))
    del counts[0]
    coefficients = residue_coefficients(m, counts)
    probs = np.fft.irfft(coefficients, m)
    n = sum(counts.values())
    if n <= 50:
        probs = np.rint(probs * 2.0**n) / 2.0**n
    full, reach = (1 << m) - 1, 1  # the reachable residues, as a bitset
    # after c >= m steps of one class, the reached set depends only on c's parity
    for r, c in counts.items():
        for _ in range(min(c, m + (c - m) % 2)):
            reach = (reach << r | reach >> (m - r) | reach << (m - r) | reach >> r) & full
    bits = np.frombuffer(reach.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    probs[~np.unpackbits(bits, bitorder="little")[:m].astype(bool)] = 0.0
    return ModularPMF(m, np.maximum(probs, 0.0), counts, coefficients)


def summary_moments(steps) -> SummaryMoments:
    """Variance (= sum of squares), l2 norm, and plain total of the steps."""
    steps = list(steps)
    if all(float(a).is_integer() for a in steps):
        ints = [int(a) for a in steps]
        var = sum(a * a for a in ints)
        total = sum(ints)
        return SummaryMoments(var, math.sqrt(var), total)
    var = math.fsum(float(a) * float(a) for a in steps)
    total = math.fsum(float(a) for a in steps)
    return SummaryMoments(var, math.sqrt(var), total)


def tail_prob(pmf: ExactPMF, t: float):
    """Right-tail mass P(X >= t)."""
    return pmf.value(tail_rows(pmf.support, pmf.weights, t))


def tail_rows(support, weights, t) -> np.ndarray:
    """P(X >= t) of one law, or of each row of a weight matrix on `support`; `t`
    may hold one threshold per row. Every sum is exactly rounded."""
    return _row_fsums(weights, support >= np.asarray(t)[..., None])


def abs_tail_prob(pmf: ExactPMF, t: float):
    """Two-sided tail mass P(|X| >= t)."""
    return pmf.value(abs_tail_rows(pmf.support, pmf.weights, t))


def abs_tail_rows(support, weights, t) -> np.ndarray:
    """P(|X| >= t) of one law, or of each row of a weight matrix on `support`; `t`
    may hold one threshold per row. Every sum is exactly rounded."""
    return _row_fsums(weights, np.abs(support) >= np.asarray(t)[..., None])


def _row_fsums(weights, keep):
    """`math.fsum` of each row's weights where `keep` holds. Zero weights are
    left out, which changes no exactly rounded sum."""
    width = weights.shape[-1]
    keep = (keep & (weights != 0)).reshape(-1, width)
    sums = [math.fsum(row[kept].tolist())
            for row, kept in zip(weights.reshape(-1, width), keep)]
    return np.array(sums).reshape(weights.shape[:-1])
