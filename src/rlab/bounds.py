"""Closed-form concentration and anti-concentration bounds, each pairable
with the exact or empirical quantity it must dominate."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import DomainError

SATISFACTION_TOL = 1e-12
# Above this n, central binomial masses switch from exact rationals to log-gamma.
_EXACT_BINOMIAL_LIMIT = 1000


@dataclass
class BoundReport:
    """A computed bound paired with the quantity it has to dominate."""

    bound_name: str
    params: dict
    bound_value: float
    compared_value: float | None = None
    satisfied: bool | None = None
    slack: float | None = None

    @property
    def bound_value_clamped(self) -> float:
        # Bounds above 1 are vacuous but still informative; report both.
        return min(1.0, self.bound_value)

    def to_dict(self) -> dict:
        out = {
            "bound_name": self.bound_name,
            "params": self.params,
            "bound_value": self.bound_value,
            "bound_value_clamped": self.bound_value_clamped,
        }
        if self.compared_value is not None:
            out.update(compared_value=self.compared_value,
                       satisfied=self.satisfied, slack=self.slack)
        return out


def make_report(bound_name: str, params: dict, bound_value: float,
                compared_value: float | None = None, floor: bool = False) -> BoundReport:
    """Pair a bound with the quantity that must stay under it or, for a
    `floor`, reach it. bound_value is the side that must be the larger."""
    if compared_value is None:
        return BoundReport(bound_name, params, float(bound_value))
    if floor:
        bound_value, compared_value = compared_value, bound_value
    satisfied = compared_value <= bound_value + SATISFACTION_TOL
    return BoundReport(bound_name, params, float(bound_value),
                       float(compared_value), bool(satisfied),
                       float(bound_value) - float(compared_value))


@dataclass
class ExponentQuery:
    """Inputs and outputs of the polynomial-envelope anti-concentration exponent.

    For step sizes squeezed between c*n**alpha and C*n**(alpha+delta), the
    walk's point masses decay like n**(-exponent) with
    exponent = 1/2 + alpha*f(alpha, delta) - gamma.
    """

    alpha: float
    delta: float
    gamma: float
    f_value: float | None = None
    exponent: float | None = None
    branch: str | None = None


def branch_boundary(alpha: float) -> float:
    """The delta value where the two branches of the exponent formula meet."""
    return (math.sqrt(alpha * alpha + 1.0) - alpha) / 2.0


def anti_exponent_f(query: ExponentQuery) -> ExponentQuery:
    """Fill in f(alpha, delta), the decay exponent, and the active branch."""
    alpha, delta, gamma = query.alpha, query.delta, query.gamma
    if not all(map(math.isfinite, (alpha, delta, gamma))):
        raise DomainError("alpha, delta and gamma must be finite")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if delta < 0:
        raise DomainError("delta must be non-negative")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    boundary = branch_boundary(alpha)
    if delta <= boundary:
        branch = "small_delta"
        f_value = alpha * alpha / (
            (alpha + delta) * (alpha + 2.0 * delta
                               + 2.0 * math.sqrt(delta * delta + alpha * delta)))
    else:
        branch = "large_delta"
        f_value = alpha * alpha / (
            (alpha + delta) * (1.0 + 2.0 * delta) * (alpha + 0.5 + delta))
    return ExponentQuery(alpha, delta, gamma, f_value,
                         0.5 + alpha * f_value - gamma, branch)


def rademacher_point_mass(n: int, x: int) -> float:
    """P(sum of n fair signs = x): binom(n, k) / 2**n correctly rounded up to 1000
    steps, log-gamma above."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if (x - n) % 2 != 0 or abs(x) > n:
        return 0.0
    k = (n + x) // 2
    if n <= _EXACT_BINOMIAL_LIMIT:
        return math.comb(n, k) / 2**n  # int / int is correctly rounded
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) - n * math.log(2.0))


def elo_bound(n: int) -> float:
    """Central-binomial anti-concentration bound binom(n, n//2) * 2**-n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return rademacher_point_mass(n, n % 2)


def modular_elo_bound(m: int, n: int) -> float:
    """Residue-class anti-concentration: (1 or 2)/m + sqrt(2/(pi n)), by parity of m."""
    if m < 2:
        raise DomainError("modulus m must be >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    lead = 1.0 / m if m % 2 == 1 else 2.0 / m
    return lead + math.sqrt(2.0 / (math.pi * n))


def cosine_product_bound(m: int, steps, all_ones: bool = False) -> float:
    """(1/m) * sum over residues lambda of prod_i |cos(2 pi b_i lambda / m)|.

    Dominates every residue probability of the signed sum of `steps`, which
    must all be coprime to m. With `all_ones` the bound is evaluated with
    every multiplier replaced by 1 (the maximising assignment), keeping only
    the number of steps.
    """
    if m < 2:
        raise DomainError("modulus m must be >= 2")
    counts = _coprime_counts(m, steps)
    return _cosine_sum(m, exact.residue_coefficients(
        m, {1: sum(counts.values())} if all_ones else counts))


def _coprime_counts(m: int, steps) -> dict:
    """The number of steps in each residue class mod m, in order of first
    appearance. Raises for the first step, in step order, that is not a
    positive integer coprime to m, and for no steps at all."""
    # gcd(b, m) depends only on b % m: check each residue at its first step
    counts = {}
    first = {}
    for idx, raw in enumerate(steps, 1):
        b = int(raw)
        if b != raw or b <= 0:
            _require_coprime(m, first)
            raise DomainError(f"step {idx} must be a positive integer, got {raw!r}")
        r = b % m
        if r in counts:
            counts[r] += 1
        else:
            counts[r] = 1
            first[r] = idx, b
    _require_coprime(m, first)
    if not counts:
        raise DomainError("at least one step is required")
    return counts


def _require_coprime(m: int, first: dict) -> None:
    """Raise for the first step, in step order, that shares a factor with m."""
    for r, (idx, b) in first.items():
        if math.gcd(r, m) != 1:
            raise DomainError(f"step {idx} (= {b}) shares a factor with modulus {m}")


def _cosine_sum(m: int, coefficients) -> float:
    """(1/m) * the sum over all m residues of |coefficient|, from the half table."""
    half = np.abs(coefficients)
    # lambda and m - lambda share a coefficient
    return float((half.sum() + half[1:(m + 1) // 2].sum()) / m)


def lower_anti_floor(variance: float) -> float:
    """Guaranteed unit-window mass 3 / (16 * ceil(sqrt(variance)))."""
    if variance <= 0:
        raise DomainError("variance must be positive")
    if float(variance).is_integer():
        root = math.isqrt(int(variance))
        ceil_root = root if root * root == int(variance) else root + 1
    else:
        ceil_root = math.ceil(math.sqrt(variance))
    return 3.0 / (16.0 * ceil_root)


def hoeffding_tail(l2_norm: float, t: float) -> float:
    """Hoeffding bound exp(-t**2/2) on P(X >= t * l2_norm)."""
    if l2_norm <= 0:
        raise DomainError("l2_norm must be positive")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, not {t}")
    if t < 0:
        raise DomainError("t must be non-negative")
    return math.exp(-t * t / 2.0)


def local_clt_approx(n: int, x: int) -> float:
    """Gaussian local approximation exp(-x**2/(2n)) / sqrt(pi n / 2) of P(X_n = x)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if (x - n) % 2 != 0:
        raise DomainError(f"parity mismatch: x={x} with n={n} has exact probability 0")
    if abs(x) > n:
        raise DomainError(f"|x|={abs(x)} exceeds the walk range n={n}")
    return math.exp(-x * x / (2.0 * n)) / math.sqrt(math.pi * n / 2.0)


def combine_scales_rhs(qr_a, qs_b, tail_a_at_s):
    """Right side of the two-scale combination: P(|A| >= s) + 3 Q_r(A) Q_s(B).

    Takes floats, or float arrays of one shape holding one case per element.
    Raises for the first case, in C order, with an input outside [0, 1]. May
    exceed 1; callers clamp for reporting.
    """
    values = np.broadcast_arrays(qr_a, qs_b, tail_a_at_s)
    if not all(np.all((0.0 <= v) & (v <= 1.0)) for v in values):
        for case in zip(*(v.ravel().tolist() for v in values)):
            for name, v in zip(("qr_a", "qs_b", "tail_a_at_s"), case):
                if not 0.0 <= v <= 1.0:
                    raise DomainError(f"{name} must lie in [0, 1], got {v}")
    return tail_a_at_s + 3.0 * qr_a * qs_b


def kochen_stone_ratio(mean: float, second_moment: float) -> float:
    """(E Z)**2 / E(Z**2), the lower bound on limsup positivity probability."""
    if second_moment <= 0:
        raise DomainError("second moment must be positive")
    if mean * mean > second_moment * (1.0 + 1e-9):
        raise DomainError(
            f"inconsistent moments: mean^2 = {mean * mean} exceeds E[Z^2] = {second_moment}")
    if mean == 0:
        warnings.warn("Kochen-Stone requires a nonzero mean; returning ratio 0",
                      stacklevel=2)
        return 0.0
    return min(1.0, mean * mean / second_moment)


def transience_partial_sum(q1_values, C: float) -> list[float]:
    """Partial sums of (2C+1) * Q_1(X_n): the summability diagnostic series."""
    if C < 0:
        raise DomainError("C must be non-negative")
    pairs = list(q1_values)
    ns = [n for n, _ in pairs]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("q1_values must be sorted by strictly increasing n")
    out = []
    acc = 0.0
    for _, q1 in pairs:
        acc += (2.0 * C + 1.0) * q1
        out.append(acc)
    return out


# Each check pairs a bound of a step list with the exact quantity it must
# dominate, read from the step list's law. They call exact.* and this module's
# bounds by name at call time, so wrappers set on those attributes see them.

def _elo(steps, pmf):
    c = min(steps)
    if c <= 0:
        raise DomainError("elo check requires strictly positive steps")
    return ({"n": len(steps), "c": c}, elo_bound(len(steps)),
            float(exact.concentration_q(pmf, 2 * c).result))


def _modular_elo(steps, law, m):
    # the law counted the steps by residue: with no step in class 0 and every
    # class a unit mod m, each step is a positive integer coprime to m, and the
    # cosine bound sums the law's own coefficient table
    counts = law.counts
    if (not counts or sum(counts.values()) != len(steps)
            or any(math.gcd(r, m) != 1 for r in counts)):
        _coprime_counts(m, steps)  # raises for the first offending step
    return ({"m": m, "n": len(steps), "cosine_bound": _cosine_sum(m, law.coefficients)},
            modular_elo_bound(m, len(steps)), float(law.probs.max()))


def _lower_anti(steps, pmf):
    variance = exact.summary_moments(steps).variance
    floor = lower_anti_floor(variance)
    q1 = float(exact.concentration_q(pmf, 1.0).result)
    return ({"n": len(steps), "variance": float(variance), "floor": floor, "q1": q1},
            floor, q1)


def _hoeffding(steps, pmf, t):
    l2 = exact.summary_moments(steps).l2_norm
    return ({"n": len(steps), "t": t, "l2_norm": l2}, hoeffding_tail(l2, t),
            float(exact.tail_prob(pmf, t * l2)))


def _paley_zygmund(steps, pmf):
    l2 = exact.summary_moments(steps).l2_norm
    return ({"n": len(steps), "l2_norm": l2}, 3.0 / 16.0,
            float(exact.abs_tail_prob(pmf, l2 / 2.0)))


# check -> (its law: "walk", or "residue" mod m; the parameters it reads; its
# pairing -> (report params, bound, exact quantity); whether the bound is a
# floor the quantity must reach, not a ceiling it must stay under)
CHECKS = {
    # Q_{2c} <= binom(n, n//2) / 2**n when every step is at least c
    "elo": ("walk", (), _elo, False),
    # max_r P(X = r mod m) <= (1 or 2)/m + sqrt(2/(pi n)) for steps coprime to m
    "modular-elo": ("residue", ("m",), _modular_elo, False),
    # Q_1 >= 3 / (16 ceil(sqrt(Var X)))
    "lower-anti": ("walk", (), _lower_anti, True),
    # P(X >= t ||a||_2) <= exp(-t**2 / 2)
    "hoeffding": ("walk", ("t",), _hoeffding, False),
    # P(|X| >= ||a||_2 / 2) >= 3/16
    "paley-zygmund": ("walk", (), _paley_zygmund, True),
}


def run_check(name: str, steps, law=None, **params) -> BoundReport:
    """Report check `name` on `steps` with the CLI parameters it reads, taking
    its exact quantity from `law`, the check's law of `steps` (built when None)."""
    kind, _, pair, floor = CHECKS[name]
    if law is None:
        law = exact.walk_pmf(steps) if kind == "walk" else exact.modular_walk_pmf(
            steps, params["m"])
    return make_report(name, *pair(steps, law, **params), floor)
