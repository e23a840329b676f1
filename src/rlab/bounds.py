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
# how far a probability summed in floats may stray outside [0, 1]; fixed here,
# so that lowering SATISFACTION_TOL to fail every check rejects no input
_PROBABILITY_SLACK = SATISFACTION_TOL
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
    bound_value, compared_value, satisfied = judge(bound_value, compared_value, floor)
    return BoundReport(bound_name, params, float(bound_value),
                       float(compared_value), bool(satisfied),
                       float(bound_value) - float(compared_value))


def judge(bound, quantity, floor: bool = False):
    """(bound_value, compared_value, satisfied) of a bound and the quantity it
    pairs with, floats or arrays holding one case per element. A `floor` swaps
    the sides, so that bound_value is always the side that must be the larger."""
    if floor:
        bound, quantity = quantity, bound
    return bound, quantity, quantity <= bound + SATISFACTION_TOL


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


def central_point_masses(n_max: int) -> np.ndarray:
    """rademacher_point_mass(n, 0) for every even n in 2..n_max, bit for bit.

    The central binomials come from the exact recurrence C(n, n/2) =
    C(n-2, n/2-1) (n-1) n / (n/2)^2 and each is divided by 2**n as int / int;
    above _EXACT_BINOMIAL_LIMIT the log-gamma branch takes the same operands in
    the same order, with libm's `exp` and `lgamma` per element.
    """
    def binomials():
        c = 1
        for n in range(2, min(n_max, _EXACT_BINOMIAL_LIMIT) + 1, 2):
            c = c * (n - 1) * n // (n // 2) ** 2
            yield c / (1 << n)

    ns = np.arange(_EXACT_BINOMIAL_LIMIT + 2, n_max + 1, 2)
    half = np.fromiter(map(math.lgamma, (ns // 2 + 1).tolist()), float, ns.size)
    logs = np.fromiter(map(math.lgamma, (ns + 1).tolist()), float, ns.size)
    logs = logs - half - half - ns * math.log(2.0)
    return np.concatenate([np.fromiter(binomials(), float),
                           np.fromiter(map(math.exp, logs.tolist()), float, ns.size)])


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
    Raises for the first case, in C order, with an input outside [0, 1] by more
    than rounding (_PROBABILITY_SLACK): a window's float masses can sum to
    1 + 2**-52. May exceed 1; callers clamp for reporting.
    """
    low, high = -_PROBABILITY_SLACK, 1.0 + _PROBABILITY_SLACK
    values = np.broadcast_arrays(qr_a, qs_b, tail_a_at_s)
    if not all(np.all((low <= v) & (v <= high)) for v in values):
        for case in zip(*(v.ravel().tolist() for v in values)):
            for name, v in zip(("qr_a", "qs_b", "tail_a_at_s"), case):
                if not low <= v <= high:
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


# Each check pairs a bound of a step list with the exact quantity it must
# dominate, read from the step list's law. They call exact.* and this module's
# bounds by name at call time, so wrappers set on those attributes see them.

@dataclass
class WalkRows:
    """The walk laws of step lists as rows of `weights` on one `support`, with
    each list's length n, least step c, sum of squares and l2 norm, one array
    entry per row."""

    support: np.ndarray
    weights: np.ndarray
    n: np.ndarray
    c: np.ndarray
    variance: np.ndarray
    l2: np.ndarray


def walk_rows(step_lists, laws=None) -> WalkRows:
    """WalkRows of `step_lists`; `laws` = (support, weights) if already built,
    else `exact.walk_pmf_rows(step_lists)`."""
    support, weights = exact.walk_pmf_rows(step_lists) if laws is None else laws
    moments = [exact.summary_moments(steps) for steps in step_lists]
    return WalkRows(support, weights, np.array([len(steps) for steps in step_lists]),
                    np.array([min(steps, default=0) for steps in step_lists]),
                    np.array([m.variance for m in moments]),
                    np.array([m.l2_norm for m in moments]))


def _per_row(bound, values) -> np.ndarray:
    """bound(v) for each row's value v, one call per distinct value in row order."""
    values = values.tolist()
    table = {v: bound(v) for v in dict.fromkeys(values)}
    return np.array([table[v] for v in values], dtype=float)


# The walk pairings take WalkRows and return (bound, exact quantity) per row.

def _elo(rows):
    if np.any(rows.c <= 0):
        raise DomainError("elo check requires strictly positive steps")
    return (_per_row(elo_bound, rows.n),
            exact.concentration_rows(rows.support, rows.weights, 2 * rows.c))


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


def _lower_anti(rows):
    return (_per_row(lower_anti_floor, rows.variance),
            exact.concentration_rows(rows.support, rows.weights, 1.0))


def _hoeffding(rows, t):
    return (_per_row(lambda l2: hoeffding_tail(l2, t), rows.l2),
            exact.tail_rows(rows.support, rows.weights, t * rows.l2))


def _paley_zygmund(rows):
    # l2 / 2 is 0 only for steps all 0, whose law is 1.0 at 0
    return (np.full(rows.n.shape, 3.0 / 16.0),
            exact.abs_tail_rows(rows.support, rows.weights, rows.l2 / 2.0))


# check -> (its law: "walk", or "residue" mod m; the parameters it reads; its
# pairing; whether the bound is a floor the quantity must reach, not a ceiling
# it must stay under; the report params of a walk check, read from its row, its
# parameters and, as "floor" and "q1", its bound and quantity). A residue
# pairing takes (steps, law, **params) and returns (report params, bound,
# quantity).
CHECKS = {
    # Q_{2c} <= binom(n, n//2) / 2**n when every step is at least c
    "elo": ("walk", (), _elo, False, ("n", "c")),
    # max_r P(X = r mod m) <= (1 or 2)/m + sqrt(2/(pi n)) for steps coprime to m
    "modular-elo": ("residue", ("m",), _modular_elo, False, None),
    # Q_1 >= 3 / (16 ceil(sqrt(Var X)))
    "lower-anti": ("walk", (), _lower_anti, True, ("n", "variance", "floor", "q1")),
    # P(X >= t ||a||_2) <= exp(-t**2 / 2)
    "hoeffding": ("walk", ("t",), _hoeffding, False, ("n", "t", "l2_norm")),
    # P(|X| >= ||a||_2 / 2) >= 3/16
    "paley-zygmund": ("walk", (), _paley_zygmund, True, ("n", "l2_norm")),
}


def check_rows(name: str, rows: WalkRows, **params):
    """(bound_value, compared_value, satisfied) arrays of walk check `name` on
    every row of `rows`, each element as `run_check` reports it for that list."""
    _, _, pair, floor, _ = CHECKS[name]
    return judge(*pair(rows, **params), floor)


def run_check(name: str, steps, law=None, **params) -> BoundReport:
    """Report check `name` on `steps` with the CLI parameters it reads, taking
    its exact quantity from `law`, the check's float law of `steps` (built when
    None). A walk check runs its pairing on one row."""
    kind, _, pair, floor, fields = CHECKS[name]
    if kind == "residue":
        if law is None:
            law = exact.modular_walk_pmf(steps, params["m"])
        return make_report(name, *pair(steps, law, **params), floor)
    if law is None:
        law = exact.walk_pmf(steps)
    rows = walk_rows([steps], (law.support, law.weights[None]))
    bound, quantity = (side.item() for side in pair(rows, **params))
    values = {"n": rows.n.item(), "c": rows.c.item(), "variance": float(rows.variance.item()),
              "l2_norm": rows.l2.item(), "floor": bound, "q1": quantity, **params}
    return make_report(name, {key: values[key] for key in fields}, bound, quantity, floor)
