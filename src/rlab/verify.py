"""Inequality verification suites: each pits a closed-form bound against the
exact quantity it must dominate, over randomized or exhaustive case sets.

Every suite is deterministic for a fixed seed and returns the cases run, the
descriptors of any failing cases, and the empirical constants it measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, exact, mc
from .errors import ConfigurationError


@dataclass
class VerifySuiteResult:
    suite: str
    cases_run: int
    failures: list[str] = field(default_factory=list)
    empirical_constants: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_steps(rng, n, low=1, high=30):
    return rng.integers(low, high + 1, size=n).tolist()


def _check_suite(check, seed, max_n, lists_per_n, grid=({},), record=None):
    """Run walk check `check` with each parameter set of `grid` on `lists_per_n`
    random step lists of each length 1..max_n. The lists' laws are rows of one
    matrix and each parameter set is one `bounds.check_rows` call over all of
    them; failures are listed list by list, in grid order. `record` =
    (constant, "slack" or "bound_value") keeps that report field's smallest
    value as an empirical constant."""
    rng = np.random.default_rng(seed)
    lists = [_random_steps(rng, n) for n in range(1, max_n + 1) for _ in range(lists_per_n)]
    rows = bounds.walk_rows(lists)
    shape = (len(lists), len(grid))
    bound, compared, satisfied = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    for j, params in enumerate(grid):
        bound[:, j], compared[:, j], satisfied[:, j] = bounds.check_rows(check, rows, **params)
    res = VerifySuiteResult(check.replace("-", "_"), bound.size)
    if record:
        field = bound - compared if record[1] == "slack" else bound
        res.empirical_constants[record[0]] = float(field.min(initial=math.inf))
    for i, j in np.argwhere(~satisfied).tolist():
        res.failures.append(
            f"n={len(lists[i])} {grid[j]} steps={lists[i]}: {check} needs "
            f"{compared[i, j].item()} <= {bound[i, j].item()}")
    return res


def suite_elo(seed: int = 20240801, max_n: int = 18, lists_per_n: int = 10,
              **_) -> VerifySuiteResult:
    """Exact Q_{2c} never exceeds the central-binomial bound when all steps >= c."""
    return _check_suite("elo", seed, max_n, lists_per_n, record=("min_slack", "slack"))


def suite_modular_elo(seed: int = 20240801, max_m: int = 64, lists_per_m: int = 3,
                      n_values=(10, 100, 1000), maximizer_checks: int = 40,
                      **_) -> VerifySuiteResult:
    """max_r P(X = r mod m) <= cosine product bound <= (1 or 2)/m + sqrt(2/(pi n))."""
    rng = np.random.default_rng(seed)
    res = VerifySuiteResult("modular_elo", 0)
    min_slack = math.inf
    for m in range(3, max_m + 1):
        coprime = [b for b in range(1, 6 * m) if math.gcd(b, m) == 1]
        for _ in range(lists_per_m):
            for n in n_values:
                rep = bounds.run_check("modular-elo", rng.choice(coprime, size=n).tolist(),
                                       m=m)
                mx, cos, closed = (rep.compared_value, rep.params["cosine_bound"],
                                   rep.bound_value)
                res.cases_run += 1
                min_slack = min(min_slack, rep.slack)
                if mx > cos + 1e-10:
                    res.failures.append(f"m={m} n={n}: max residue {mx} > cosine {cos}")
                if cos > closed + 1e-10:
                    res.failures.append(f"m={m} n={n}: cosine {cos} > closed form {closed}")
    # equal multipliers maximise the cosine bound over coprime assignments
    for _ in range(maximizer_checks):
        m = int(rng.integers(3, 33))
        n = int(rng.integers(1, 13))
        coprime = [b for b in range(1, 4 * m) if math.gcd(b, m) == 1]
        steps = rng.choice(coprime, size=n).tolist()
        res.cases_run += 1
        val = bounds.cosine_product_bound(m, steps)
        top = bounds.cosine_product_bound(m, steps, all_ones=True)
        if val > top + bounds.SATISFACTION_TOL:
            res.failures.append(f"maximizer: m={m} steps={steps}: {val} > all-ones {top}")
    res.empirical_constants["min_slack_vs_closed_form"] = min_slack
    return res


def suite_hoeffding(seed: int = 20240801, max_n: int = 18, lists_per_n: int = 6,
                    t_grid=(0.0, 0.5, 1.0, 2.0, 3.0), **_) -> VerifySuiteResult:
    """Exact P(X >= t * l2) <= exp(-t^2 / 2)."""
    return _check_suite("hoeffding", seed, max_n, lists_per_n, [{"t": t} for t in t_grid])


def suite_paley_zygmund(seed: int = 20240801, max_n: int = 18, lists_per_n: int = 6,
                        **_) -> VerifySuiteResult:
    """Exact P(|X| >= l2/2) >= 3/16."""
    # a floor check reports the quantity, the mass, as bound_value
    return _check_suite("paley-zygmund", seed, max_n, lists_per_n,
                        record=("min_mass", "bound_value"))


def _random_laws(rng, count, max_atoms=8, span=6):
    """`count` laws of 1..max_atoms distinct atoms in [-span, span] with weights
    1..15, drawn one after another. Row i holds law i's probabilities on the
    grid -span..span, zero off its atoms."""
    grid = np.arange(-span, span + 1)
    laws = np.zeros((count, grid.size))
    for row in laws:
        size = int(rng.integers(1, max_atoms + 1))
        values = rng.choice(grid, size=size, replace=False)
        row[values + span] = rng.integers(1, 16, size=size)
    # the weights are small integers, so every row sum is exact
    return grid, laws / laws.sum(axis=1, keepdims=True)


def suite_combine_scales(seed: int = 20240801, cases: int = 300,
                         **_) -> VerifySuiteResult:
    """Q_r(A+B) <= P(|A| >= s) + 3 Q_r(A) Q_s(B) on small independent PMFs, r < s.

    Case i draws A then B; the laws lie as rows of two matrices on one grid. All
    A + B come from one row convolution, each width's Q_r from one window scan
    per matrix, and the right sides and comparisons from whole-array arithmetic,
    each value bit for bit the one-law call's. Failures are listed case by case
    in (r, s) order.
    """
    rng = np.random.default_rng(seed)
    res = VerifySuiteResult("combine_scales", 0)
    rs, ss = (0.5, 1.0, 2.0), (2.0, 3.0, 5.0)
    grids = [(r, s) for r in rs for s in ss if r < s]
    grid, laws = _random_laws(rng, 2 * cases)
    A, B = laws[0::2], laws[1::2]
    ab_support, AB = exact.convolve_rows(grid, A, grid, B)
    # each query once per matrix and width; by_pair lays them out per (r, s)
    q_ab = {r: exact.concentration_rows(ab_support, AB, r) for r in rs}
    q_a = {r: exact.concentration_rows(grid, A, r) for r in rs}
    q_b = {s: exact.concentration_rows(grid, B, s) for s in ss}
    tail_a = {s: exact.abs_tail_rows(grid, A, s) for s in ss}

    def by_pair(table, key):  # (cases, pairs) in grid order
        return np.stack([table[pair[key]] for pair in grids], axis=-1)

    lhs = by_pair(q_ab, 0)
    rhs = bounds.combine_scales_rhs(by_pair(q_a, 0), by_pair(q_b, 1), by_pair(tail_a, 1))
    res.cases_run = lhs.size
    failing = lhs > rhs + bounds.SATISFACTION_TOL
    values = grid.tolist()
    for case in np.flatnonzero(failing.any(axis=1)).tolist():
        a, b = ({v: p for v, p in zip(values, law.tolist()) if p} for law in (A[case], B[case]))
        for (r, s), bad, left, right in zip(grids, failing[case], lhs[case].tolist(),
                                            rhs[case].tolist()):
            if bad:
                res.failures.append(f"r={r} s={s} A={a} B={b}: {left} > {right}")
    return res


def suite_prefix(seed: int = 20240801, cases: int = 200, **_) -> VerifySuiteResult:
    """Changing the first m steps moves Q_r by at most a factor 2^(m+1).

    Case i draws its steps, the altered prefix and r; its two laws are rows 2i
    and 2i + 1 of one matrix, every Q_r comes from one row query with a width
    per row, and the factor test is whole-array arithmetic.
    """
    rng = np.random.default_rng(seed)
    lists, ms, rs = [], [], []
    for _ in range(cases):
        n = int(rng.integers(7, 13))
        m = int(rng.integers(1, 7))
        steps = _random_steps(rng, n, low=0, high=10)
        altered = list(steps)
        for i in range(m):
            altered[i] = int(rng.integers(0, 11))
        lists += [steps, altered]
        ms.append(m)
        rs.append(float(rng.choice([1.0, 2.0])))
    grid, laws = exact.walk_pmf_rows(lists)
    qs = exact.concentration_rows(grid, laws, np.repeat(rs, 2))
    q, q_alt = qs[0::2], qs[1::2]
    factor = 2.0 ** (np.array(ms) + 1)
    tol = bounds.SATISFACTION_TOL
    held = (q_alt / factor - tol <= q) & (q <= q_alt * factor + tol)
    res = VerifySuiteResult("prefix", cases)
    for i in np.flatnonzero(~held).tolist():
        res.failures.append(f"m={ms[i]} r={rs[i]} steps={lists[2 * i]} "
                            f"altered={lists[2 * i + 1]}: {q[i].item()} vs {q_alt[i].item()}")
    return res


def suite_local_clt(n_max: int = 10_000, **_) -> VerifySuiteResult:
    """n * |P(X_n = 0) - gaussian approximation| stays bounded.

    The recorded empirical constant is the running maximum over even n; the
    non-explosion check is that this recorded sequence never exceeds 10x its
    own median (a creeping constant would).
    """
    ns = np.arange(2, n_max + 1, 2)
    # the Gaussian term at x = 0: exp(-0.0) is exactly 1
    err = ns * np.abs(bounds.central_point_masses(n_max) - 1.0 / np.sqrt(math.pi * ns / 2.0))
    running = np.maximum.accumulate(err)
    res = VerifySuiteResult("local_clt", ns.size)
    median, best = float(np.median(running)), float(running.max())
    if best > 10.0 * median:
        res.failures.append(
            f"recorded constant explodes: max {best} > 10 * median {median}")
    # the running maximum ends at the largest error: both constants are that value
    res.empirical_constants["local_clt_c"] = best
    res.empirical_constants["max_scaled_error"] = best
    return res


def suite_exponent_fit(**_) -> VerifySuiteResult:
    """Exact Q_1 decay rates: distinct steps a_n = n near -3/2, unit steps near -1/2."""
    res = VerifySuiteResult("exponent_fit", 0)
    prof = exact.q1_profile(list(range(1, 201)))
    fit = mc.fit_exponent([(n, prof[n - 1]) for n in range(50, 201)])
    res.cases_run += 1
    if not -1.65 <= fit.slope <= -1.35:
        res.failures.append(f"a_n=n slope {fit.slope} outside [-1.65, -1.35]")
    res.empirical_constants["distinct_steps_slope"] = fit.slope
    prof1 = exact.q1_profile([1] * 1000)
    fit1 = mc.fit_exponent([(n, prof1[n - 1]) for n in range(100, 1001)])
    res.cases_run += 1
    if not -0.6 <= fit1.slope <= -0.4:
        res.failures.append(f"a_n=1 slope {fit1.slope} outside [-0.6, -0.4]")
    res.empirical_constants["unit_steps_slope"] = fit1.slope
    return res


SUITES = {
    "elo": suite_elo,
    "modular_elo": suite_modular_elo,
    "hoeffding": suite_hoeffding,
    "paley_zygmund": suite_paley_zygmund,
    "combine_scales": suite_combine_scales,
    "prefix": suite_prefix,
    "local_clt": suite_local_clt,
    "exponent_fit": suite_exponent_fit,
}


def run_suite(name: str, **knobs) -> VerifySuiteResult:
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**knobs)
