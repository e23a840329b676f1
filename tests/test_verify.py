import hashlib
import math
import sys

import numpy as np
import pytest

from rlab import bounds, exact
from rlab.errors import ConfigurationError, DomainError
from rlab.verify import SUITES, run_suite


@pytest.mark.parametrize("name,knobs", [
    ("elo", {"max_n": 14, "lists_per_n": 4}),
    ("modular_elo", {"max_m": 16, "lists_per_m": 2, "n_values": (10, 60),
                     "maximizer_checks": 10}),
    ("hoeffding", {"max_n": 12, "lists_per_n": 3}),
    ("paley_zygmund", {"max_n": 12, "lists_per_n": 3}),
    ("combine_scales", {"cases": 60}),
    ("prefix", {"cases": 60}),
    ("local_clt", {"n_max": 2000}),
    ("exponent_fit", {}),
])
def test_suites_pass_at_reduced_size(name, knobs):
    res = run_suite(name, **knobs)
    assert res.suite == name
    assert res.cases_run > 0
    assert res.failures == []


def test_registry_complete():
    assert set(SUITES) == {"elo", "modular_elo", "hoeffding", "paley_zygmund",
                           "combine_scales", "prefix", "local_clt", "exponent_fit"}


def test_unknown_suite():
    with pytest.raises(ConfigurationError):
        run_suite("nope")


def test_deterministic_for_fixed_seed():
    a = run_suite("elo", seed=7, max_n=10, lists_per_n=3)
    b = run_suite("elo", seed=7, max_n=10, lists_per_n=3)
    assert a == b


def test_local_clt_constant_recorded():
    res = run_suite("local_clt", n_max=500)
    # the scaled error peaks at the very first even n
    assert res.empirical_constants["local_clt_c"] == pytest.approx(0.12838, abs=1e-4)


def local_clt_by_n(n_max):
    """The reference local_clt suite: one point mass and one Gaussian term per
    even n. Returns (cases_run, failures, constants)."""
    running, best, outside = [], 0.0, []
    for n in range(2, n_max + 1, 2):
        mass = bounds.rademacher_point_mass(n, 0)
        # Wallis's bracket, widened by the suite's 4 eps n log n
        widen = 4 * sys.float_info.epsilon * n * math.log(n)
        if not ((1 - widen) / math.sqrt(math.pi * (n // 2 + 0.5)) <= mass
                <= (1 + widen) / math.sqrt(math.pi * (n // 2 + 0.25))):
            outside.append(n)
        err = n * abs(mass - bounds.local_clt_approx(n, 0))
        best = max(best, err)
        running.append(best)
    assert not outside, "the reference reports no bracket failure text"
    median = float(np.median(running))
    failures = [] if max(running) <= 10.0 * median else [
        f"recorded constant explodes: max {max(running)} > 10 * median {median}"]
    return len(running), failures, {"local_clt_c": best, "max_scaled_error": best}


@pytest.mark.parametrize("n_max", [2, 3, 4, 998, 1000, 1002, 1004, 10_000])
def test_local_clt_equals_one_n_at_a_time(n_max):
    res = run_suite("local_clt", n_max=n_max)
    cases_run, failures, constants = local_clt_by_n(n_max)
    assert (res.cases_run, res.failures) == (cases_run, failures)
    assert {k: v.hex() for k, v in res.empirical_constants.items()} == {
        k: v.hex() for k, v in constants.items()}


@pytest.mark.parametrize("factor,above", [(1.01, 2), (1.01, 1000), (1.01, 5000),
                                          (2.0, 1000), (0.99, 5000)])
def test_local_clt_fails_on_wrong_point_masses(monkeypatch, factor, above):
    central_point_masses = bounds.central_point_masses

    def perturbed(n_max):
        masses = central_point_masses(n_max)
        masses[above // 2:] *= factor  # every even n above `above`
        return masses
    monkeypatch.setattr(bounds, "central_point_masses", perturbed)
    res = run_suite("local_clt")
    assert len(res.failures) == 1
    assert res.failures[0].startswith(
        f"P(X_n = 0) outside Wallis's bracket at {5000 - above // 2} of 5000 even n, "
        f"first n={above + 2}: ")


# cases_run, failures and empirical constants of each suite at the default seed
@pytest.mark.parametrize("name,cases_run,constants", [
    ("elo", 180, {"min_slack": 0.0}),
    ("modular_elo", 598, {"min_slack_vs_closed_form": 0.02523132522020155}),
    ("hoeffding", 540, {}),
    ("paley_zygmund", 108, {"min_mass": 0.5}),
    ("combine_scales", 2400, {}),
    ("prefix", 200, {}),
    ("local_clt", 5000, {"local_clt_c": 0.12837916709551256,
                         "max_scaled_error": 0.12837916709551256}),
    ("exponent_fit", 2, {"distinct_steps_slope": -1.4882237567721144,
                         "unit_steps_slope": -0.4985011309506606}),
])
def test_default_seed_results_pinned(name, cases_run, constants):
    res = run_suite(name)
    assert (res.cases_run, res.failures, res.empirical_constants) == (
        cases_run, [], constants)


def check_suite_by_case(check, seed, max_n, lists_per_n, grid=({},), record=None):
    """The reference walk-check suite: one law and one `bounds.run_check` per
    case. Returns (cases_run, failures, constants) and each case's (steps,
    params, report)."""
    rng = np.random.default_rng(seed)
    cases, failures = [], []
    worst = math.inf
    for n in range(1, max_n + 1):
        for _ in range(lists_per_n):
            steps = rng.integers(1, 31, size=n).tolist()
            law = exact.walk_pmf(steps)
            for params in grid:
                rep = bounds.run_check(check, steps, law, **params)
                cases.append((steps, params, rep))
                if record:
                    worst = min(worst, getattr(rep, record[1]))
                if not rep.satisfied:
                    failures.append(
                        f"n={n} {params} steps={steps}: {check} needs "
                        f"{rep.compared_value} <= {rep.bound_value}")
    return (len(cases), failures, {record[0]: worst} if record else {}), cases


def prefix_by_case(seed=20240801, cases=200):
    """The reference prefix suite: two laws and two window scans per case.
    Returns (cases_run, failures, constants) and each case's (m, r, steps,
    altered, q, q_alt)."""
    rng = np.random.default_rng(seed)
    seen, failures = [], []
    for _ in range(cases):
        n = int(rng.integers(7, 13))
        m = int(rng.integers(1, 7))
        steps = rng.integers(0, 11, size=n).tolist()
        altered = list(steps)
        for i in range(m):
            altered[i] = int(rng.integers(0, 11))
        r = float(rng.choice([1.0, 2.0]))
        q = exact.concentration_q(exact.walk_pmf(steps), r).result
        q_alt = exact.concentration_q(exact.walk_pmf(altered), r).result
        factor = 2.0 ** (m + 1)
        seen.append((m, r, steps, altered, q, q_alt))
        tol = bounds.SATISFACTION_TOL
        if not (q_alt / factor - tol <= q <= q_alt * factor + tol):
            failures.append(f"m={m} r={r} steps={steps} altered={altered}: {q} vs {q_alt}")
    return (len(seen), failures, {}), seen


# each suite's case-by-case reference, with the suite's default knobs
BY_CASE = {
    "elo": lambda seed=20240801, max_n=18, lists_per_n=10: check_suite_by_case(
        "elo", seed, max_n, lists_per_n, record=("min_slack", "slack")),
    "hoeffding": lambda seed=20240801, max_n=18, lists_per_n=6,
    t_grid=(0.0, 0.5, 1.0, 2.0, 3.0): check_suite_by_case(
        "hoeffding", seed, max_n, lists_per_n, [{"t": t} for t in t_grid]),
    "paley_zygmund": lambda seed=20240801, max_n=18, lists_per_n=6: check_suite_by_case(
        "paley-zygmund", seed, max_n, lists_per_n, record=("min_mass", "bound_value")),
    "prefix": prefix_by_case,
}


def outcome(res):
    return res.cases_run, res.failures, res.empirical_constants


@pytest.mark.parametrize("name,knobs,per_list", [
    ("elo", {"max_n": 4, "lists_per_n": 2}, 1),
    ("hoeffding", {"max_n": 4, "lists_per_n": 2, "t_grid": (0.5, 2.0)}, 2),
    ("paley_zygmund", {"max_n": 4, "lists_per_n": 2}, 1),
    ("prefix", {"cases": 8}, 1),
])
def test_failing_check_is_described(monkeypatch, name, knobs, per_list):
    # the suites pass at every seed, so a tolerance far below zero fails every case
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", -10.0)
    res = run_suite(name, **knobs)
    want, seen = BY_CASE[name](**knobs)
    assert outcome(res) == want
    cases = knobs.get("cases") or knobs["max_n"] * knobs["lists_per_n"] * per_list
    assert res.cases_run == len(res.failures) == len(seen) == cases
    assert not res.ok
    if name == "prefix":
        for text, (m, r, steps, altered, q, q_alt) in zip(res.failures, seen):
            assert text.startswith(f"m={m} r={r} ")
            assert f"steps={steps} altered={altered}" in text
            assert text.endswith(f": {q} vs {q_alt}")
        return
    for text, (steps, params, rep) in zip(res.failures, seen):
        assert text.startswith(f"n={len(steps)} ")
        assert f"steps={steps}" in text
        assert str(rep.compared_value) in text and str(rep.bound_value) in text
        if name == "hoeffding":
            assert f"'t': {rep.params['t']}" in text


def test_modular_elo_failure_is_described(monkeypatch):
    # each of the suite's three comparisons fails with its own text
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", -10.0)
    res = run_suite("modular_elo", max_m=5, lists_per_m=2, n_values=(10, 30),
                    maximizer_checks=4)
    laws = [(m, n) for m in (3, 4, 5) for _ in range(2) for n in (10, 30)]
    assert res.cases_run == len(laws) + 4 and not res.ok
    assert len(res.failures) == 2 * len(laws) + 4
    residue, cosine = res.failures[:-4:2], res.failures[1:-4:2]
    for (m, n), first, second in zip(laws, residue, cosine):
        head = f"m={m} n={n}: "
        assert first.startswith(head + "max residue ") and second.startswith(head + "cosine ")
        mx, cos = map(float, first.removeprefix(head + "max residue ").split(" > cosine "))
        again, closed = map(float,
                            second.removeprefix(head + "cosine ").split(" > closed form "))
        assert mx <= cos == again <= closed
    for text in res.failures[-4:]:
        assert text.startswith("maximizer: m=")
        val, top = map(float, text.rsplit(": ", 1)[1].split(" > all-ones "))
        assert val <= top


@pytest.mark.parametrize("tol", [bounds.SATISFACTION_TOL, -10.0], ids=["tol", "all_fail"])
@pytest.mark.parametrize("name", sorted(BY_CASE))
def test_stacked_suites_equal_case_by_case_over_seeds(monkeypatch, name, tol):
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", tol)
    for seed in range(60):
        want, _ = BY_CASE[name](seed)
        assert outcome(run_suite(name, seed=seed)) == want, seed
        if tol < 0:
            assert len(want[1]) == want[0]


@pytest.mark.parametrize("tol", [bounds.SATISFACTION_TOL, -10.0], ids=["tol", "all_fail"])
@pytest.mark.parametrize("name", sorted(BY_CASE))
def test_stacked_suites_equal_case_by_case_over_knobs(monkeypatch, name, tol):
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", tol)
    if name == "prefix":
        grid = [{"cases": cases} for cases in (1, 2, 7, 200, 300)]
    else:
        grid = [{"max_n": max_n, "lists_per_n": per_n}
                for max_n in (1, 2, 7, 18, 30) for per_n in (1, 10)]
    for seed, knobs in enumerate(grid, 100):
        want, _ = BY_CASE[name](seed, **knobs)
        assert outcome(run_suite(name, seed=seed, **knobs)) == want, knobs


# sha256 of the newline-joined failure texts, which hold plain float reprs
# under any numpy; they pin the order and wording of the messages and the values
@pytest.mark.parametrize("seed,digest", [
    (1, "d02f3f9b29424b52d3d40e5449897edd51e26f25c7fedca9a741229c6bb5ff43"),
    (8, "7027cea7836443ff093432a52b63bbc97e2e0292842124f0d64805d0496919c0"),
], ids=["seed1", "seed8"])
def test_combine_scales_failures_pinned(monkeypatch, seed, digest):
    # no case fails at any seed, so a tolerance far below zero fails them all
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", -10.0)
    res = run_suite("combine_scales", seed=seed, cases=60)
    assert res.cases_run == len(res.failures) == 480
    assert res.failures[0].startswith("r=0.5 s=2.0 A={")
    assert "np." not in "".join(res.failures)
    assert hashlib.sha256("\n".join(res.failures).encode()).hexdigest() == digest


def _random_pmf(rng, max_atoms=8, span=6):
    size = int(rng.integers(1, max_atoms + 1))
    values = rng.choice(np.arange(-span, span + 1), size=size, replace=False)
    weights = rng.integers(1, 16, size=size).astype(float)
    probs = weights / weights.sum()
    return exact.pmf_from_atoms({int(v): float(p) for v, p in zip(values, probs)})


def combine_scales_by_case(seed, cases):
    """The reference suite: one law, query and comparison at a time."""
    rng = np.random.default_rng(seed)
    cases_run, failures = 0, []
    rs, ss = (0.5, 1.0, 2.0), (2.0, 3.0, 5.0)
    for _ in range(cases):
        A = _random_pmf(rng)
        B = _random_pmf(rng)
        AB = exact.convolve(A, B)
        for r in rs:
            for s in ss:
                if r < s:
                    lhs = exact.concentration_q(AB, r).result
                    rhs = bounds.combine_scales_rhs(exact.concentration_q(A, r).result,
                                                    exact.concentration_q(B, s).result,
                                                    exact.abs_tail_prob(A, s))
                    cases_run += 1
                    if lhs > rhs + bounds.SATISFACTION_TOL:
                        failures.append(
                            f"r={r} s={s} A={A.as_dict()} B={B.as_dict()}: {lhs} > {rhs}")
    return cases_run, failures


@pytest.mark.parametrize("tol", [bounds.SATISFACTION_TOL, -10.0], ids=["tol", "all_fail"])
@pytest.mark.parametrize("seed,cases", [
    (0, 1), (1, 1), (2, 2), (3, 7), (4, 60), (5, 60), (20240801, 300)])
def test_combine_scales_equals_case_by_case(monkeypatch, tol, seed, cases):
    monkeypatch.setattr(bounds, "SATISFACTION_TOL", tol)
    res = run_suite("combine_scales", seed=seed, cases=cases)
    assert (res.cases_run, res.failures) == combine_scales_by_case(seed, cases)
    assert res.cases_run == 8 * cases
    if tol < 0:
        assert len(res.failures) == res.cases_run


def test_combine_scales_range_error_equals_case_by_case():
    # at seed 38 one Q_s(B) sums to 1 + 2**-52: float rounding, not a bad input
    want = combine_scales_by_case(38, 300)
    res = run_suite("combine_scales", seed=38, cases=300)
    assert (res.cases_run, res.failures) == want == (2400, [])


@pytest.mark.parametrize("inputs, text", [
    ((0.5, 1.5, 0.0), "qs_b must lie in [0, 1], got 1.5"),
    ((-0.1, 0.5, 0.0), "qr_a must lie in [0, 1], got -0.1"),
    ((0.5, 0.5, 1.0 + 1e-9), "tail_a_at_s must lie in [0, 1], got 1.000000001"),
])
def test_combine_scales_rhs_rejects_out_of_range(monkeypatch, inputs, text):
    for tol in (bounds.SATISFACTION_TOL, -10.0):  # the forced-failure tolerance too
        monkeypatch.setattr(bounds, "SATISFACTION_TOL", tol)
        with pytest.raises(DomainError) as got:
            bounds.combine_scales_rhs(*inputs)
        assert str(got.value) == text
        # as one case of an array: the first bad input, in C order, names itself
        arrays = [np.array([0.25, v]) for v in inputs]
        with pytest.raises(DomainError) as got:
            bounds.combine_scales_rhs(*arrays)
        assert str(got.value) == text
    # rounding past the ends is accepted
    assert bounds.combine_scales_rhs(1.0 + 2**-52, 1.0, -2**-60) == 3.0 + 2**-52 * 3 - 2**-60
