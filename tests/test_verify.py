import dataclasses
import hashlib

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


@pytest.mark.parametrize("name,knobs,per_list", [
    ("elo", {"max_n": 4, "lists_per_n": 2}, 1),
    ("hoeffding", {"max_n": 4, "lists_per_n": 2, "t_grid": (0.5, 2.0)}, 2),
    ("paley_zygmund", {"max_n": 4, "lists_per_n": 2}, 1),
])
def test_failing_check_is_described(monkeypatch, name, knobs, per_list):
    # the suites pass at every seed, so fail every case on purpose
    real = bounds.run_check
    seen = []

    def failing(check, steps, law=None, **params):
        rep = dataclasses.replace(real(check, steps, law, **params), satisfied=False)
        seen.append((list(steps), rep))
        return rep

    monkeypatch.setattr(bounds, "run_check", failing)
    res = run_suite(name, **knobs)
    cases = knobs["max_n"] * knobs["lists_per_n"] * per_list
    assert res.cases_run == len(res.failures) == len(seen) == cases
    assert not res.ok
    for text, (steps, rep) in zip(res.failures, seen):
        assert text.startswith(f"n={len(steps)} ")
        assert f"steps={steps}" in text
        assert str(rep.compared_value) in text and str(rep.bound_value) in text
        if name == "hoeffding":
            assert f"'t': {rep.params['t']}" in text


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
    # at seed 38 one Q_s(B) sums to 1 + 2**-52, outside [0, 1]; both raise on it
    with pytest.raises(DomainError) as want:
        combine_scales_by_case(38, 300)
    with pytest.raises(DomainError) as got:
        run_suite("combine_scales", seed=38, cases=300)
    assert str(got.value) == str(want.value) == (
        "qs_b must lie in [0, 1], got 1.0000000000000002")
