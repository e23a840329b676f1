"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines inline; they
are also echoed in the terminal summary.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from rlab.bounds import (ExponentQuery, anti_exponent_f, branch_boundary,
                         elo_bound, hoeffding_tail, local_clt_approx,
                         lower_anti_floor, modular_elo_bound,
                         cosine_product_bound, rademacher_point_mass)
from rlab.cli import main as cli_main
from rlab.exact import (abs_tail_prob, concentration_q, modular_walk_pmf,
                        q1_profile, summary_moments, tail_prob, walk_pmf)
from rlab.mc import (McRunManifest, block_pair_trace, embed_2d,
                     estimate_interval_hits, fit_exponent, replay_final_gap,
                     simulate_coupling)
from rlab.sequences import (StepSequenceSpec, generate, log_power_ratio_bounds,
                            log_power_ratio_window, recurrence_event_window)
from conftest import enumerate_signed_sums

MASTER_SEED = 20240801


def record(number, name, ok, detail=""):
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """200 random positive-integer step lists with n <= 18, plus their laws."""
    rng = np.random.default_rng(MASTER_SEED)
    out = []
    for _ in range(200):
        n = int(rng.integers(1, 19))
        steps = rng.integers(1, 51, size=n).tolist()
        out.append((steps, walk_pmf(steps)))
    return out


def test_criterion_01_exact_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for steps, pmf in corpus:
        values, counts = enumerate_signed_sums(steps)
        denom = 2 ** len(steps)
        exact_pmf = walk_pmf(steps, exact=True)
        if list(exact_pmf.support) != list(values):
            mismatches += 1
            continue
        if exact_pmf.probs != [Fraction(int(c), denom) for c in counts]:
            mismatches += 1
            continue
        if list(pmf.support) != list(values) or any(
                abs(p - c / denom) > 1e-12 for p, c in zip(pmf.probs, counts)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    record(1, "exact-oracle equivalence", mismatches == 0 and elapsed < 60.0,
           f"200 lists, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_elo_domination(corpus):
    violations = 0
    for steps, pmf in corpus:
        c = min(steps)
        q = concentration_q(pmf, 2 * c).result
        if q > elo_bound(len(steps)) + 1e-12:
            violations += 1
    record(2, "ELO domination", violations == 0, f"{len(corpus)} cases, "
           f"{violations} violations")


def test_criterion_03_modular_elo_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 3)
    violations = 0
    cases = 0
    for m in range(3, 65):
        coprime = [b for b in range(1, 6 * m) if math.gcd(b, m) == 1]
        for n in (10, 100, 1000):
            for _ in range(20):
                steps = rng.choice(coprime, size=n).tolist()
                mx = float(modular_walk_pmf(steps, m).probs.max())
                cos = cosine_product_bound(m, steps)
                closed = modular_elo_bound(m, n)
                cases += 1
                if mx > cos + 1e-10 or cos > closed + 1e-10:
                    violations += 1
    elapsed = time.perf_counter() - t0
    record(3, "modular ELO chain", violations == 0 and elapsed < 300.0,
           f"{cases} cases over m in 3..64, {violations} violations, {elapsed:.0f}s")


def test_criterion_04_distinct_steps_rate():
    t0 = time.perf_counter()
    prof = q1_profile(list(range(1, 401)))
    fit = fit_exponent([(n, prof[n - 1]) for n in range(50, 401)])
    scaled = 400 ** 1.5 * prof[399]
    target = math.sqrt(6.0 / math.pi)
    ratio = scaled / target
    elapsed = time.perf_counter() - t0
    ok = (-1.65 <= fit.slope <= -1.35) and (1 / 1.5 <= ratio <= 1.5) and elapsed < 600
    record(4, "distinct-steps decay rate", ok,
           f"slope={fit.slope:.3f}, n^1.5*Q1={scaled:.4f} vs {target:.4f} "
           f"(ratio {ratio:.3f}), {elapsed:.0f}s")


def test_criterion_05_unit_steps_rate():
    prof = q1_profile([1] * 2000)
    fit = fit_exponent([(n, prof[n - 1]) for n in range(100, 2001)])
    scaled = math.sqrt(math.pi * 2000 / 2.0) * prof[1999]
    ok = (-0.55 <= fit.slope <= -0.45) and abs(scaled - 1.0) <= 0.02
    record(5, "unit-steps decay rate", ok,
           f"slope={fit.slope:.4f}, sqrt(pi n/2)*Q1={scaled:.5f}")


def test_criterion_06_exponent_formula():
    rng = np.random.default_rng(MASTER_SEED + 6)
    alphas = rng.uniform(0.01, 4.0, size=100)
    exact_ones = sum(anti_exponent_f(ExponentQuery(a, 0.0, 0.01)).f_value == 1.0
                     for a in alphas)
    max_gap = 0.0
    for a in alphas:
        b = branch_boundary(a)
        small = a * a / ((a + b) * (a + 2 * b + 2 * math.sqrt(b * b + a * b)))
        large = a * a / ((a + b) * (1 + 2 * b) * (a + 0.5 + b))
        max_gap = max(max_gap, abs(small - large))
    ok = exact_ones == 100 and max_gap < 1e-9
    record(6, "exponent formula", ok,
           f"f(alpha,0)=1 exactly for {exact_ones}/100, branch gap {max_gap:.2e}")


def test_criterion_07_lower_anti_floor():
    violations = 0
    cases = 0
    specs = {
        "alpha=0.5 (sqrt-block proxy)": generate(StepSequenceSpec("sqrt_block"), 200),
        "alpha=1": [n for n in range(1, 201)],
        "alpha=2": [n * n for n in range(1, 201)],
    }
    for label, steps in specs.items():
        prof = q1_profile(steps)
        variance = 0
        for n, a in enumerate(steps, 1):
            variance += a * a
            cases += 1
            if prof[n - 1] + 1e-12 < lower_anti_floor(variance):
                violations += 1
    record(7, "unit-window concentration floor", violations == 0,
           f"{cases} prefix checks across 3 growth laws, {violations} violations")


def test_criterion_08_hoeffding_paley_zygmund(corpus):
    hoeffding_violations = 0
    pz_violations = 0
    for steps, pmf in corpus:
        l2 = summary_moments(steps).l2_norm
        for t in (0.0, 0.5, 1.0, 2.0, 3.0):
            if tail_prob(pmf, t * l2) > hoeffding_tail(l2, t) + 1e-12:
                hoeffding_violations += 1
        if abs_tail_prob(pmf, l2 / 2.0) < 3.0 / 16.0 - 1e-12:
            pz_violations += 1
    ok = hoeffding_violations == 0 and pz_violations == 0
    record(8, "Hoeffding + Paley-Zygmund", ok,
           f"{5 * len(corpus)} tail cases / {len(corpus)} floor cases, "
           f"{hoeffding_violations}+{pz_violations} violations")


def test_criterion_09_local_clt_constant():
    recorded = []
    best = 0.0
    for n in range(2, 10_001, 2):
        approx = local_clt_approx(n, 0)
        err = n * abs(rademacher_point_mass(n, 0) - approx)
        best = max(best, err)
        recorded.append(best)
    median = float(np.median(recorded))
    ok = math.isfinite(best) and max(recorded) <= 10.0 * median
    record(9, "local CLT constant", ok,
           f"recorded c={best:.5f} (attained at n=2), running-max median={median:.5f}")


def test_criterion_10_block_return_events():
    t0 = time.perf_counter()
    spec = StepSequenceSpec("sqrt_block")
    windows = [recurrence_event_window(k) for k in (1, 2, 3)]
    man = McRunManifest(master_seed=MASTER_SEED, replicates=100_000,
                        horizon=windows[-1][1], spec=spec,
                        experiment="interval_hits")
    stats = estimate_interval_hits(man, 0, windows)
    p = {k: stats.per_event[k].p_hat for k in (1, 2, 3)}
    scaled = [k * p[k] for k in (1, 2, 3)]
    corr = {}
    for (j, k), c in stats.joint.items():
        corr[(j, k)] = (c / stats.replicates) / (p[j] * p[k])
    small = McRunManifest(master_seed=MASTER_SEED, replicates=100_000, horizon=4,
                          spec=spec, experiment="interval_hits")
    p_small = estimate_interval_hits(small, 0, [(1, 4)]).per_event[1].p_hat
    sigma = math.sqrt(0.125 * 0.875 / 100_000)
    elapsed = time.perf_counter() - t0
    ok = (all(v >= 0.01 for v in p.values())
          and max(scaled) / min(scaled) <= 5.0
          and all(v <= 10.0 for v in corr.values())
          and abs(p_small - 0.125) <= 4 * sigma
          and elapsed < 600.0)
    record(10, "block return events", ok,
           f"p={[round(p[k], 4) for k in (1, 2, 3)]}, k*p spread "
           f"{max(scaled) / min(scaled):.2f}, max corr {max(corr.values()):.2f}, "
           f"small-window {p_small:.4f} vs 0.125, {elapsed:.0f}s")


def test_criterion_11_embedding_fidelity():
    spec = StepSequenceSpec("sqrt_block")
    mismatches = 0
    traces = 0
    for k, count in ((1, 5000), (2, 5000)):
        man = McRunManifest(master_seed=MASTER_SEED + k, replicates=count,
                            horizon=recurrence_event_window(k)[1], spec=spec,
                            experiment="embed2d")
        steps = np.asarray(generate(spec, man.horizon), dtype=np.int64)
        for rep in range(count):
            trace = block_pair_trace(man, rep, k, steps=steps)
            emb = embed_2d(trace, k)
            traces += 1
            if emb.visits_to_line != int(np.count_nonzero(trace == 0)):
                mismatches += 1
    record(11, "embedding fidelity", mismatches == 0,
           f"{traces} traces, {mismatches} mismatches (exact, zero tolerance)")


def test_criterion_12_coupling_game():
    t0 = time.perf_counter()
    spec = StepSequenceSpec("power", alpha=0.5)
    runs = 10_000
    finished = 0
    episodes = 0
    wins = 0
    replays_exact = 0
    for rep in range(runs):
        pair = simulate_coupling(spec, 1.0, 0.1, seed=MASTER_SEED, replicate=rep)
        if 0.0 <= pair.final_gap <= 0.1:
            finished += 1
        episodes += len(pair.episode_wins)
        wins += sum(pair.episode_wins)
        if rep % 100 == 0:
            replays_exact += (replay_final_gap(spec, 1.0, pair.anti_steps)
                              == pair.final_gap)
    rate = wins / episodes
    floor = 0.25 - 3 * math.sqrt(0.25 * 0.75 / episodes)
    elapsed = time.perf_counter() - t0
    ok = finished == runs and rate >= floor and replays_exact == 100
    record(12, "coupling game", ok,
           f"{finished}/{runs} in range, episode win rate {rate:.4f} >= {floor:.4f}, "
           f"{replays_exact}/100 replays exact, {elapsed:.0f}s")


def test_criterion_13_integer_cover_conditions():
    # Changing finitely many steps leaves transience unchanged, so for
    # a_k = floor(ln^2 k) both conditions are needed only for all large n.
    # The certified bounds are evaluated on the whole infinite sequence.
    t0 = time.perf_counter()
    span = 10 ** 6
    # Condition 2's log-ratio grows by about 1.8e-9 per step near its zero;
    # a secant through two evaluations lands within 10^5 of it.
    a, b = 190_000_000, 200_000_000
    ga, gb = (log_power_ratio_bounds(n).cond2_lo for n in (a, b))
    guess = a + round((a - b) * ga / (gb - ga))
    start = guess - 10 ** 5
    window = log_power_ratio_window(start, guess + 10 ** 5 + span)
    holds = (window.cond1_lo >= 0) & (window.cond2_lo >= 0)
    unheld = np.flatnonzero(~holds)
    crossing = start + int(unheld[-1]) + 1 if unheld.size else start
    fails = window.n[(window.cond2_hi < 0) & (window.n >= crossing - span)]
    last_fail = f"{int(fails.max()):,}" if fails.size else None
    held_for = start + len(window.n) - crossing
    spaced = np.geomspace(crossing + span, 1e10, 8).round().astype(np.int64)
    misses = []
    for n in spaced.tolist():
        far = log_power_ratio_bounds(n)
        if far.cond1_lo < 0 or far.cond2_lo < 0:
            misses.append(n)
    elapsed = time.perf_counter() - t0
    ok = (unheld.size > 0 and fails.size > 0 and held_for >= span
          and not misses and elapsed < 10.0)
    detail = (f"condition 2 first holds at n = {crossing:,} (last fails at "
              f"{last_fail}); both hold at every n in [{crossing:,}, "
              f"{crossing + held_for:,}) and at {len(spaced)} log-spaced n up to "
              f"1e10 (misses {misses}), {elapsed:.1f}s")
    record(13, "integer-cover transience conditions", ok, detail)


def _run_cli_twice(tmp_path, tag, argv_builder):
    payloads = []
    for i in (1, 2):
        out = tmp_path / f"{tag}{i}.json"
        assert cli_main(argv_builder(str(out))) == 0
        data = json.loads(out.read_text())
        payloads.append(json.dumps(data["result"], sort_keys=True))
    return payloads[0] == payloads[1]


def test_criterion_14_determinism(tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("\n".join(str(v) for v in generate(StepSequenceSpec("sqrt_block"), 40)))
    man = tmp_path / "run.json"
    man.write_text(json.dumps({
        "master_seed": MASTER_SEED, "replicates": 20_000, "horizon": 10,
        "spec": {"family": "sqrt_block"}, "experiment": "interval_hits",
        "params": {"C": 0, "windows": [[3, 10]]}}))
    dist_ok = _run_cli_twice(tmp_path, "dist", lambda out: [
        "dist", "--seq", str(seq), "--n", "30", "--q", "1", "--out", out])
    mc_ok = _run_cli_twice(tmp_path, "mc", lambda out: [
        "mc", "--manifest", str(man), "--out", out, "--threads", "3"])
    verify_ok = _run_cli_twice(tmp_path, "verify", lambda out: [
        "verify", "--suite", "elo", "--max-n", "12", "--out", out])
    ok = dist_ok and mc_ok and verify_ok
    record(14, "manifest determinism", ok,
           f"dist={dist_ok}, mc={mc_ok}, verify={verify_ok} (bit-identical payloads)")
