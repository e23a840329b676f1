"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import sweeps  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", sweeps.WORKLOADS)
def test_same_seed_gives_identical_jobs_and_inputs(workload, tmp_path):
    a = sweeps.make_sweep(workload, 7)
    b = sweeps.make_sweep(workload, 7)
    assert a == b
    assert sweeps.write_inputs(a, tmp_path / "a") == sweeps.write_inputs(b, tmp_path / "b")
    for path in sorted((tmp_path / "a" / "in").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / "in" / path.name).read_bytes()
    assert [j.key for j in sweeps.make_sweep(workload, 8)] != [j.key for j in a]


def test_every_sweep_job_has_a_place_in_the_reference_grid():
    for workload in sweeps.WORKLOADS:
        universe = {sweeps.param_key(cls.name, p)
                    for cls in sweeps.CLASSES[workload] for p in cls.universe()}
        for seed in range(5):
            assert {j.key for j in sweeps.make_sweep(workload, seed)} <= universe


def test_stratified_draws_one_value_per_stratum():
    cls = sweeps.JobClass("c", 4, ("n", tuple(range(100))), pick=(("k", (1, 2)),))
    rows = cls.sample(np.random.default_rng(3))
    assert [r["n"] // 25 for r in rows] == [0, 1, 2, 3]
    assert {r["k"] for r in rows} <= {1, 2}
    narrow = sweeps.JobClass("c", 4, ("n", tuple(range(100))), width=0.2)
    for seed in range(20):
        rows = narrow.sample(np.random.default_rng(seed))
        assert all(10 <= r["n"] - 25 * i < 15 for i, r in enumerate(rows))


def test_p90_is_withheld_with_fewer_than_ten_timings_above():
    assert run.p90_with_count(list(range(99))) == (None, 9)
    value, above = run.p90_with_count(list(range(100)))
    assert (value, above) == (89, 10)


def test_speed_scale_uses_the_probes_near_an_interval():
    meter = speed.Speedometer()
    assert meter.probe() > 0 and meter.probe() == 0.0  # at most one probe per EVERY_S
    meter.at, meter.seconds = [0.0, 1.0, 2.0, 10.0], [0.002, 0.004, 0.004, 0.001]
    assert meter.scale(1.2, 0.5) == pytest.approx(speed.REF_S / 0.004)
    # no probe within the window: the nearest one on each side
    assert meter.scale(5.0, 1.0) == pytest.approx(speed.REF_S / 0.0025)
    record = {"jobs": [(1.2, 0.5), (10.0, 0.1)]}
    assert run.pass_seconds(record, meter.scale) == pytest.approx(
        0.5 * speed.REF_S / 0.004 + 0.1 * speed.REF_S / 0.001)


def test_disturbed_passes_are_left_out_of_the_percentiles():
    passes = [{"complete": True, "traced": False, "jobs": [(0.0, s / 2), (0.0, s / 2)]}
              for s in (1.0, 1.1, 0.9, 2.0)]
    def unscaled(start, seconds):
        return 1.0
    assert run.undisturbed(passes, unscaled) == passes[:3]
    metrics, extra = run.timings(passes, (0.0, 0.1), [(0.0, 1.0)], unscaled)
    assert metrics["wall_s"] == pytest.approx(1.05)  # the median of all four
    assert metrics["job_p50_s"] == pytest.approx(0.5)
    assert (extra["timings"], extra["disturbed_passes"]) == (6, 1)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, ("pass", 0), "j0", None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a
        _span("a.child", 2.0, 3.0, 1),
        _span("worker", 8.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    assert tracing.covered_time([spans[0], _span("late", 11.0, 13.0, None)]) == 12.0


def _dist_output(tmp_path, steps):
    from rlab import cli

    seq, out = tmp_path / "s.txt", tmp_path / "o.json"
    seq.write_text("\n".join(map(str, steps)) + "\n")
    assert cli.main(["dist", "--seq", str(seq), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_reference_check_rejects_a_pmf_one_ulp_off(tmp_path):
    job = sweeps.build_job("j0", "dense_sqrt", {"n": 12})
    output = _dist_output(tmp_path, job.input_data)
    refs = {job.key: checks.reference_value(job.kind, output)}
    assert checks.check_output(job, output, refs) == []
    probs = output["result"]["probs"]
    probs[3] = float(np.nextafter(probs[3], 1.0))
    assert checks.check_output(job, output, refs) == [
        f"output differs from the reference for {job.key}"]


def test_reference_check_accepts_a_modular_law_within_tolerance():
    job = sweeps.build_job("j0", "modular_n10", {"m": 7, "n": 10, "i": 0})
    output = {"result": {"compared_value": 0.25, "satisfied": True,
                         "params": {"m": 7, "cosine_bound": 0.3}}}
    refs = {job.key: checks.reference_value(job.kind, output)}
    output["result"]["compared_value"] += 1e-12
    output["result"]["params"]["cosine_bound"] -= 1e-12
    assert checks.check_output(job, output, refs) == []
    output["result"]["compared_value"] += 1e-9
    assert checks.check_output(job, output, refs) != []


def test_tracing_records_nested_spans_and_restores_rlab(tmp_path):
    from rlab import exact

    original = exact.walk_pmf
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        job = sweeps.build_job("j0", "sparse_squares", {"n": 20})
        sweeps.write_inputs([job], tmp_path)
        elapsed, rc, output, error = run.run_job(job, tmp_path, rec, ("pass", 0))
        exact.walk_pmf([1, 2])  # outside a job: not recorded
    finally:
        restore()
    assert (rc, error) == (0, None) and exact.walk_pmf is original
    spans = rec.spans()
    names = [s.name for s in spans]
    assert names[0] == "cli.main" and names.count("exact.walk_pmf") == 1
    walk = spans[names.index("exact.walk_pmf")]
    assert spans[walk.parent].name == "cli.main" and walk.job_class == "sparse"
    assert rec.counts[(("pass", 0), "exact.walk_pmf.atoms")] == len(output["result"]["probs"])
    metrics = tracing.layer_metrics(rec, [(("pass", 0), elapsed)], [], ())
    assert metrics["exact.walk_pmf.sparse.s"][0] > 0 and metrics["cli.emit_table.s"][0] > 0
    assert 0 < metrics["trace.covered_share"][0] <= 1
