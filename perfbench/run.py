#!/usr/bin/env python3
"""rlab benchmark: a seeded job sweep run as a closed loop by one client.

    python3 perfbench/run.py --workload exact_dist --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. Each job is one in-process `rlab.cli.main(argv)` call, or one
library call where no CLI exists (`exact.q1_profile`), and reads only the
step files and manifests the set-up wrote. The loop runs whole passes over
the sweep, each in a fresh seeded order, until `--seconds` have elapsed
(and at least one pass and 100 job timings of undisturbed passes are
complete). Every job's output is checked after its timer stops.

Times are reported in reference seconds: each measured time is scaled by a
machine-speed probe timed between jobs (see `speed.py`), so that the
machine's own speed swings cancel out. The raw measured times are printed
beside them and saved with the result.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics. The last line of
standard output is the JSON result. Exit code 2 means the benchmark could
not run (for instance, no rlab sources), 1 that a metric could not be
measured.
"""

from __future__ import annotations

import os

# No native thread pools: the only threads a run starts are the Monte Carlo
# workers, at most nproc of them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_TIMINGS = 100
P90_MIN_ABOVE = 10
# Every pass runs the same jobs, so a pass this much slower than the run's
# median pass was slowed by something outside the program.
DISTURBED = 1.25
WORKLOADS = ("exact_dist", "verify_sweep", "monte_carlo")


def p90_with_count(latencies):
    """Nearest-rank 90th percentile and the number of timings above it.

    The percentile is withheld (None) when fewer than 10 timings lie above it.
    """
    xs = sorted(latencies)
    rank = math.ceil(0.9 * len(xs))
    above = len(xs) - rank
    if above < P90_MIN_ABOVE:
        return None, above
    return xs[rank - 1], above


def read_loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(mc_threads: int, load_start) -> dict:
    import mpmath
    import numpy
    from rlab import streams

    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "generator_version": streams.GENERATOR_VERSION,
            "mc_threads": mc_threads, "loadavg_start": load_start,
            "contended": bool(load_start and load_start[0] > nproc())}


def run_job(job, workdir: Path, rec=None, phase=None):
    """Run one job; returns (seconds, exit code, output, error text)."""
    from rlab import cli, exact, sequences

    inp, out = job.paths(workdir)
    if rec is not None:
        rec.phase, rec.job, rec.job_class = phase, job.id, job.walk_class
    rc, output, error = 0, None, None
    start = time.perf_counter()
    try:
        if job.kind == "q1_profile":
            output = exact.q1_profile(sequences.read_sequence_file(inp))
        else:
            rc = cli.main(job.argv_for(workdir))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a failing job is counted, and the loop goes on
        error = traceback.format_exc(limit=3)
    finally:
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.phase = None
    if job.kind != "q1_profile" and error is None and out.exists():
        output = json.loads(out.read_text())
        out.unlink()
    return elapsed, rc, output, error


def job_problems(job, rc, output, error, refs) -> list[str]:
    import checks

    if error is not None:
        return [error]
    if rc != 0:
        return [f"exit code {rc}"]
    if output is None:
        return ["no output"]
    try:
        return checks.check_output(job, output, refs)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def set_up(workload, seed, mc_threads, workdir, rec, meter):
    """Generate the sweep, write its inputs, warm up; repeated to time it.

    Returns the jobs and the (start, seconds) of each repetition.
    """
    import sweeps

    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        meter.probe(force=True)
        start = time.perf_counter()
        probing = 0.0
        if rec is not None:
            rec.phase, rec.job, rec.job_class = ("setup", k), "setup", None
        jobs = sweeps.make_sweep(workload, seed, mc_threads)
        digests.add(sweeps.write_inputs(jobs, workdir))
        for job in sweeps.warmup_jobs(jobs):
            probing += meter.probe()
            run_job(job, workdir, rec, ("setup", k))
        if rec is not None:
            rec.phase = None
        times.append((start, time.perf_counter() - start - probing))
    meter.probe(force=True)
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different job lists or inputs")
    return jobs, times


def measure(jobs, seed, seconds, workdir, refs, rec, meter):
    """Closed loop over whole passes; traced passes alternate when `rec` is set.

    Each pass records the (start, seconds) of its jobs, and its own seconds
    without the output checks and speed probes.
    """
    import sweeps

    passes, failures = [], []
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds

    def enough():
        done = [p for p in passes if p["complete"]]
        untraced = [p for p in done if not p["traced"]]
        if not untraced:
            return False
        if rec is not None:
            return any(p["traced"] for p in done)
        return sum(len(p["jobs"]) for p in undisturbed(untraced, meter.scale)) >= MIN_TIMINGS

    pass_no = 0
    while time.perf_counter() < deadline or not enough():
        traced = rec is not None and pass_no % 2 == 1
        record = {"phase": ("pass", pass_no), "traced": traced, "jobs": [],
                  "complete": True}
        outside_jobs = 0.0
        pass_start = time.perf_counter()
        for job in sweeps.pass_order(jobs, seed, pass_no):
            if time.perf_counter() >= deadline and enough():
                record["complete"] = False
                break
            outside_jobs += meter.probe()
            job_start = time.perf_counter()
            elapsed, rc, output, error = run_job(
                job, workdir, rec if traced else None, record["phase"])
            problems = job_problems(job, rc, output, error, refs)
            outside_jobs += time.perf_counter() - job_start - elapsed
            attempted += 1
            if problems:
                failures.append((job.id, job.key, problems))
            record["jobs"].append((job_start, elapsed))
        record["seconds"] = time.perf_counter() - pass_start - outside_jobs
        record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(record)
        pass_no += 1
    meter.probe(force=True)
    return passes, attempted, failures


def pass_seconds(record, scale) -> float:
    """A pass's time to solution: the sum of its job latencies, each scaled."""
    return sum(elapsed * scale(start, elapsed) for start, elapsed in record["jobs"])


def undisturbed(done, scale):
    """The passes that took at most `DISTURBED` times the median pass time."""
    seconds = [pass_seconds(p, scale) for p in done]
    limit = DISTURBED * median(seconds)
    return [p for p, s in zip(done, seconds) if s <= limit]


def timings(passes, import_span, setup_times, scale):
    """The time metrics from complete untraced passes, with `scale(start, seconds)`.

    `wall_s` is the median over all of them; the percentiles pool the job
    latencies of the undisturbed ones.
    """
    done = [p for p in passes if p["complete"] and not p["traced"]]
    kept = undisturbed(done, scale)
    latencies = [elapsed * scale(start, elapsed) for p in kept for start, elapsed in p["jobs"]]
    p90, above = p90_with_count(latencies)
    return {
        "wall_s": median(pass_seconds(p, scale) for p in done),
        "job_p50_s": median(latencies),
        "job_p90_s": p90,
        "setup_s": (import_span[1] * scale(*import_span)
                    + median(s * scale(start, s) for start, s in setup_times)),
    }, {"timings": len(latencies), "above_p90": above, "passes": len(done),
        "disturbed_passes": len(done) - len(kept)}


def end_to_end(passes, import_span, setup_times, meter):
    """End-to-end metrics in reference seconds, plus the raw measured times."""
    ref, extra = timings(passes, import_span, setup_times, meter.scale)
    raw, _ = timings(passes, import_span, setup_times, lambda start, s: 1.0)
    metrics = {name: (value, "s") for name, value in ref.items()}
    # Set-up and the first pass run the sweep once; later passes only repeat
    # it for timing, and the allocator state they inherit differs between runs.
    metrics["peak_rss_mb"] = (passes[0]["maxrss_mb"], "MB")
    extra.update(raw_s=raw, slowness=meter.slowness())
    return metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rlab" / "__init__.py").is_file():
        print(f"perfbench: no rlab sources under {SRC}", file=sys.stderr)
        return 2
    load_start = read_loadavg()
    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rlab
    import rlab.cli  # noqa: F401
    import speed
    import tracing
    import_span = (import_start, time.perf_counter() - import_start)
    if Path(rlab.__file__).resolve().parent != (SRC / "rlab").resolve():
        print(f"perfbench: rlab was imported from {rlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    mc_threads = min(2, nproc())
    refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    rec = tracing.Recorder() if args.trace else None
    restore = tracing.install(rec) if rec is not None else None
    meter = speed.Speedometer()
    try:
        jobs, setup_times = set_up(args.workload, args.seed, mc_threads, workdir, rec,
                                   meter)
        passes, attempted, failures = measure(jobs, args.seed, args.seconds, workdir,
                                              refs, rec, meter)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(mc_threads, load_start)
    env["loadavg_end"] = read_loadavg()
    for job_id, key, problems in failures[:5]:
        print(f"perfbench: job {job_id} ({key}) failed: {problems[0]}", file=sys.stderr)

    if rec is None:
        metrics, extra = end_to_end(passes, import_span, setup_times, meter)
        if metrics["job_p90_s"][0] is None:
            print(f"perfbench: job_p90_s withheld, only {extra['above_p90']} timings "
                  "above it", file=sys.stderr)
            return 1
    else:
        import sweeps

        traced = [p for p in passes if p["complete"] and p["traced"]]
        untraced = [p for p in passes if p["complete"] and not p["traced"]]
        suites = sweeps.VERIFY_SUITES
        metrics = tracing.layer_metrics(
            rec, [(p["phase"], p["seconds"]) for p in traced],
            [("setup", k) for k in range(SETUP_REPEATS)], suites)
        metrics["trace.overhead_share"] = (
            median(pass_seconds(p, meter.scale) for p in traced)
            / median(pass_seconds(p, meter.scale) for p in untraced) - 1.0, "ratio")
        extra = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
        WORK.mkdir(exist_ok=True)
        rec.write(WORK / f"trace-{args.workload}.json")

    failed = len(failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(jobs)} {json.dumps(extra)}")
    print("env " + json.dumps(env))
    if env["contended"]:
        print(f"perfbench: CONTENDED run, load {load_start[0]} > nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    if rec is None:
        print(f"  {'error_rate':44s} {failed / attempted:.6g} ratio "
              f"({failed} failed / {attempted} attempted)")
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "extra": extra, "attempted": attempted, "failed": failed,
                    "passes": [{k: p[k] for k in ("traced", "complete", "seconds", "jobs")}
                               for p in passes],
                    "probes": [meter.at, meter.seconds],
                    "metrics": metrics}, indent=1) + "\n")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
