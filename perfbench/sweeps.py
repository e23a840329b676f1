"""Seeded job sweeps: the three workloads of the rlab benchmark.

A workload is a fixed mix of job classes. Each class draws its jobs from a
finite parameter grid, so every job the benchmark can generate has a stored
reference output (see `make_refs.py`). The workload seed picks the jobs:

* the class's primary axis (the problem size) is split into as many
  contiguous strata as the class has jobs, and one value is drawn from the
  central `width` fraction of each stratum. Where cost grows steeply with
  size the width is small, so the total work of a sweep, its percentiles and
  its largest job barely depend on the seed, while the step values, Monte
  Carlo seeds and job order still do;
* `pick` axes, which barely change the cost, draw uniformly with
  repetition. A parameter that does change the cost (the coupling exponent,
  the embedding block) splits the class instead, so that it is never paired
  at random with the size.

Inputs that are random step lists are keyed by a small pool index, not by
the workload seed, so the reference set covers every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rlab import sequences
from rlab.sequences import StepSequenceSpec

WORKLOADS = ("exact_dist", "verify_sweep", "monte_carlo")
VERIFY_SUITES = ("elo", "hoeffding", "paley_zygmund", "combine_scales", "prefix",
                 "local_clt", "exponent_fit")
# Horizon of every sqrt_block Monte Carlo job: the end of the window of
# block-return event k = 3, as in acceptance criterion 10.
MC_HORIZON = 2730


@dataclass(frozen=True)
class JobClass:
    """One kind of job in a workload and the grid its parameters come from."""

    name: str
    count: int                      # jobs of this class in one sweep
    primary: tuple[str, tuple]      # stratified axis
    pick: tuple[tuple[str, tuple], ...] = ()
    width: float = 1.0              # share of each stratum values are drawn from

    def universe(self):
        """Every parameter set the class can generate, for the reference set."""
        axes = [self.primary, *self.pick]
        names = [name for name, _ in axes]
        for values in itertools.product(*(vals for _, vals in axes)):
            yield dict(zip(names, values))

    def sample(self, rng) -> list[dict]:
        name, grid = self.primary
        if len(grid) < self.count:
            raise ValueError(f"{self.name}: {self.count} strata need >= that many values")
        rows = []
        for i in range(self.count):
            lo, hi = (round(j * len(grid) / self.count) for j in (i, i + 1))
            span = max(1, round((hi - lo) * self.width))
            first = lo + (hi - lo - span) // 2
            rows.append({name: grid[first + int(rng.integers(span))]})
        for axis, values in self.pick:
            for row in rows:
                row[axis] = values[int(rng.integers(len(values)))]
        return rows


def param_key(cls_name: str, params: dict) -> str:
    """Canonical reference key of a job."""
    return cls_name + ":" + ",".join(f"{k}={params[k]}" for k in sorted(params))


def _pool_steps(salt: int, idx: int, high: int, size: int) -> list[int]:
    """Fixed random step list number `idx` of a pool, values in 1..high."""
    return np.random.default_rng([salt, idx]).integers(1, high + 1, size=size).tolist()


def _coprime_steps(m: int, n: int, idx: int) -> list[int]:
    """Steps coprime to m drawn from 1..6m, the criterion-03 case shape."""
    coprime = [b for b in range(1, 6 * m) if math.gcd(b, m) == 1]
    rng = np.random.default_rng([0x30D, m, n, idx])
    return rng.choice(coprime, size=n).tolist()


_SQUARES = StepSequenceSpec("power", alpha=2)

_POOL = (("i", (0, 1, 2, 3)),)
EXACT_DIST = (
    JobClass("dense_power", 8, ("n", tuple(range(150, 450))), width=0.25),
    JobClass("dense_sqrt", 8, ("n", tuple(range(100, 400))), width=0.25),
    JobClass("sparse_random", 6, ("n", tuple(range(20, 60))), pick=_POOL, width=0.25),
    JobClass("sparse_squares", 4, ("n", tuple(range(20, 45))), width=0.25),
    JobClass("rational", 4, ("n", tuple(range(10, 41))), pick=_POOL),
    JobClass("q1_squares", 3, ("n", tuple(range(40, 81))), width=0.25),
    JobClass("q1_random", 3, ("n", tuple(range(40, 91))), pick=_POOL, width=0.25),
)

VERIFY_SWEEP = tuple(
    JobClass(f"verify_{suite}", 2, ("seed", tuple(range(32)))) for suite in VERIFY_SUITES
) + tuple(
    JobClass(f"modular_n{n}", 33, ("m", tuple(range(3, 65))),
             pick=(("n", (n,)), *_POOL))
    for n in (10, 100, 1000)
)

MONTE_CARLO = (
    # Seven jobs on seven replicate counts: the sizes do not depend on the
    # seed, and the 4096 job fills both worker chunks at once, which sets
    # the peak memory.
    JobClass("interval_hits", 7, ("replicates", tuple(range(1024, 4097, 512))),
             pick=(("C", (0, 1, 2, 3)), ("i", (0, 1)))),
    JobClass("q1_estimate", 8, ("n", tuple(range(500, 2731, 30))), pick=(("i", (0, 1)),),
             width=0.25),
) + tuple(
    JobClass(f"embed2d_k{k}", 3, ("traces", tuple(range(100, 401, 50))), pick=_POOL,
             width=0.25)
    for k in (1, 2)
) + tuple(
    JobClass(f"coupling_a{alpha}", 2, ("runs", tuple(range(30, 121, 15))),
             pick=(("d", tuple(0.5 + 0.25 * j for j in range(10))),), width=0.25)
    for alpha in (0.5, 0.6, 0.7)
)

CLASSES = {"exact_dist": EXACT_DIST, "verify_sweep": VERIFY_SWEEP,
           "monte_carlo": MONTE_CARLO}
_SALTS = {"exact_dist": 0xE1, "verify_sweep": 0xE2, "monte_carlo": 0xE3}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI argv or a library call, plus its input."""

    id: str
    cls: str
    key: str
    kind: str             # dist | dist_exact | q1_profile | verify | modular | mc
    argv: tuple           # CLI arguments; "{in}" and "{out}" are filled per run
    input_kind: str       # steps | manifest | none
    input_data: object   # step list, manifest dict, or None
    walk_class: str | None
    size: int             # the primary-axis value, used to pick warm-up jobs

    def paths(self, workdir: Path) -> tuple[Path, Path]:
        suffix = ".json" if self.input_kind == "manifest" else ".txt"
        return workdir / "in" / f"{self.id}{suffix}", workdir / "out" / f"{self.id}.json"

    def argv_for(self, workdir: Path) -> list[str]:
        inp, out = self.paths(workdir)
        return [a.replace("{in}", str(inp)).replace("{out}", str(out)) for a in self.argv]


def build_job(job_id: str, cls_name: str, params: dict, mc_threads: int = 1) -> Job:
    """Turn one parameter set of a class into a job."""
    key = param_key(cls_name, params)
    n = params.get("n")
    dist = ("dist", "--seq", "{in}", "--out", "{out}")
    if cls_name == "dense_power":
        steps = sequences.generate(StepSequenceSpec("power", alpha=1), n)
        return Job(job_id, cls_name, key, "dist", dist, "steps", steps, "dense", n)
    if cls_name == "dense_sqrt":
        steps = sequences.generate(StepSequenceSpec("sqrt_block"), n)
        return Job(job_id, cls_name, key, "dist", dist, "steps", steps, "dense", n)
    if cls_name == "sparse_random":
        steps = _pool_steps(0x5A, params["i"], 1000, 60)[:n]
        return Job(job_id, cls_name, key, "dist", dist, "steps", steps, "sparse", n)
    if cls_name == "sparse_squares":
        steps = sequences.generate(_SQUARES, n)
        return Job(job_id, cls_name, key, "dist", dist, "steps", steps, "sparse", n)
    if cls_name == "rational":
        steps = _pool_steps(0xEA, params["i"], 50, 40)[:n]
        return Job(job_id, cls_name, key, "dist_exact", dist + ("--exact",), "steps",
                   steps, "rational", n)
    if cls_name == "q1_squares":
        steps = sequences.generate(_SQUARES, n)
        return Job(job_id, cls_name, key, "q1_profile", (), "steps", steps, None, n)
    if cls_name == "q1_random":
        steps = _pool_steps(0x91, params["i"], 1000, 90)[:n]
        return Job(job_id, cls_name, key, "q1_profile", (), "steps", steps, None, n)
    if cls_name.startswith("verify_"):
        argv = ("verify", "--suite", cls_name[len("verify_"):], "--seed",
                str(params["seed"]), "--out", "{out}")
        return Job(job_id, cls_name, key, "verify", argv, "none", None, None,
                   params["seed"])
    if cls_name.startswith("modular_n"):
        m = params["m"]
        argv = ("bounds", "--check", "modular-elo", "--m", str(m), "--seq", "{in}",
                "--out", "{out}")
        return Job(job_id, cls_name, key, "modular", argv, "steps",
                   _coprime_steps(m, n, params["i"]), None, m)
    manifest, size = _mc_manifest(cls_name, params)
    argv = ("mc", "--threads", str(mc_threads), "--manifest", "{in}", "--out", "{out}")
    return Job(job_id, cls_name, key, "mc", argv, "manifest", manifest, None, size)


def _mc_manifest(cls_name: str, params: dict) -> tuple[dict, int]:
    sqrt_block = {"family": "sqrt_block"}
    if cls_name == "interval_hits":
        return ({"master_seed": 9100 + params["i"], "replicates": params["replicates"],
                 "horizon": MC_HORIZON, "spec": sqrt_block, "experiment": "interval_hits",
                 "params": {"C": params["C"], "block_ks": [1, 2, 3]}},
                params["replicates"])
    if cls_name == "q1_estimate":
        return ({"master_seed": 9200 + params["i"], "replicates": 4000,
                 "horizon": params["n"], "spec": sqrt_block, "experiment": "q1_estimate",
                 "params": {"n": params["n"]}}, params["n"])
    if cls_name.startswith("embed2d_k"):
        return ({"master_seed": 9300 + params["i"], "replicates": params["traces"],
                 "horizon": MC_HORIZON, "spec": sqrt_block, "experiment": "embed2d",
                 "params": {"k": int(cls_name[len("embed2d_k"):])}}, params["traces"])
    if cls_name.startswith("coupling_a"):
        alpha = float(cls_name[len("coupling_a"):])
        return ({"master_seed": 9400, "replicates": params["runs"], "horizon": 1,
                 "spec": {"family": "power", "alpha": alpha}, "experiment": "coupling",
                 "params": {"d": params["d"], "epsilon": 0.1}}, params["runs"])
    raise ValueError(f"unknown job class {cls_name!r}")


def make_sweep(workload: str, seed: int, mc_threads: int = 1) -> list[Job]:
    """The workload's job list for `seed`; the same seed gives the same jobs."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([seed, _SALTS[workload]])
    jobs = []
    for cls in CLASSES[workload]:
        for params in cls.sample(rng):
            jobs.append(build_job(f"j{len(jobs):03d}", cls.name, params, mc_threads))
    return jobs


def pass_order(jobs: list[Job], seed: int, pass_no: int) -> list[Job]:
    """Seeded job order of one pass; each pass runs the sweep in a fresh order."""
    rng = np.random.default_rng([seed, pass_no, 0x0D])
    return [jobs[int(i)] for i in rng.permutation(len(jobs))]


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """One job per class: the median-size one, so warm-up cost barely depends on the seed."""
    by_class: dict[str, list[Job]] = {}
    for job in jobs:
        by_class.setdefault(job.cls, []).append(job)
    return [sorted(group, key=lambda j: (j.size, j.key))[len(group) // 2]
            for group in by_class.values()]


def write_inputs(jobs: list[Job], workdir: Path) -> str:
    """Write every job's input file and return a digest of the job list and inputs."""
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    for job in jobs:
        inp, _ = job.paths(workdir)
        if job.input_kind == "steps":
            sequences.write_sequence_file(inp, job.input_data)
        elif job.input_kind == "manifest":
            inp.write_text(json.dumps(job.input_data, sort_keys=True) + "\n")
        h.update(json.dumps([job.id, job.cls, job.key, job.kind, job.argv]).encode())
        if job.input_kind != "none":
            h.update(inp.read_bytes())
    return h.hexdigest()
