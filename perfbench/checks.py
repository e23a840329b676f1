"""Output checks: every job's output against the stored reference, plus
invariants that need no reference.

Strictness follows what rlab promises:

* bit-identical (compared through a SHA-256 of the canonical JSON) for
  integer-lattice float PMFs, rational "p/q" PMFs, `q1_profile` outputs and
  Monte Carlo `result` payloads, and exact equality for verify
  `cases_run`/`failures`;
* within `MODULAR_TOL` for modular probabilities, the agreement
  `modular_walk_pmf` documents between its two methods.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from rlab import exact

MODULAR_TOL = 1e-10
MASS_TOL = 1e-12
ENGINE_TOL = 1e-15


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def reference_value(kind: str, output):
    """The part of a job's output that is compared with the reference."""
    if kind in ("dist", "dist_exact", "mc"):
        return digest(output["result"])
    if kind == "q1_profile":
        return digest(output)
    if kind == "verify":
        return {"cases_run": output["result"]["cases_run"],
                "failures": output["result"]["failures"]}
    if kind == "modular":
        result = output["result"]
        return [result["compared_value"], result["params"]["cosine_bound"]]
    raise ValueError(f"unknown job kind {kind!r}")


def matches_reference(kind: str, ref, value) -> bool:
    if kind == "modular":
        return len(ref) == len(value) and all(
            abs(a - b) <= MODULAR_TOL for a, b in zip(ref, value))
    return ref == value


def invariant_problems(job, output) -> list[str]:
    """Checks that hold for any correct output, independent of the references."""
    if job.kind == "dist":
        probs = output["result"]["probs"]
        support = output["result"]["support"]
        problems = _mass_problems(math.fsum(probs))
        if len(support) != len(probs) or any(b <= a for a, b in zip(support, support[1:])):
            problems.append("support is not strictly increasing or mismatches probs")
        return problems
    if job.kind == "dist_exact":
        return _rational_problems(job.input_data, output["result"])
    if job.kind == "q1_profile":
        if len(output) != len(job.input_data):
            return [f"profile has {len(output)} values for {len(job.input_data)} steps"]
        if not all(0.0 < q <= 1.0 for q in output):
            return ["profile value outside (0, 1]"]
        if any(b > a for a, b in zip(output, output[1:])):
            return ["max point mass increased along the prefix"]
        return []
    if job.kind == "verify":
        result = output["result"]
        return [] if result["cases_run"] > 0 and not result["failures"] else [
            f"verify ran {result['cases_run']} cases with failures {result['failures'][:2]}"]
    if job.kind == "modular":
        result = output["result"]
        m = result["params"]["m"]
        mx, cos = result["compared_value"], result["params"]["cosine_bound"]
        problems = []
        if not result["satisfied"]:
            problems.append("modular-elo bound reported unsatisfied")
        if not (1.0 / m - MASS_TOL <= mx <= cos + MODULAR_TOL):
            problems.append(f"max residue {mx} outside [1/m, cosine bound {cos}]")
        return problems
    if job.kind == "mc":
        return _mc_problems(job.input_data, output["result"])
    raise ValueError(f"unknown job kind {job.kind!r}")


def _mass_problems(total) -> list[str]:
    return [] if abs(total - 1.0) <= MASS_TOL else [f"total mass {total} is not 1"]


def _rational_problems(steps, result) -> list[str]:
    fracs = [Fraction(p) for p in result["probs"]]
    problems = _mass_problems(float(sum(fracs)))
    floats = exact.walk_pmf(steps)
    if [int(v) for v in floats.support] != result["support"]:
        return problems + ["float and rational engines disagree on the support"]
    worst = max(abs(float(f) - float(p)) for f, p in zip(fracs, floats.probs))
    if worst > ENGINE_TOL:
        problems.append(f"float and rational engines differ by {worst}")
    return problems


def _mc_problems(manifest, result) -> list[str]:
    exp = manifest["experiment"]
    reps = manifest["replicates"]
    if exp == "interval_hits":
        bad = [k for k, ev in result["per_event"].items()
               if not (0 <= ev["hits"] <= reps
                       and ev["wilson_lo"] <= ev["p_hat"] <= ev["wilson_hi"])]
        return [f"events {bad} have inconsistent hit statistics"] if bad else []
    if exp == "q1_estimate":
        return [] if 0.0 < result["q1_hat"] <= 1.0 else ["q1_hat outside (0, 1]"]
    if exp == "embed2d":
        return ([] if result["fidelity_mismatches"] == 0
                else [f"{result['fidelity_mismatches']} traces lost zeros in the embedding"])
    if exp == "coupling":
        return ([] if result["final_gap_in_range"] == reps
                else [f"{reps - result['final_gap_in_range']} coupling runs ended off target"])
    raise ValueError(f"unknown experiment {exp!r}")


def check_output(job, output, refs: dict) -> list[str]:
    """All problems with one job's output; empty when the output is correct."""
    problems = invariant_problems(job, output)
    if job.key not in refs:
        return problems + [f"no stored reference for {job.key}"]
    if not matches_reference(job.kind, refs[job.key], reference_value(job.kind, output)):
        problems.append(f"output differs from the reference for {job.key}")
    return problems
