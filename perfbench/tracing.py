"""Span recorder for the traced benchmark run.

`install` wraps rlab's public functions at the module attributes their
callers look up (`rlab.exact.walk_pmf`, `rlab.cli.emit_table`,
`rlab.mc.SubstreamSampler`, the entries of `rlab.verify.SUITES`, ...), so
the program itself is unchanged. Each span records its name, start, end,
parent, the phase (a setup repetition or a measured pass) and the job it
belongs to. Spans stay in memory until the run ends.

A worker thread's outermost span takes as parent the innermost open span of
the main thread, which started the worker: the benchmark runs one job at a
time, so that span is the caller.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "sequences", "exact", "bounds", "streams", "mc", "verify")
WALK_CLASSES = ("dense", "sparse", "rational")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    phase: object
    job: str | None
    job_class: str | None


class Recorder:
    """In-memory spans and counters; records only while a phase is set."""

    def __init__(self):
        self.phase = None
        self.job = None
        self.job_class = None
        self._spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self._spans)
            self._spans.append([name, 0.0, 0.0, parent, self.phase, self.job, self.job_class])
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._spans[idx][1:3] = [start, end]

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += value

    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    def write(self, path: Path) -> None:
        fields = list(Span._fields)
        path.write_text(json.dumps({"fields": fields, "spans": self._spans}, default=str))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.end - span.start - covered)
    return out


def covered_time(spans: list[Span]) -> float:
    """Length of the union of the given spans' intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for span in sorted(spans, key=lambda s: s.start):
        if cur_hi is None or span.start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = span.start, span.end
        else:
            cur_hi = max(cur_hi, span.end)
    return total if cur_hi is None else total + cur_hi - cur_lo


# --------------------------------------------------------------------------
# wrapping rlab


def _counter(name, value_fn=lambda args, kwargs, result: 1):
    def after(rec, args, kwargs, result):
        rec.count(name, value_fn(args, kwargs, result))
    return after


def _walk_counts(rec, args, kwargs, pmf):
    steps = [int(a) for a in args[0] if int(a)]
    g = math.gcd(*steps) if steps else 1
    slots = (int(pmf.support[-1]) - int(pmf.support[0])) // (2 * g) + 1
    rec.count("exact.walk_pmf.calls", 1)
    rec.count("exact.walk_pmf.atoms", len(pmf))
    rec.count("exact.walk_pmf.steps", pmf.steps_applied)
    rec.count("exact.walk_pmf.slots", slots)


def _modular_counts(rec, args, kwargs, law):
    steps, m = args[0], args[1]
    rec.count("exact.modular_walk_pmf.calls", 1)
    rec.count("exact.modular_walk_pmf.steps", len(steps))
    rec.count("exact.modular_walk_pmf.distinct_residues",
              len({int(a) % m for a in steps} - {0}))


def _coupling_counts(rec, args, kwargs, pair):
    rec.count("mc.coupling.runs", 1)
    rec.count("mc.coupling.episodes", pair.episodes_used)
    rec.count("mc.replicates", 1)


def _wrap(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.phase is None:
            return fn(*args, **kwargs)
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder):
    """Wrap rlab's public functions for `rec`; returns a function that undoes it."""
    from rlab import bounds, cli, exact, mc, sequences, verify

    replicates = _counter("mc.replicates", lambda a, k, r: a[0].replicates)
    targets = [
        (cli, "main", "cli.main", _counter("cli.main.calls")),
        (cli, "emit_table", "cli.emit_table",
         _counter("cli.report_bytes", lambda a, k, r: len(r))),
        (cli, "_atomic_write", "cli.atomic_write", None),
        (cli, "read_sequence_file", "sequences.read_sequence_file", None),
        (cli, "generate", "sequences.generate", None),
        (sequences, "read_sequence_file", "sequences.read_sequence_file", None),
        (sequences, "write_sequence_file", "sequences.write_sequence_file", None),
        (sequences, "generate", "sequences.generate", None),
        (mc, "generate", "sequences.generate", None),
        (exact, "walk_pmf", "exact.walk_pmf", _walk_counts),
        (exact, "q1_profile", "exact.q1_profile",
         _counter("exact.q1_profile.steps", lambda a, k, r: len(r))),
        (exact, "concentration_q", "exact.concentration_q", None),
        (exact, "modular_walk_pmf", "exact.modular_walk_pmf", _modular_counts),
        (bounds, "cosine_product_bound", "bounds.cosine_product_bound",
         _counter("bounds.cosine_product_bound.calls")),
        (mc, "substream", "streams.substream", _counter("streams.substream.calls")),
        (mc, "rademacher_signs", "streams.signs",
         _counter("streams.signs.count", lambda a, k, r: len(r))),
        (mc, "estimate_interval_hits", "mc.estimate_interval_hits", replicates),
        (mc, "estimate_q1", "mc.estimate_q1", replicates),
        (mc, "block_pair_trace", "mc.block_pair_trace", _counter("mc.replicates")),
        (mc, "embed_2d", "mc.embed_2d", None),
        (mc, "simulate_coupling", "mc.simulate_coupling", _coupling_counts),
        (verify, "run_suite", "verify.run_suite", None),
    ]
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in targets]
    for obj, attr, name, after in targets:
        setattr(obj, attr, _wrap(rec, name, getattr(obj, attr), after))

    base = mc.SubstreamSampler

    class TracedSampler(base):
        signs = _wrap(rec, "streams.signs", base.signs,
                      _counter("streams.signs.count", lambda a, k, r: len(r)))

    originals.append((mc, "SubstreamSampler", base))
    mc.SubstreamSampler = TracedSampler

    suites = dict(verify.SUITES)
    cases = _counter("verify.cases", lambda a, k, r: r.cases_run)
    for suite, fn in suites.items():
        verify.SUITES[suite] = _wrap(rec, f"verify.{suite}", fn, cases)

    def restore():
        for obj, attr, fn in originals:
            setattr(obj, attr, fn)
        verify.SUITES.update(suites)
    return restore


# --------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: Recorder, passes: list, setups: list, suites) -> dict:
    """Per-layer metrics from the traced passes (per pass) and setups (per setup).

    `passes` holds (phase, measured seconds) of each complete traced pass and
    `setups` the phases of the setup repetitions.
    """
    spans = rec.spans()
    selfs = self_times(spans)
    n_pass = len(passes)
    in_pass = {phase for phase, _ in passes}
    tot = defaultdict(float)      # (name, job_class) -> seconds
    own = defaultdict(float)      # name -> self seconds
    layer_self = defaultdict(float)
    setup_tot = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        if span.phase in in_pass:
            tot[(span.name, span.job_class)] += span.end - span.start
            own[span.name] += self_s
            layer_self[span.name.split(".")[0]] += self_s
        elif span.phase in setups:
            setup_tot[span.name] += span.end - span.start

    def t(name, job_class=None):
        if job_class is None:
            return sum(v for (n, _), v in tot.items() if n == name) / n_pass
        return tot[(name, job_class)] / n_pass

    def c(name):
        return sum(v for (phase, n), v in rec.counts.items()
                   if n == name and phase in in_pass) / n_pass

    walk_s = t("exact.walk_pmf")
    atoms = c("exact.walk_pmf.atoms")
    slots = c("exact.walk_pmf.slots")
    episodes = c("mc.coupling.episodes")
    coupling_s = t("mc.simulate_coupling")
    covered = covered_time([s for s in spans if s.phase in in_pass and s.parent is None])
    pass_seconds = sum(sec for _, sec in passes)

    s, n, r = "s", "count", "ratio"
    m = {
        "cli.main.calls": (c("cli.main.calls"), n),
        "cli.main.self_s": (own["cli.main"] / n_pass, s),
        "cli.emit_table.s": (t("cli.emit_table"), s),
        "cli.report_bytes": (c("cli.report_bytes"), n),
        "cli.atomic_write.s": (t("cli.atomic_write"), s),
        "sequences.generate.s": (setup_tot["sequences.generate"] / max(1, len(setups)), s),
        "sequences.write_sequence_file.s":
            (setup_tot["sequences.write_sequence_file"] / max(1, len(setups)), s),
        "sequences.read_sequence_file.s": (t("sequences.read_sequence_file"), s),
        "exact.walk_pmf.s": (walk_s, s),
        **{f"exact.walk_pmf.{wc}.s": (t("exact.walk_pmf", wc), s) for wc in WALK_CLASSES},
        "exact.walk_pmf.calls": (c("exact.walk_pmf.calls"), n),
        "exact.walk_pmf.atoms": (atoms, n),
        "exact.walk_pmf.steps": (c("exact.walk_pmf.steps"), n),
        "exact.atoms_per_s": (atoms / walk_s if walk_s else 0.0, "1/s"),
        "exact.walk_pmf.fill": (atoms / slots if slots else 0.0, r),
        "exact.q1_profile.s": (t("exact.q1_profile"), s),
        "exact.q1_profile.steps": (c("exact.q1_profile.steps"), n),
        "exact.concentration_q.s": (t("exact.concentration_q"), s),
        "exact.modular_walk_pmf.s": (t("exact.modular_walk_pmf"), s),
        "exact.modular_walk_pmf.calls": (c("exact.modular_walk_pmf.calls"), n),
        "exact.modular_walk_pmf.steps": (c("exact.modular_walk_pmf.steps"), n),
        "exact.modular_walk_pmf.distinct_residues":
            (c("exact.modular_walk_pmf.distinct_residues"), n),
        "bounds.cosine_product_bound.s": (t("bounds.cosine_product_bound"), s),
        "bounds.cosine_product_bound.calls": (c("bounds.cosine_product_bound.calls"), n),
        "streams.signs.s": (t("streams.signs"), s),
        "streams.signs.count": (c("streams.signs.count"), n),
        "streams.substream.calls": (c("streams.substream.calls"), n),
        "mc.estimate_interval_hits.s": (t("mc.estimate_interval_hits"), s),
        "mc.estimate_interval_hits.self_s": (own["mc.estimate_interval_hits"] / n_pass, s),
        "mc.estimate_q1.s": (t("mc.estimate_q1"), s),
        "mc.embed.s": (t("mc.block_pair_trace") + t("mc.embed_2d"), s),
        "mc.replicates": (c("mc.replicates"), n),
        "mc.simulate_coupling.s": (coupling_s, s),
        "mc.coupling.runs": (c("mc.coupling.runs"), n),
        "mc.coupling.episodes": (episodes, n),
        "mc.coupling.s_per_episode": (coupling_s / episodes if episodes else 0.0, s),
        **{f"verify.{suite}.s": (t(f"verify.{suite}"), s) for suite in suites},
        "verify.cases": (c("verify.cases"), n),
        "verify.run_suite.self_s": (own["verify.run_suite"] / n_pass, s),
        **{f"{layer}.self_s": (layer_self[layer] / n_pass, s) for layer in LAYERS},
        "trace.covered_share": (covered / pass_seconds, r),
        "trace.spans": (sum(1 for sp in spans if sp.phase in in_pass) / n_pass, n),
    }
    return m
