import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf

import rlab.cli
from rlab import mc
from rlab.errors import ConfigurationError, DomainError, InfeasibleError
from rlab.mc import (EXPERIMENTS, EventStats, McRunManifest, RecurrenceStats,
                     _SequenceView, _narrow_walk_steps, block_pair_trace, embed_2d, estimate_interval_hits, estimate_q1,
                     fit_exponent, kochen_stone_estimate, replay_final_gap,
                     run_experiment, simulate_coupling, simulate_walk)
from rlab.sequences import StepSequenceSpec, generate, recurrence_event_window
from rlab.streams import SubstreamSampler, substream, wilson_interval


def manifest(replicates=100, horizon=10, family="sqrt_block", seed=42,
             experiment="interval_hits", **spec_kw):
    return McRunManifest(master_seed=seed, replicates=replicates, horizon=horizon,
                         spec=StepSequenceSpec(family=family, **spec_kw),
                         experiment=experiment)


class TestSimulateWalk:
    def test_deterministic(self):
        man = manifest()
        assert np.array_equal(simulate_walk(man, 3), simulate_walk(man, 3))

    def test_starts_at_zero_with_exact_increments(self):
        man = manifest(horizon=50)
        steps = generate(man.spec, 50)
        trace = simulate_walk(man, 11)
        assert trace[0] == 0
        inc = np.abs(np.diff(trace))
        assert np.array_equal(inc, np.asarray(steps))

    def test_zero_steps_stay_at_zero(self):
        man = manifest(family="custom", custom_values=(0, 0, 0), horizon=3)
        assert simulate_walk(man, 0).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("family,spec_kw,kind", [
        ("sqrt_block", {}, "i"),
        ("power", {"alpha": 2}, "i"),
        ("power", {"alpha": 0.5}, "f"),
        ("power", {"alpha": 0.5, "floor_values": True}, "i"),
        ("log_power", {"alpha": 1.5}, "f"),
        ("constant", {"alpha": 2.5}, "f"),
        ("custom", {"custom_values": (1, 2.5, 3)}, "f"),
        # the values the horizon reaches decide, not the whole list
        ("custom", {"custom_values": (1, 2, 3, 0.5)}, "i"),
    ], ids=["sqrt_block", "power_int", "power_real", "power_floor", "log_power",
            "constant_real", "custom_real", "custom_int_prefix"])
    def test_trace_dtype_follows_the_steps(self, family, spec_kw, kind):
        man = manifest(horizon=3, family=family, **spec_kw)
        assert simulate_walk(man, 0).dtype.kind == kind

    def test_integer_positions_beyond_int64_infeasible(self):
        man = manifest(horizon=2, family="custom", custom_values=(2**61, 2**61))
        with pytest.raises(InfeasibleError, match="overflow 64-bit"):
            simulate_walk(man, 0)

    def test_replicate_out_of_range(self):
        with pytest.raises(ConfigurationError):
            simulate_walk(manifest(replicates=5), 5)

    def test_horizon_beyond_sequence(self):
        man = manifest(family="custom", custom_values=(1, 2), horizon=5)
        with pytest.raises(ConfigurationError):
            simulate_walk(man, 0)

    def test_return_fraction_at_million_replicates(self):
        # fraction of replicates with X_2 = 0 for steps (1, 1)
        man = manifest(replicates=1_000_000, horizon=2, family="custom",
                       custom_values=(1, 1), seed=971)
        stats = estimate_interval_hits(man, 0, [(2, 2)])
        sigma = math.sqrt(0.5 * 0.5 / man.replicates)
        assert abs(stats.per_event[1].p_hat - 0.5) <= 3 * sigma


class TestIntervalHits:
    def test_small_window_exact_eighth(self):
        # exhaustive oracle over the 2^4 sign vectors of the first four steps
        steps = np.asarray(generate(StepSequenceSpec("sqrt_block"), 4))
        hits = 0
        for mask in range(16):
            signs = np.array([1 if mask >> i & 1 else -1 for i in range(4)])
            hits += bool(np.any(np.cumsum(signs * steps) == 0))
        exact = hits / 16.0
        assert exact == 0.125
        man = manifest(replicates=20_000, horizon=4, seed=2024)
        stats = estimate_interval_hits(man, 0, [(1, 4)])
        p = stats.per_event[1].p_hat
        sigma = math.sqrt(exact * (1 - exact) / man.replicates)
        assert abs(p - exact) <= 4 * sigma
        assert stats.per_event[1].wilson_lo <= p <= stats.per_event[1].wilson_hi

    def test_generous_band_always_hits(self):
        man = manifest(replicates=500, horizon=10)
        total = sum(generate(man.spec, 10))
        stats = estimate_interval_hits(man, total, [(1, 10)])
        assert stats.per_event[1].p_hat == 1.0

    def test_parity_freeze_never_hits(self):
        # one odd step then even steps: the walk is odd forever, so it
        # cannot return to zero after the first step
        man = manifest(replicates=2000, horizon=10, family="geometric",
                       growth_fn=[1.0] + [2.0] * 9)
        stats = estimate_interval_hits(man, 0, [(2, 10)])
        assert stats.per_event[1].p_hat == 0.0
        # exhaustive cross-check over all 2^10 sign vectors
        steps = np.asarray(generate(man.spec, 10))
        for mask in range(1 << 10):
            signs = np.array([1 if mask >> i & 1 else -1 for i in range(10)])
            assert not np.any(np.cumsum(signs * steps)[1:] == 0)

    def test_overlapping_windows_rejected(self):
        man = manifest(horizon=10)
        with pytest.raises(ConfigurationError):
            estimate_interval_hits(man, 0, [(1, 5), (5, 8)])

    def test_window_outside_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_interval_hits(manifest(horizon=10), 0, [(8, 12)])

    def test_joint_counts_bounded_by_marginals(self):
        man = manifest(replicates=3000, horizon=170, seed=9)
        wins = [recurrence_event_window(1), recurrence_event_window(2)]
        stats = estimate_interval_hits(man, 0, wins)
        j = stats.joint[(1, 2)]
        assert j <= min(stats.per_event[1].hits, stats.per_event[2].hits)

    def test_thread_count_invariance(self):
        man = manifest(replicates=5000, horizon=170, seed=31)
        wins = [recurrence_event_window(1), recurrence_event_window(2)]
        assert (estimate_interval_hits(man, 0, wins, threads=1)
                == estimate_interval_hits(man, 0, wins, threads=4))

    def test_hitting_decay_at_higher_blocks(self):
        # scaled hit rates k * p(E_k) stay within a factor 5 for k in {2,3,4}
        # (property-level check at reduced replicates)
        wins = [recurrence_event_window(k) for k in (2, 3, 4)]
        man = manifest(replicates=20_000, horizon=wins[-1][1], seed=77)
        stats = estimate_interval_hits(man, 0, wins)
        scaled = [(k + 1) * stats.per_event[k].p_hat for k in (1, 2, 3)]
        assert all(stats.per_event[k].p_hat > 0 for k in (1, 2, 3))
        assert max(scaled) / min(scaled) <= 5.0


class TestSamplerAgainstFreshStreams:
    """The estimators draw signs with one rewinding sampler on the calling
    thread; their counts equal those taken from `simulate_walk`, which keys a
    fresh stream per replicate. 4,100 replicates fit in one block of the
    default size; `TestSamplerAcrossBlockSeams` reruns these cases on small
    blocks."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_interval_hits(self, threads):
        man = manifest(replicates=4100, horizon=40, seed=17)
        windows = [(1, 4), (5, 9), (10, 40)]
        traces = [simulate_walk(man, rep) for rep in range(man.replicates)]
        hits = np.array([[np.any(np.abs(t[s:e + 1]) <= 1) for s, e in windows]
                         for t in traces])
        stats = estimate_interval_hits(man, 1, windows, threads=threads)
        assert [stats.per_event[j].hits for j in (1, 2, 3)] == hits.sum(axis=0).tolist()
        assert stats.joint == {(j + 1, k + 1): int(np.sum(hits[:, j] & hits[:, k]))
                               for j in range(3) for k in range(j + 1, 3)}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_interval_hits_real_steps(self, threads):
        # steps n**0.5 are not dyadic: the chunked in-place cumulative sum must
        # add in the same order as simulate_walk for the hits to agree
        man = manifest(replicates=4100, horizon=40, seed=19, family="power", alpha=0.5)
        windows = [(1, 6), (7, 15), (16, 40)]
        C = 1.5
        traces = [simulate_walk(man, rep) for rep in range(man.replicates)]
        assert traces[0].dtype == np.float64
        hits = np.array([[np.any(np.abs(t[s:e + 1]) <= C) for s, e in windows]
                         for t in traces])
        R = man.replicates
        want = RecurrenceStats(
            {j + 1: EventStats(int(h), R, int(h) / R, *wilson_interval(int(h), R))
             for j, h in enumerate(hits.sum(axis=0))},
            {(j + 1, k + 1): int(np.sum(hits[:, j] & hits[:, k]))
             for j in range(3) for k in range(j + 1, 3)},
            R)
        assert estimate_interval_hits(man, C, windows, threads=threads) == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec_kw", [
        {"family": "sqrt_block"},
        # dyadic steps: every partial sum is exact in either summation order
        {"family": "custom", "custom_values": (0.25, 0.5, 0.375, 1.125, 0.0625, 2.5)},
    ], ids=["integer", "real"])
    def test_q1(self, threads, spec_kw):
        n = 6
        man = manifest(replicates=4100, horizon=n, seed=18, experiment="q1_estimate",
                       **spec_kw)
        ends = np.array([simulate_walk(man, rep)[n] for rep in range(man.replicates)])
        if ends.dtype.kind == "i":
            peak = np.unique(ends, return_counts=True)[1].max()
        else:  # the most values in 16 consecutive 1/16-cells
            cells = np.floor(ends * 16).astype(np.int64)
            peak = max(np.count_nonzero((cells >= c) & (cells <= c + 15))
                       for c in np.unique(cells))
        est = estimate_q1(man, n, threads=threads)
        assert est.q1_hat == peak / man.replicates


class TestSamplerAcrossBlockSeams(TestSamplerAgainstFreshStreams):
    """The oracle cases above on blocks of 1,000 sign entries, so their 4,100
    replicates span 25 (n = 6) to 164 (horizon 40) blocks. Three usable CPUs
    let three threads run two workers on any machine."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 1000)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_interval_hits(self, threads):
        super().test_interval_hits(threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_interval_hits_real_steps(self, threads):
        super().test_interval_hits_real_steps(threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("spec_kw", [
        {"family": "sqrt_block"},
        {"family": "custom", "custom_values": (0.25, 0.5, 0.375, 1.125, 0.0625, 2.5)},
    ], ids=["integer", "real"])
    def test_q1(self, threads, spec_kw):
        super().test_q1(threads, spec_kw)


def result_digest(result: dict) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


class RecordingPool:
    """Stands in for `mc.ThreadPoolExecutor`: runs each task as it is
    submitted, on the calling thread, and records the worker count and the
    most tasks submitted and not yet collected."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = self.peak = 0
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        value = fn(*args)
        pool = self

        class Done:
            def result(self):
                pool.in_flight -= 1
                return value
        return Done()


class TestBlockMap:
    """`_map_blocks`: the calling thread draws, at most `threads - 1` workers
    compute, at most `threads` blocks are in flight, and both are capped at
    the usable CPUs."""

    HITS = {"master_seed": 21, "replicates": 3000, "horizon": 170,
            "spec": {"family": "sqrt_block"}, "experiment": "interval_hits",
            "params": {"block_ks": [1, 2]}}

    @pytest.mark.parametrize("threads, cpus, workers", [
        (8, 2, 1), (3, 2, 1), (2, 16, 1), (3, 16, 2), (8, 16, 7), (8, 1, None)])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, tmp_path, threads, cpus,
                                        workers):
        monkeypatch.setattr(mc, "_BLOCK", 10_000)  # 58 replicates, 52 blocks
        want = result_digest(run_experiment(McRunManifest.from_dict(self.HITS)))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "made", [])
        path, out = tmp_path / "run.json", tmp_path / "report.json"
        path.write_text(json.dumps(self.HITS))
        assert rlab.cli.main(["mc", "--manifest", str(path), "--out", str(out),
                              "--threads", str(threads)]) == 0
        report = json.loads(out.read_text())
        assert report["manifest"]["inputs"]["threads"] == threads
        assert result_digest(report["result"]) == want
        if workers is None:
            assert RecordingPool.made == []
        else:
            [pool] = RecordingPool.made
            assert (pool.max_workers, pool.peak, pool.in_flight) == (workers, workers + 1, 0)

    @pytest.mark.parametrize("block, rows, threads", [
        (5, 1, 1), (5, 1, 3), (1000, 25, 2), (1000, 25, 3)])
    def test_blocks_in_replicate_order(self, monkeypatch, block, rows, threads):
        # a block smaller than one row holds one replicate; its signs are an
        # int32 view over the words drawn for it, even where an odd size
        # leaves each row's last half unused
        monkeypatch.setattr(mc, "_BLOCK", block)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        man = manifest(replicates=250, horizon=40, seed=4)
        drawn = []

        class KeepingSampler(SubstreamSampler):
            def words(self, *args):
                drawn.append(super().words(*args))
                return drawn[-1]

        def worker(signs):
            owners = [i for i, words in enumerate(drawn) if np.shares_memory(signs, words)]
            return signs.dtype, owners, signs.copy()

        monkeypatch.setattr(mc, "SubstreamSampler", KeepingSampler)
        for size in (40, 39):
            drawn.clear()
            dtypes, owners, blocks = zip(*mc._map_blocks(man, worker, size, threads))
            assert set(dtypes) == {np.dtype(np.int32)}
            assert list(owners) == [[i] for i in range(250 // rows)]
            assert len(drawn) == len(blocks)
            assert [b.shape for b in blocks] == [(rows, size)] * (250 // rows)
            assert np.array_equal(np.concatenate(blocks).reshape(-1),
                                  SubstreamSampler().signs(4, range(250), size))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_windows_draw_no_signs(self, monkeypatch, threads):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        result = run_experiment(McRunManifest.from_dict(
            {**self.HITS, "params": {"windows": []}}), threads=threads)
        assert (result["per_event"], result["joint"], result["kochen_stone"]) == ({}, {}, {})

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert mc._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert mc._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc._usable_cpus() == 1

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_worker_error_stops_the_draw(self, monkeypatch, threads):
        monkeypatch.setattr(mc, "_BLOCK", 10_000)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        drawn, blocks = [], []

        class CountingSampler(SubstreamSampler):
            def words(self, *args):
                drawn.append(args[1])
                blocks.append(super().words(*args))
                return blocks[-1]

        def failing(words, size):
            if len(blocks) > 2 and words is blocks[2]:
                raise ArithmeticError("block 3")
            return int32_signs(words, size)

        int32_signs = mc._int32_signs
        monkeypatch.setattr(mc, "SubstreamSampler", CountingSampler)
        monkeypatch.setattr(mc, "_int32_signs", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="block 3"):
            run_experiment(McRunManifest.from_dict(self.HITS), threads=threads)
        assert threading.active_count() == before
        # the third block's error is raised when it is collected, which is
        # before the draw of the block `threads` places after it
        assert len(drawn) == 2 + threads
        assert [r.start for r in drawn] == [58 * i for i in range(len(drawn))]


class TestPinnedBlockResults:
    """sha256 of the `result` of q1 and float-C interval_hits runs on
    real-valued `power` steps, captured before the draw moved to the calling
    thread. Real-step q1 sums through BLAS `@`, and each spec spans two to
    five default-size blocks."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("experiment, alpha, n, replicates, seed, digest", [
        ("q1_estimate", 0.5, 2000, 5000, 1801,
         "7e5376efb99fb9b3598fae58f9a34d78be3c610a2efb646bd7031a547560b409"),
        ("q1_estimate", 0.7, 300, 9000, 1802,
         "4b9923885aa1cf5eba23a0a125e298460b99ab10217b3f544bd171ee170a00a1"),
        ("q1_estimate", 0.5, 41, 70000, 1803,
         "6a954f05c005365b6d8c7400237b7272aa96e618781a7391995cd57bdef6af9c"),
        ("interval_hits", 0.5, 2000, 5000, 1801,
         "8d3887fe259259a48e0b4e37bcff90ab7d080c855399a40a7af1369df427bba1"),
        ("interval_hits", 0.7, 300, 9000, 1802,
         "7070e51793ba0e0dbf906d1d9be50fdf6d1ba977bcf1735c4f6381295d37892e"),
        ("interval_hits", 0.5, 41, 70000, 1803,
         "772240a0e717394c4ce4ff74170d9467178bd7c165cf9acb155e83ec272e94ed"),
    ], ids=["q1_2000", "q1_300", "q1_41", "hits_2000", "hits_300", "hits_41"])
    def test_result_pinned(self, monkeypatch, threads, experiment, alpha, n,
                           replicates, seed, digest):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        q = n // 4
        params = ({"n": n} if experiment == "q1_estimate" else
                  {"C": 2.5, "windows": [[1, q], [q + 1, 2 * q], [2 * q + 1, n]]})
        result = run_experiment(McRunManifest.from_dict({
            "master_seed": seed, "replicates": replicates, "horizon": n,
            "spec": {"family": "power", "alpha": alpha}, "experiment": experiment,
            "params": params}), threads=threads)
        assert result_digest(result) == digest


class TestBlockMemory:
    """Peak traced allocation of a run with two usable CPUs. Before blocks,
    two threads each held a 2,048-row chunk: 64.4 MB (interval_hits) and
    52.1 MB (q1) on these runs. With an int8 sign matrix and a walk matrix
    beside each block's words they read 28.9 and 19.0 MB. Walking in the
    words, both read 16.8 MB, the raw words of two blocks in flight (8.4 MB
    each); the limits leave 2.2 MB over that. embed2d at k = 3 adds its
    workers' pair-matrix passes: 25.5 MB, against 47.0 MB when each block's
    pairs went through Python lists and `embed_2d` row by row."""

    @pytest.mark.parametrize("manifest_body, limit_mb", [
        ({"master_seed": 3, "replicates": 4096, "horizon": 2730,
          "spec": {"family": "sqrt_block"}, "experiment": "interval_hits",
          "params": {"block_ks": [1, 2, 3]}}, 19),
        ({"master_seed": 3, "replicates": 4000, "horizon": 2600,
          "spec": {"family": "sqrt_block"}, "experiment": "q1_estimate",
          "params": {"n": 2600}}, 19),
        ({"master_seed": 3, "replicates": 4000, "horizon": 2730,
          "spec": {"family": "sqrt_block"}, "experiment": "embed2d",
          "params": {"k": 3}}, 28),
    ], ids=["interval_hits", "q1", "embed2d"])
    def test_peak_bounded(self, monkeypatch, manifest_body, limit_mb):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        man = McRunManifest.from_dict(manifest_body)

        def peak(threads):
            tracemalloc.start()
            try:
                run_experiment(man, threads=threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two = peak(2)
        assert two <= limit_mb * 1e6
        # one block's raw words: two signs in each 8-byte word
        assert peak(8) <= two + 4 * mc._BLOCK


class TestNarrowIntegerWalk:
    """Integer walks test |x| <= C as x + c <= 2c unsigned, with c = floor(C)
    clamped to the step sum S up to the last window end, in int32 while
    S + c < 2**31 and in int64 past it. The oracle is `simulate_walk`'s int64
    trace with `np.abs(x) <= C`."""

    WINDOWS = [(1, 3), (4, 5), (6, 8)]

    @staticmethod
    def edge_manifest(total):
        # big steps B, B cancel half the time; d pads the sum of the first eight
        # steps to `total`, and the ninth step lies past the last window end
        B = total // 2 - 8
        d = total - 2 * B - 7
        values = (1, 2, 1, B, B, 2, 1, d, 2**40)
        assert sum(values[:8]) == total
        return manifest(replicates=2000, horizon=9, seed=5, family="custom",
                        custom_values=values)

    @pytest.mark.parametrize("edge, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)],
                             ids=["int32", "int64"])
    @pytest.mark.parametrize("C", [0, 0.5, 2.7, "S"])
    def test_guard_edge_matches_int64_oracle(self, monkeypatch, edge, dtype, C):
        # six blocks of 375 rows, the last short, walked in their words
        # (int32) or in a fresh array beside them (int64)
        monkeypatch.setattr(mc, "_BLOCK", 3000)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        if C == "S":  # every position hits; S + c = 2S, the even sum at the edge
            C = edge // 2
            man = self.edge_manifest(C)
        else:
            man = self.edge_manifest(edge - math.floor(C))
        steps = np.asarray(man.spec.custom_values[:8], dtype=np.int64)
        narrowed, c = _narrow_walk_steps(steps, C)
        S = int(steps.sum())
        assert narrowed.dtype == dtype and c == math.floor(C)
        assert S + c == (2 * (edge // 2) if C == S else edge)
        traces = [simulate_walk(man, rep) for rep in range(man.replicates)]
        assert traces[0].dtype == np.int64
        hits = np.array([[np.any(np.abs(t[s:e + 1]) <= C) for s, e in self.WINDOWS]
                         for t in traces])
        if C == S:
            assert hits.all()
        else:
            assert 0 < hits.sum() < hits.size
        for threads in (1, 2, 3):
            stats = estimate_interval_hits(man, C, self.WINDOWS, threads=threads)
            assert [stats.per_event[j].hits for j in (1, 2, 3)] == hits.sum(axis=0).tolist()
            assert stats.joint == {(j + 1, k + 1): int(np.sum(hits[:, j] & hits[:, k]))
                                   for j in range(3) for k in range(j + 1, 3)}

    def test_clamped_threshold_stays_narrow(self):
        steps = np.array([3, 5, 2**29], dtype=np.int64)
        for C in (2**29 + 8, 10.0**300, 2**70):
            narrowed, c = _narrow_walk_steps(steps, C)
            assert (narrowed.dtype, c) == (np.int32, 2**29 + 8)

    @pytest.mark.parametrize("C, hits", [(2**53, 0), (2.0**53, 0), (2.0**53 + 2, 50),
                                         (2**53 + 1, 50)])
    def test_float_threshold_exact_on_large_walks(self, C, hits):
        # 2**53 + 1 has no float64; comparing the walk to a float C in float64
        # once rounded it down to 2**53 <= C, a hit at every replicate
        man = manifest(replicates=50, horizon=1, family="custom",
                       custom_values=(2**53 + 1,))
        assert estimate_interval_hits(man, C, [(1, 1)]).per_event[1].hits == hits

    @pytest.mark.parametrize("threads", [1, 3])
    def test_real_steps_unchanged(self, threads):
        # counts pinned from the float64 walk before integer walks were narrowed
        man = manifest(replicates=3000, horizon=60, seed=23, family="power", alpha=0.5)
        stats = estimate_interval_hits(man, 1.5, [(2, 8), (9, 20), (30, 50)],
                                       threads=threads)
        assert [stats.per_event[j].hits for j in (1, 2, 3)] == [2658, 1860, 952]
        assert stats.joint == {(1, 2): 1697, (1, 3): 838, (2, 3): 622}


class TestEstimateQ1:
    def test_two_unit_steps(self):
        man = manifest(replicates=100_000, horizon=2, family="custom",
                       custom_values=(1, 1), seed=5, experiment="q1_estimate")
        est = estimate_q1(man, 2)
        assert abs(est.q1_hat - 0.5) <= 4 * math.sqrt(0.25 / man.replicates)

    def test_unit_walk_hundred_steps(self):
        man = manifest(replicates=1_000_000, horizon=100, family="constant",
                       alpha=1, seed=6, experiment="q1_estimate")
        est = estimate_q1(man, 100)
        exact = 0.07958923738717877  # central binomial mass at the origin
        assert abs(est.q1_hat - exact) <= 3 * est.stderr

    def test_single_step(self):
        man = manifest(replicates=40_000, horizon=1, family="constant", alpha=1,
                       seed=7, experiment="q1_estimate")
        est = estimate_q1(man, 1)
        assert 0.5 <= est.q1_hat <= 0.5 + 5 * math.sqrt(0.25 / man.replicates)

    def test_real_steps_sliding_grid(self):
        man = manifest(replicates=20_000, horizon=2, family="custom",
                       custom_values=(0.25, 0.5), seed=8, experiment="q1_estimate")
        est = estimate_q1(man, 2)
        assert abs(est.q1_hat - 0.5) <= 0.05

    def test_low_sample_flag(self):
        man = manifest(replicates=50, horizon=4, seed=9, experiment="q1_estimate")
        assert estimate_q1(man, 4).low_sample

    def test_threads_invariant(self):
        man = manifest(replicates=30_000, horizon=8, seed=10,
                       experiment="q1_estimate")
        assert estimate_q1(man, 8, threads=1) == estimate_q1(man, 8, threads=3)


class TestEmbed2d:
    def test_listed_path(self):
        k = 1
        big = 2 ** (2 * k + 1)
        trace = [0, big, big + 2, big]
        emb = embed_2d(trace, k)
        assert emb.path == [(0, 0), (1, 0), (1, 1), (1, 0)]
        assert emb.line == (big, 2, 0)

    def test_empty_increments(self):
        assert embed_2d([0], 1).visits_to_line == 1
        assert embed_2d([4], 1).visits_to_line == 0

    def test_bad_increment_named(self):
        with pytest.raises(DomainError, match="pair-step 2"):
            embed_2d([0, 8, 11], 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_visits_equal_zero_recount(self, k):
        man = manifest(replicates=200, horizon=recurrence_event_window(k)[1],
                       seed=123 + k)
        steps = np.asarray(generate(man.spec, man.horizon), dtype=np.int64)
        for rep in range(man.replicates):
            trace = block_pair_trace(man, rep, k, steps=steps)
            emb = embed_2d(trace, k)
            assert emb.visits_to_line == int(np.count_nonzero(trace == 0))
            diffs = np.diff([p[0] + 1j * p[1] for p in emb.path])
            assert np.all(np.abs(diffs) == 1)


def embed2d_oracle(man, k):
    """embed2d's result by one `block_pair_trace` per replicate over
    `simulate_walk`, each on the whole horizon."""
    steps = mc._steps_array(man)
    visits = mismatches = 0
    for rep in range(man.replicates):
        trace = block_pair_trace(man, rep, k, steps=steps)
        emb = embed_2d(trace, k)
        visits += emb.visits_to_line
        mismatches += emb.visits_to_line != int(np.count_nonzero(trace == 0))
    return {"kind": "mc_embed2d", "k": k, "traces": man.replicates,
            "fidelity_mismatches": mismatches, "mean_visits": visits / man.replicates}


class TestEmbed2dBlocks:
    """`run_experiment`'s embed2d walks blocks of replicates up to the block
    end; the per-replicate loop above is its oracle. The horizon runs past
    the last block end, so the walks stop early. Blocks of 1,000 sign
    entries split the replicates into 3 (k = 1), 50 (k = 2) and 120 (k = 3)
    blocks."""

    HORIZON = 2745

    @staticmethod
    def embed_manifest(k, replicates=120, horizon=HORIZON, seed=None, **spec):
        return McRunManifest.from_dict({
            "master_seed": 300 + k if seed is None else seed, "replicates": replicates,
            "horizon": horizon, "spec": spec or {"family": "sqrt_block"},
            "experiment": "embed2d", "params": {"k": k}})

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)

    @pytest.mark.parametrize("block", [mc._BLOCK, 1000], ids=["default", "small"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("k, replicates", [(1, 300), (2, 250), (3, 120)])
    def test_matches_per_replicate_oracle(self, monkeypatch, k, replicates, threads,
                                          block):
        monkeypatch.setattr(mc, "_BLOCK", block)
        man = self.embed_manifest(k, replicates)
        result = run_experiment(man, threads=threads)
        del result["mc_manifest"], result["generator"]
        assert result == embed2d_oracle(man, k)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("man", [
        embed_manifest(1, family="power", alpha=0.5),
        embed_manifest(2, horizon=169),
    ], ids=["real_steps", "short_horizon"])
    def test_same_error_as_oracle(self, monkeypatch, man, threads):
        monkeypatch.setattr(mc, "_BLOCK", 1000)
        k = man.params["k"]
        with pytest.raises((DomainError, ConfigurationError)) as want:
            embed2d_oracle(man, k)
        with pytest.raises(want.type) as got:
            run_experiment(man, threads=threads)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("block", [1000, 20])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_bad_row_names_its_first_bad_pair(self, monkeypatch, threads, block):
        # steps 5-8 are (6, 2, 7, 1): a pair-step of +-4 or +-6 where a pair's
        # signs differ. Replicates 0 and 1 pass, 2 fails at pair-step 3 only
        # and 4 at pair-step 2; blocks of 20 entries hold 2 replicates.
        monkeypatch.setattr(mc, "_BLOCK", block)
        man = self.embed_manifest(1, 60, 10, seed=11, family="custom",
                                  custom_values=[3, 1, 5, 3, 6, 2, 7, 1, 5, 3])
        with pytest.raises(DomainError) as got:
            run_experiment(man, threads=threads)
        with pytest.raises(DomainError) as want:
            embed2d_oracle(man, 1)
        assert str(got.value) == str(want.value) == \
            "pair-step 3: increment -6 not in {+-8, +-2}"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_draws_only_to_the_block_end(self, monkeypatch, k):
        monkeypatch.setattr(mc, "_BLOCK", 1000)
        asked = []

        class CountingSampler(SubstreamSampler):
            def words(self, master_seed, indices, size):
                asked.append((list(indices), size))
                return super().words(master_seed, indices, size)

        monkeypatch.setattr(mc, "SubstreamSampler", CountingSampler)
        run_experiment(self.embed_manifest(k, 40), threads=2)
        end = recurrence_event_window(k)[1]
        assert {size for _, size in asked} == {end}
        assert [i for indices, _ in asked for i in indices] == list(range(40))

    @pytest.mark.parametrize("huge_at, code", [(11, 0), (1, 3)],
                             ids=["past_block_end", "inside_block"])
    def test_guard_reads_only_to_the_block_end(self, tmp_path, huge_at, code):
        # block k = 1 ends at step 10; a 2**62 step past it cannot move the walk
        values = generate(StepSequenceSpec("sqrt_block"), 11)
        values[huge_at - 1] = 2 ** 62
        body = {"master_seed": 5, "replicates": 60, "horizon": 11,
                "spec": {"family": "custom", "custom_values": values},
                "experiment": "embed2d", "params": {"k": 1}}
        path, out = tmp_path / "run.json", tmp_path / "report.json"
        path.write_text(json.dumps(body))
        assert rlab.cli.main(["mc", "--manifest", str(path), "--out", str(out),
                              "--threads", "2"]) == code
        if code:
            assert not out.exists()
            return
        got = json.loads(out.read_text())["result"]
        del got["mc_manifest"], got["generator"]
        assert got == embed2d_oracle(self.embed_manifest(1, 60, 10, seed=5), 1)


class TestFitExponent:
    def test_exact_power_law(self):
        fit = fit_exponent([(n, n ** -2.0) for n in (5, 10, 20, 40)])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_exponent([(1, 1.0), (2, 0.5)])

    def test_non_positive_value(self):
        with pytest.raises(DomainError):
            fit_exponent([(1, 1.0), (2, 0.5), (3, 0.0)])


def oracle_value(spec):
    """a(n) of a power or log_power spec, written out apart from `_SequenceView`."""
    if spec.family == "power":
        return lambda n: mpf(n) ** mpf(spec.alpha)
    return lambda n: mp.log(mpf(n)) ** mpf(spec.alpha)


def oracle_first_gap_below(view, lo, half_delta):
    """Oracle: double from max(lo, gap floor) up to the horizon, then bisect."""
    a = oracle_value(view.spec)
    n = max(lo, view.gap_floor)
    if n > view.horizon:
        raise InfeasibleError("no indices left on the horizon")
    lo_b = hi = n
    while a(hi) - a(hi - 1) >= half_delta:
        if hi >= view.horizon:
            raise InfeasibleError(
                f"gap threshold {float(half_delta)} unreachable within horizon")
        lo_b, hi = hi, min(2 * hi, view.horizon)
    while hi - lo_b > 1:
        mid = (lo_b + hi) // 2
        if a(mid) - a(mid - 1) < half_delta:
            hi = mid
        else:
            lo_b = mid
    return hi


def oracle_first_value_at_least(view, after, target):
    """Oracle: probe after + 1 and the horizon, double, then bisect."""
    a = oracle_value(view.spec)
    if after < view.horizon and a(after + 1) >= target:
        return after + 1
    if after >= view.horizon or a(view.horizon) < target:
        raise InfeasibleError(f"steps on the horizon never reach value {float(target)}")
    lo, hi = after + 1, 2 * (after + 1)
    while hi < view.horizon and a(hi) < target:
        lo, hi = hi, hi * 2
    hi = min(hi, view.horizon)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def oracle_custom_gap_below(spec, horizon, lo, half_delta):
    """Oracle: the first n from max(lo, 2) whose gap and every later one,
    to the end of the sequence, are below half_delta."""
    values = spec.custom_values
    for n in range(max(lo, 2), horizon + 1):
        if all(abs(b - a) < half_delta for a, b in zip(values[n - 2:], values[n - 1:])):
            return n
    raise InfeasibleError(
        f"no index on the horizon has all later gaps below {float(half_delta)}")


def outcome(search, *args):
    try:
        return search(*args)
    except InfeasibleError as exc:
        return str(exc)


SEARCH_SPECS = [StepSequenceSpec("power", alpha=alpha) for alpha in (0.1, 0.5, 0.9)] + [
    StepSequenceSpec("log_power", alpha=alpha) for alpha in (1.0, 2.0)]


class TestCouplingSearchAgainstOracle:
    """Closed-form inversion against today's doubling and bisection, kept here."""

    @pytest.mark.parametrize("dps", [8, 15, 30, 60])
    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: f"{s.family}{s.alpha}")
    def test_index_for_index(self, spec, dps):
        rng = np.random.default_rng([dps, int(spec.alpha * 10)])
        with mp.workdps(dps):
            for _ in range(60):
                lo = int(10 ** rng.uniform(0, 7))
                horizon = int(lo * 10 ** rng.uniform(0, 4)) if rng.random() < 0.3 else None
                view = _SequenceView(spec, horizon)
                half_delta = mpf(10 ** rng.uniform(-6, -0.5))
                k = max(lo, view.gap_floor) + int(rng.integers(0, 100))
                after = lo + int(rng.integers(0, 3))
                target = view.a(after) + mpf(10 ** rng.uniform(-4, 3))
                # thresholds equal to a computed gap or value sit on the rounding edge
                for h in (half_delta, view.gap(k)):
                    assert (outcome(view.first_gap_below, lo, h)
                            == outcome(oracle_first_gap_below, view, lo, h))
                for t in (target, view.a(after + int(rng.integers(1, 50)))):
                    assert (outcome(view.first_value_at_least, after, t)
                            == outcome(oracle_first_value_at_least, view, after, t))

    @pytest.mark.parametrize("dps", [8, 15, 30, 60])
    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: f"{s.family}{s.alpha}")
    def test_games_match(self, spec, dps, monkeypatch):
        def play():
            pairs = []
            for d in (1.3, -0.8):
                for eps in (0.1, 0.01):
                    for rep in range(6):
                        pairs.append(outcome(lambda: simulate_coupling(
                            spec, d, eps, seed=99, replicate=rep, dps=dps)))
            return pairs

        fast = play()
        monkeypatch.setattr(_SequenceView, "first_gap_below", oracle_first_gap_below)
        monkeypatch.setattr(_SequenceView, "first_value_at_least",
                            oracle_first_value_at_least)
        for got, want in zip(fast, play(), strict=True):
            assert type(got) is type(want)
            if isinstance(want, str):
                assert got == want
            else:
                assert (got.episodes_used, got.final_gap, got.anti_steps) == (
                    want.episodes_used, want.final_gap, want.anti_steps)

    def test_few_evaluations_per_power_episode(self):
        for family, alphas in (("power", (0.5, 0.6, 0.7)), ("log_power", (1.0,)),
                               ("log_power", (2.0,))):
            episodes = evaluations = 0
            for alpha in alphas:
                for eps in (0.1, 0.01):
                    for rep in range(40):
                        try:
                            pair = simulate_coupling(StepSequenceSpec(family, alpha=alpha),
                                                     1.0 + rep / 20, eps, seed=5, replicate=rep)
                        except InfeasibleError:
                            if family == "power":
                                raise
                            continue  # log_power values outgrow the default horizon
                        episodes += pair.episodes_used
                        evaluations += pair.evaluations
            assert evaluations / episodes <= 6, (family, alphas)

    def test_custom_gaps_match_linear_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            size = int(rng.integers(3, 80))
            steps = rng.exponential(size=size) * rng.random(size) ** 4
            values = np.cumsum(steps) if rng.random() < 0.7 else rng.normal(size=size)
            spec = StepSequenceSpec("custom", custom_values=tuple(values.tolist()))
            view = _SequenceView(spec, int(rng.integers(1, size)))
            gaps = np.abs(np.diff(values))
            for _ in range(6):
                lo = int(rng.integers(0, size + 2))
                # a threshold equal to a gap sits on the strict inequality
                for h in (mpf(10 ** rng.uniform(-4, 0.5)), mpf(float(rng.choice(gaps)))):
                    assert (outcome(view.first_gap_below, lo, h)
                            == outcome(oracle_custom_gap_below, spec, view.horizon, lo, h))


GAME_SPECS = [StepSequenceSpec("power", alpha=alpha) for alpha in (0.5, 0.6, 0.7)] + [
    StepSequenceSpec("log_power", alpha=alpha) for alpha in (1.0, 2.0)] + [
    StepSequenceSpec("custom", custom_values=tuple(math.sqrt(n) for n in range(1, 1501)))]


def game_fields(pair):
    """A game's outcome apart from its evaluation count, or its error text."""
    if isinstance(pair, str):
        return pair
    return (pair.episodes_used, pair.final_gap, pair.episode_wins, pair.anti_steps,
            pair.end_time)


class TestSharedView:
    """Queries and games on one reused view against a fresh view each time."""

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("horizon", [None, 10**5])
    @pytest.mark.parametrize("spec", SEARCH_SPECS, ids=lambda s: f"{s.family}{s.alpha}")
    def test_repeated_queries_match_a_fresh_view(self, spec, horizon, dps):
        rng = np.random.default_rng([dps, int(spec.alpha * 10), horizon or 0])
        with mp.workdps(dps):
            view = _SequenceView(spec, horizon)
            queries = []
            for _ in range(20):
                lo = int(10 ** rng.uniform(0, 7))
                k = max(lo, view.gap_floor) + int(rng.integers(0, 100))
                after = lo + int(rng.integers(0, 3))
                # thresholds equal to a computed gap or value sit on the rounding edge
                queries += [(lo, mpf(10 ** rng.uniform(-6, -0.5))), (lo, view.gap(k)),
                            (after, view.a(after) + mpf(10 ** rng.uniform(-4, 3))),
                            (after, view.a(after + int(rng.integers(1, 50))))]
            failed = 0
            # both queries take every argument pair, so their answers must stay apart
            for name, *args in [(name, *q) for q in queries
                                for name in ("first_gap_below", "first_value_at_least")]:
                fresh = outcome(getattr(_SequenceView(spec, horizon), name), *args)
                for _ in range(2):
                    stored = len(view._found)
                    assert outcome(getattr(view, name), *args) == fresh
                    if isinstance(fresh, str):
                        failed += 1
                        assert len(view._found) == stored  # no failure is memoised
        assert failed or horizon is None

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("spec", GAME_SPECS, ids=lambda s: f"{s.family}{s.alpha}")
    def test_shared_games_match_fresh_games(self, spec, dps):
        view = _SequenceView(spec, None)
        raised = 0
        for d, eps in ((1.0, 0.1), (-0.7, 0.05), (2.5, 0.2)):
            for rep in range(40):
                def play(**kw):
                    return outcome(lambda: simulate_coupling(
                        spec, d, eps, seed=31, replicate=rep, dps=dps, **kw))
                shared, fresh = play(view=view), play()
                assert game_fields(shared) == game_fields(fresh)
                if isinstance(fresh, str):
                    raised += 1
                else:
                    assert shared.evaluations <= fresh.evaluations
        # log_power alpha 1 outgrows the default horizon, so its errors are compared too
        assert raised or (spec.family, spec.alpha) != ("log_power", 1.0)


class TestSharedViewRuns:
    """`run_experiment` plays every replicate of a coupling run on one view;
    digests of its `result` were captured before the view was shared."""

    @pytest.mark.parametrize("family, alpha, replicates, d, eps, seed, digest", [
        ("power", 0.5, 45, 0.75, 0.1, 9400,
         "defb1d7ca00532d1f5c42c96d8001db7acf0003e99191b52c9e961bee219729d"),
        ("power", 0.5, 105, 2.75, 0.1, 9400,
         "f2ddb28a9dd14767ee10b12a81698ca1c3a42d5a89da14d65210031f239107a3"),
        ("power", 0.6, 60, 1.0, 0.1, 9400,
         "7d187b4f907d9a252a11177aee49ee985e97ac0941269047e233a64c36e0c6f0"),
        ("power", 0.6, 90, 2.0, 0.1, 9400,
         "464097ac76a42ac55be19fe7e3fe394f8177272d7882c04a309cbcb7c02ab48e"),
        ("power", 0.7, 75, 1.25, 0.1, 9400,
         "2c997d9779fc5c4db33a7271b1f68fe0f9ce36e959ca676eb374147af2e1f881"),
        ("power", 0.7, 105, 2.5, 0.1, 9400,
         "152e7912b812c7d0f67422a2c380d57b3f1ad328552a7a06af5d4d74ac8a7e1e"),
        ("log_power", 2.0, 20, 0.7, 0.2, 5,
         "0d29f1fdadeda8a84b352ce22b696ff23fe18bca0db0551353dbb2c1f97b0fdd"),
    ])
    def test_result_pinned(self, monkeypatch, family, alpha, replicates, d, eps, seed,
                           digest):
        games = []

        def recording(*args, **kwargs):
            pair = simulate_coupling(*args, **kwargs)
            games.append((args, kwargs, pair))
            return pair

        monkeypatch.setattr(mc, "simulate_coupling", recording)
        result = run_experiment(McRunManifest.from_dict({
            "master_seed": seed, "replicates": replicates, "horizon": 1,
            "spec": {"family": family, "alpha": alpha}, "experiment": "coupling",
            "params": {"d": d, "epsilon": eps}}))
        assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest
        views = {id(kwargs["view"]) for _, kwargs, _ in games}
        assert len(games) == replicates and len(views) == 1
        view = games[0][1]["view"]
        assert sum(pair.evaluations for *_, pair in games) == len(view._memo)
        for args, kwargs, pair in games:
            fresh = simulate_coupling(*args, **{**kwargs, "view": None})
            assert game_fields(pair) == game_fields(fresh)
            assert pair.evaluations <= fresh.evaluations

    def test_failing_run_message_pinned(self):
        # the first replicate to outgrow the horizon names its episode and value
        with pytest.raises(InfeasibleError) as err:
            run_experiment(McRunManifest.from_dict({
                "master_seed": 2, "replicates": 12, "horizon": 1,
                "spec": {"family": "log_power", "alpha": 1.0}, "experiment": "coupling",
                "params": {"d": 0.7, "epsilon": 0.2}}))
        assert str(err.value) == ("episode 7 (gap target delta=0.2): steps on the horizon "
                                  "never reach value 249.55510460652476")


class TestCoupling:
    SPEC = StepSequenceSpec(family="power", alpha=0.5)

    def test_zero_offset_wins_immediately(self):
        pair = simulate_coupling(self.SPEC, 0.0, 0.1, seed=1)
        assert pair.episodes_used == 0 and pair.final_gap == 0.0

    def test_positive_offset_batch(self):
        episodes = wins = 0
        for rep in range(400):
            pair = simulate_coupling(self.SPEC, 1.0, 0.1, seed=2024, replicate=rep)
            assert 0.0 <= pair.final_gap <= 0.1
            assert replay_final_gap(self.SPEC, 1.0, pair.anti_steps) == pair.final_gap
            episodes += len(pair.episode_wins)
            wins += sum(pair.episode_wins)
        rate = wins / episodes
        assert rate >= 0.25 - 3 * math.sqrt(0.25 * 0.75 / episodes)

    def test_negative_offset(self):
        pair = simulate_coupling(self.SPEC, -1.0, 0.1, seed=3)
        assert 0.0 <= pair.final_gap <= 0.1

    def test_log_power_family(self):
        pair = simulate_coupling(StepSequenceSpec(family="log_power", alpha=1.0),
                                 0.7, 0.2, seed=4)
        assert 0.0 <= pair.final_gap <= 0.2

    def test_custom_sequence_linear_scan(self):
        values = tuple(math.sqrt(n) for n in range(1, 40_000))
        spec = StepSequenceSpec(family="custom", custom_values=values)
        pair = simulate_coupling(spec, 0.5, 0.2, seed=6)
        assert 0.0 <= pair.final_gap <= 0.2

    def test_horizon_exhaustion_is_infeasible(self):
        values = tuple(math.sqrt(n) for n in range(1, 200))
        spec = StepSequenceSpec(family="custom", custom_values=values)
        with pytest.raises(InfeasibleError, match="delta"):
            simulate_coupling(spec, 200.0, 0.001, seed=7)

    @pytest.mark.parametrize("spec, half_delta", [
        (StepSequenceSpec("power", alpha=0.5), 0.05),
        (StepSequenceSpec("log_power", alpha=1.0), 0.01),
    ])
    def test_gap_search_stays_inside_the_horizon(self, spec, half_delta):
        # doubling from the gap floor passes 106 before it reaches 101
        assert _SequenceView(spec, 106).first_gap_below(1, mpf(half_delta)) == 101
        with pytest.raises(InfeasibleError, match="unreachable"):
            _SequenceView(spec, 100).first_gap_below(1, mpf(half_delta))
        # and the value search takes no step past it
        view = _SequenceView(spec, 101)
        with pytest.raises(InfeasibleError, match="never reach"):
            view.first_value_at_least(101, view.a(101) + mpf(0.01))

    def test_unit_gap_families_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_coupling(StepSequenceSpec(family="power", alpha=1.0), 1, 0.1, 8)
        with pytest.raises(ConfigurationError):
            simulate_coupling(StepSequenceSpec(family="sqrt_block"), 1, 0.1, 9)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            simulate_coupling(self.SPEC, 1.0, 0.0, seed=10)


class TestPinnedSignResults:
    """Results whose signs come from `rademacher_signs`, captured when it still
    drew them through numpy's `integers(0, 2)`."""

    def run(self, experiment, seed, replicates, horizon, spec, params):
        result = run_experiment(McRunManifest.from_dict({
            "master_seed": seed, "replicates": replicates, "horizon": horizon,
            "spec": spec, "experiment": experiment, "params": params}))
        del result["mc_manifest"], result["generator"]
        return result

    @pytest.mark.parametrize("k, replicates, result", [
        (1, 200, {"fidelity_mismatches": 0, "mean_visits": 0.295}),
        (2, 200, {"fidelity_mismatches": 0, "mean_visits": 0.66}),
    ])
    def test_embed2d(self, k, replicates, result):
        got = self.run("embed2d", 7, replicates, 170, {"family": "sqrt_block"}, {"k": k})
        assert got == {"kind": "mc_embed2d", "k": k, "traces": replicates, **result}

    def test_coupling(self):
        got = self.run("coupling", 13, 20, 1, {"family": "power", "alpha": 0.5},
                       {"d": 1.0, "epsilon": 0.1})
        assert got == {"kind": "mc_coupling", "d": 1.0, "epsilon": 0.1, "runs": 20,
                       "final_gap_in_range": 20, "episodes": 85,
                       "per_episode_win_rate": 20 / 85, "max_episodes": 11}

    @pytest.mark.parametrize("spec, d, eps, seed, rep, episodes, gap, anti", [
        (StepSequenceSpec("power", alpha=0.5), 1.0, 0.1, 2024, 0, 7, 0.09968608248794313,
         [(101, -1), (111, 1), (112, -1), (133, 1), (134, 1), (182, 1), (183, -1),
          (1639, 1), (1640, -1), (8913, 1), (8914, -1), (40899, 1), (40900, 1),
          (174623, -1)]),
        (StepSequenceSpec("power", alpha=0.5), 1.0, 0.1, 2024, 1, 3, 0.005720282005729503,
         [(101, -1), (111, -1), (112, 1), (941, -1), (942, -1), (5023, 1)]),
        (StepSequenceSpec("power", alpha=0.7), -0.8, 0.01, 99, 3, 4, 0.002347616798651577,
         [(14248205, -1), (14248286, -1), (14248287, 1), (68448576, -1),
          (68448577, 1), (229638940, -1), (229638941, -1), (682170580, 1)]),
        (StepSequenceSpec("log_power", alpha=1.0), 0.7, 0.2, 4, 0, 3, 6.067589057896457e-10,
         [(11, -1), (15, -1), (16, 1), (1861, -1), (1862, -1), (25181810, 1)]),
    ], ids=["power_rep0", "power_rep1", "power_negative", "log_power"])
    def test_anti_steps(self, spec, d, eps, seed, rep, episodes, gap, anti):
        pair = simulate_coupling(spec, d, eps, seed=seed, replicate=rep)
        assert (pair.episodes_used, pair.final_gap, pair.anti_steps) == (episodes, gap, anti)

    def test_game_signs_are_the_stream_prefix(self):
        # each anti-coupled sign is the next sign of the replicate's substream
        spec = StepSequenceSpec("power", alpha=0.6)
        for rep in range(30):
            pair = simulate_coupling(spec, 1.5, 0.05, seed=9, replicate=rep)
            signs = [s for _, s in pair.anti_steps]
            rng = substream(9, rep)
            assert signs == (rng.integers(0, 2, size=len(signs)) * 2 - 1).tolist()


def _stats(per_event, joint, replicates):
    events = {}
    for k, (hits, R) in per_event.items():
        events[k] = EventStats(hits, R, hits / R, 0.0, 1.0)
    return RecurrenceStats(events, joint, replicates)


class TestKochenStoneEstimate:
    def test_independent_events_closed_form(self):
        R, p, k = 10_000, 0.3, 4
        joint = {(i, j): int(p * p * R) for i in range(1, k + 1)
                 for j in range(i + 1, k + 1)}
        stats = _stats({i: (int(p * R), R) for i in range(1, k + 1)}, joint, R)
        est = kochen_stone_estimate(stats, k)
        want = (k * p) ** 2 / (k * p + k * (k - 1) * p * p)
        assert est["ratio"] == pytest.approx(want, rel=1e-12)

    def test_single_event(self):
        stats = _stats({1: (250, 1000)}, {}, 1000)
        assert kochen_stone_estimate(stats, 1)["ratio"] == pytest.approx(0.25)

    def test_perfectly_correlated_pair(self):
        # identical windows: Z is 0 or 2, so the ratio collapses to p
        R, hits = 1000, 300
        stats = _stats({1: (hits, R), 2: (hits, R)}, {(1, 2): hits}, R)
        assert kochen_stone_estimate(stats, 2)["ratio"] == pytest.approx(0.3)

    def test_no_events_rejected(self):
        with pytest.raises(DomainError):
            kochen_stone_estimate(_stats({2: (1, 10)}, {}, 10), 1)


class TestManifest:
    def test_roundtrip(self):
        man = manifest(replicates=7, horizon=9, experiment="q1_estimate")
        assert McRunManifest.from_dict(man.to_dict()) == man

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            manifest(experiment="bogus")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match=r"params\.eps"):
            McRunManifest(master_seed=1, replicates=5, horizon=4,
                          spec=StepSequenceSpec("power", alpha=0.5),
                          experiment="coupling", params={"d": 1.0, "eps": 0.5})

    def test_unknown_top_level_key_rejected(self):
        body = manifest(replicates=7, horizon=9).to_dict()
        body["extra"] = 1
        with pytest.raises(ConfigurationError, match="extra"):
            McRunManifest.from_dict(body)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_params_checked_when_run(self, experiment):
        # every name the experiment reads is accepted by the manifest ...
        McRunManifest(master_seed=1, replicates=5, horizon=4,
                      spec=StepSequenceSpec("sqrt_block"), experiment=experiment,
                      params=dict.fromkeys(EXPERIMENTS[experiment], "x"))
        # ... and empty params stay valid until the experiment runs
        man = manifest(replicates=5, horizon=4, experiment=experiment)
        if experiment in ("interval_hits", "q1_estimate"):
            with pytest.raises(ConfigurationError, match="params"):
                run_experiment(man)

    def test_missing_keys(self):
        with pytest.raises(ConfigurationError):
            McRunManifest.from_dict({"master_seed": 1})

    @pytest.mark.parametrize("key", ["master_seed", "replicates", "horizon"])
    @pytest.mark.parametrize("value", [1.9, 2.0, "3", True, None])
    def test_non_integer_counts_rejected(self, key, value):
        body = manifest(replicates=7, horizon=9).to_dict()
        body[key] = value
        with pytest.raises(ConfigurationError, match=key):
            McRunManifest.from_dict(body)
