"""Start-up: each command imports only the layers it runs, and the package
still exports every name it did when `import rlab` loaded all of them.

The cold-start cases each run in a fresh interpreter, since this test
session has long since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rlab
import rlab.bounds
import rlab.cli
import rlab.verify

SRC = Path(rlab.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench" / "run.py"

# every name the package exported when `import rlab` imported each engine,
# by defining module, in that import order
EXPORTED = {
    "errors": ["ConfigurationError", "DomainError", "InfeasibleError", "RlabError"],
    "sequences": ["SequenceCounts", "StepSequenceSpec", "check_ints_conditions",
                  "check_sparse_conditions", "generate", "log_power_counts",
                  "log_power_ratio_bounds", "log_power_ratio_window",
                  "recurrence_event_window", "sqrt_block_start", "sqrt_block_window",
                  "value_counts"],
    "exact": ["ConcentrationQuery", "ExactPMF", "ModularPMF", "SummaryMoments",
              "abs_tail_prob", "concentration_q", "convolve", "modular_walk_pmf",
              "pmf_from_atoms", "q1_profile", "summary_moments", "tail_prob", "walk_pmf"],
    "bounds": ["BoundReport", "ExponentQuery", "anti_exponent_f", "branch_boundary",
               "combine_scales_rhs", "cosine_product_bound", "elo_bound",
               "hoeffding_tail", "kochen_stone_ratio", "local_clt_approx",
               "lower_anti_floor", "make_report", "modular_elo_bound",
               "rademacher_point_mass"],
    "mc": ["CoupledPair", "FitResult", "McRunManifest", "Q1Estimate", "RecurrenceStats",
           "TwoDEmbedding", "block_pair_trace", "embed_2d", "estimate_interval_hits",
           "estimate_q1", "fit_exponent", "kochen_stone_estimate", "replay_final_gap",
           "simulate_coupling", "simulate_walk"],
    "verify": ["SUITES", "VerifySuiteResult", "run_suite"],
}
ALL = [name for names in EXPORTED.values() for name in names]

# layers that `dist`, `gen` and `bounds` never run
UNUSED_BY_EXACT_COMMANDS = ("mpmath", "rlab.mc", "rlab.verify", "rlab.streams",
                            "concurrent.futures")

# TestPinnedSignResults.test_coupling's manifest and result
COUPLING = {"master_seed": 13, "replicates": 20, "horizon": 1,
            "spec": {"family": "power", "alpha": 0.5}, "experiment": "coupling",
            "params": {"d": 1.0, "epsilon": 0.1}}
COUPLING_RESULT = {"kind": "mc_coupling", "d": 1.0, "epsilon": 0.1, "runs": 20,
                   "final_gap_in_range": 20, "episodes": 85,
                   "per_episode_win_rate": 20 / 85, "max_episodes": 11}

COLD_MAIN = """
import json, sys
import rlab.cli
codes = [rlab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def fresh_python(code, *args, timeout=120):
    """stdout of `code` run by a new interpreter that imports rlab from SRC."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cold_main(*argvs):
    """Exit codes of `rlab.cli.main` on each argv in one fresh interpreter, and
    the modules loaded after them."""
    out = json.loads(fresh_python(COLD_MAIN, json.dumps([[str(a) for a in argv]
                                                         for argv in argvs])))
    return out["codes"], set(out["loaded"])


@pytest.fixture
def inputs(tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("3\n1\n5\n3\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "sqrt_block"}))
    return tmp_path, seq, spec


class TestColdStart:
    @pytest.mark.parametrize("argv", [
        ["dist"], ["dist", "--mod", 7], ["gen"], ["bounds", "--check", "elo"],
        ["bounds", "--check", "modular-elo", "--m", 7], ["bounds", "--exponent"],
    ], ids=["dist", "dist_mod", "gen", "bounds_elo", "bounds_modular_elo",
            "bounds_exponent"])
    def test_exact_commands_load_no_monte_carlo(self, inputs, argv):
        tmp_path, seq, spec = inputs
        extra = {"dist": ["--seq", seq], "gen": ["--spec", spec, "--n", 20],
                 "bounds": ["--alpha", 1] if "--exponent" in argv else ["--seq", seq]}
        out = tmp_path / "out.txt"
        codes, loaded = cold_main([*argv, *extra[argv[0]], "--out", out])
        assert codes == [0] and out.stat().st_size > 0
        assert loaded.isdisjoint(UNUSED_BY_EXACT_COMMANDS), \
            sorted(loaded & set(UNUSED_BY_EXACT_COMMANDS))

    def test_verify_fit_and_interval_hits_load_no_mpmath(self, tmp_path):
        manifest, points = tmp_path / "hits.json", tmp_path / "points.csv"
        manifest.write_text(json.dumps({
            "master_seed": 29, "replicates": 300, "horizon": 170,
            "spec": {"family": "sqrt_block"}, "experiment": "interval_hits",
            "params": {"block_ks": [1, 2], "C": 1}}))
        points.write_text("10,0.3\n20,0.21\n40,0.15\n")
        codes, loaded = cold_main(
            ["verify", "--suite", "local_clt", "--out", tmp_path / "v.json"],
            ["fit", "--points", points, "--out", tmp_path / "f.json"],
            ["mc", "--manifest", manifest, "--threads", 2, "--out", tmp_path / "m.json"])
        assert codes == [0, 0, 0]
        assert {"rlab.verify", "rlab.mc"} <= loaded and "mpmath" not in loaded

    def test_coupling_loads_mpmath_and_replays(self, tmp_path):
        manifest, first, again = (tmp_path / name for name in
                                  ("cpl.json", "cpl-report.json", "replay.json"))
        manifest.write_text(json.dumps(COUPLING))
        codes, loaded = cold_main(["mc", "--manifest", manifest, "--out", first],
                                  ["mc", "--manifest", first, "--out", again])
        assert codes == [0, 0] and "mpmath" in loaded
        results = [json.loads(path.read_text())["result"] for path in (first, again)]
        for result in results:
            del result["mc_manifest"], result["generator"]
        assert results == [COUPLING_RESULT] * 2


class TestPublicApi:
    def test_every_name_resolves_to_its_module_object(self):
        for module, names in EXPORTED.items():
            home = importlib.import_module(f"rlab.{module}")
            for name in names:
                assert getattr(rlab, name) is getattr(home, name), name

    def test_all_dir_and_star_import(self):
        assert rlab.__all__ == ALL
        assert set(ALL) <= set(dir(rlab))
        namespace = {}
        exec("from rlab import *", namespace)
        assert {name: namespace[name] for name in ALL} == \
            {name: getattr(rlab, name) for name in ALL}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            rlab.nope
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            rlab.cli.nope

    def test_imports_of_a_fresh_interpreter(self):
        # the submodules an eager `import rlab` bound, and the tracer's import
        out = fresh_python(
            "import sys, rlab\n"
            "assert 'rlab.exact' not in sys.modules\n"
            "mods = [rlab.errors, rlab.sequences, rlab.exact, rlab.bounds, rlab.mc,\n"
            "        rlab.streams, rlab.verify]\n"
            "from rlab import bounds, cli, exact, mc, sequences, verify\n"
            "assert cli.verify is verify and cli.mc is mc and cli.bounds is bounds\n"
            "print(rlab.walk_pmf is exact.walk_pmf, [m.__name__ for m in mods])")
        assert out.split(" ", 1) == [
            "True", "['rlab.errors', 'rlab.sequences', 'rlab.exact', 'rlab.bounds', "
            "'rlab.mc', 'rlab.streams', 'rlab.verify']\n"]

    @pytest.mark.skipif(not PERFBENCH.is_file(), reason="no perfbench next to src")
    @pytest.mark.parametrize("workload", ["exact_dist", "verify_sweep", "monte_carlo"])
    def test_perfbench_traces_every_workload(self, workload):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH), "--workload", workload, "--seed", "3",
             "--seconds", "0.01", "--trace", "1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"] and last["metrics"]["cli.main.calls"]["value"] > 0


class TestParserText:
    def test_names_match_their_modules(self):
        assert rlab.cli._CHECK_NAMES == tuple(rlab.bounds.CHECKS)
        assert rlab.cli._SUITE_NAMES == tuple(sorted(rlab.verify.SUITES))

    def test_help_and_choice_error_list_them(self, capsys):
        parser = rlab.cli.build_parser()
        commands = parser._subparsers._group_actions[0].choices
        [check] = [a for a in commands["bounds"]._actions if a.dest == "check"]
        assert check.help == " | ".join(rlab.bounds.CHECKS)
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--suite", "nope"])
        choices = ", ".join(map(repr, sorted(rlab.verify.SUITES)))
        assert f"invalid choice: 'nope' (choose from {choices})" in capsys.readouterr().err
