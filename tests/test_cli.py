import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rlab.bounds
import rlab.cli
import rlab.mc
import rlab.numtext
import rlab.verify
from rlab.cli import _json_default, emit_table, main
from rlab.verify import VerifySuiteResult


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n1\n5\n3\n")
    return path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "sqrt_block"}))
    return path


def load(path):
    return json.loads(path.read_text())


# exponents whose n-th step a sequence file cannot hold, refused before any
# step is built
EXPONENTS_PAST_RANGE = {
    "power_20000_digits": ({"family": "power", "alpha": 20000},
                           "power alpha 20000: step 3 has more than"),
    "power_1000.5_past_float_range": ({"family": "power", "alpha": 1000.5},
                                      "power alpha 1000.5: step 3 is past the float range"),
    "log_power_1e308_past_float_range": (
        {"family": "log_power", "alpha": 1e308},
        "log_power alpha 1e+308: step 3 is past the float range"),
}


class TestGen:
    def test_writes_sequence(self, tmp_path, spec_file):
        out = tmp_path / "seq.txt"
        assert run("gen", "--spec", spec_file, "--n", 6, "--out", out) == 0
        assert out.read_text().splitlines() == ["3", "1", "5", "3", "5", "3"]

    def test_missing_spec_file(self, tmp_path):
        assert run("gen", "--spec", tmp_path / "nope.json", "--n", 3) == 2

    # fast_block has no cover_confidence field: any value for it is an unknown key
    @pytest.mark.parametrize("spec,named", [
        ({"family": "power", "alpha": "x"}, "'x'"),
        ({"family": "power", "alpha": 1, "floor_values": "x"}, "'x'"),
        ({"family": "fast_block", "growth_fn": [1, "x"]}, "'x'"),
        ({"family": "fast_block", "growth_fn": [1.0], "cover_confidence": "x"},
         "unknown sequence spec keys: ['cover_confidence']"),
        ({"family": "custom", "custom_values": "x"}, "'x'"),
    ], ids=["alpha", "floor_values", "growth_fn", "cover_confidence", "custom_values"])
    def test_malformed_spec_value_exits_2(self, tmp_path, capsys, spec, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run("gen", "--spec", path, "--n", 3) == 2
        err = capsys.readouterr().err
        assert "rlab: error:" in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", [
        {"family": "power", "alpha": 0.5},
        {"family": "sqrt_block"},
    ], ids=["power", "sqrt_block"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, spec):
        # power alpha 0.5 starts 1.0, 1.414..., 1.732..., 2.0: whole floats print as ints
        path, out = tmp_path / "spec.json", tmp_path / "seq.txt"
        path.write_text(json.dumps(spec))
        assert run("gen", "--spec", path, "--n", 9) == 0
        printed = capsys.readouterr().out
        assert run("gen", "--spec", path, "--n", 9, "--out", out) == 0
        assert printed.encode() == out.read_bytes()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spec,message", [
        ({"family": "fast_block", "growth_fn": [1.0], "cover_confidence": 1.5},
         "unknown sequence spec keys: ['cover_confidence']"),
        ({"family": "fast_block", "growth_fn": [2.0, 1.0]},
         "growth_fn table must be non-decreasing"),
        ({"family": "geometric", "growth_fn": [0.5, 2.0]},
         "geometric family requires growth_fn >= 1"),
        ({"family": "constant", "alpha": -1}, "constant family requires a non-negative level"),
        ({"family": "custom", "custom_values": [1, -2, 3]}, "custom step 2 is negative"),
        ({"family": "power"}, "power family requires alpha"),
        *EXPONENTS_PAST_RANGE.values(),
    ], ids=["cover_confidence", "growth_fn_decreasing", "geometric_below_1",
            "constant_negative", "custom_negative", "power_without_alpha",
            *EXPONENTS_PAST_RANGE])
    def test_out_of_range_spec_value_exits_2(self, tmp_path, capsys, spec, message):
        path, out = tmp_path / "spec.json", tmp_path / "seq.txt"
        path.write_text(json.dumps(spec))
        assert run("gen", "--spec", path, "--n", 3, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rlab: error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_fast_block_reaches_past_its_second_block(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "fast_block", "growth_fn": [1, 2, 4, 8]}))
        assert run("gen", "--spec", path, "--n", 100) == 0
        assert capsys.readouterr().out.splitlines() == ["3", "2"] + ["9", "8"] * 49

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"family": ')
        assert run("gen", "--spec", path, "--n", 3) == 2
        assert "malformed JSON" in capsys.readouterr().err
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": ')
        assert run("dist", "--seq", seq, "--n", 3) == 2


class TestDist:
    def test_report_shape(self, tmp_path, seq_file):
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", seq_file, "--n", 2, "--q", 1, "--out", out) == 0
        rep = load(out)
        assert rep["tool_version"] == rep["manifest"]["tool_version"]
        assert rep["manifest"]["created_at"].endswith("+00:00")
        res = rep["result"]
        assert res["support"] == [-4, -2, 2, 4]
        assert res["probs"] == [0.25, 0.25, 0.25, 0.25]
        assert res["q"]["value"] == 0.25

    def test_exact_mode_serializes_fractions(self, tmp_path, seq_file):
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", seq_file, "--n", 2, "--exact", "--out", out) == 0
        res = load(out)["result"]
        assert res["probs"] == ["1/4", "1/4", "1/4", "1/4"]
        assert res["q"]["value"] == "1/4"

    def test_rational_law_sums_to_one_on_the_float_support(self, tmp_path, spec_file):
        floats, rational = tmp_path / "pmf.json", tmp_path / "exact.json"
        assert run("dist", "--seq", spec_file, "--n", 30, "--out", floats) == 0
        assert run("dist", "--seq", spec_file, "--n", 30, "--exact", "--out", rational) == 0
        law = load(rational)["result"]
        assert sum(map(Fraction, law["probs"])) == 1
        assert law["support"] == load(floats)["result"]["support"]

    def test_modular_mode(self, tmp_path, seq_file):
        out = tmp_path / "mod.json"
        assert run("dist", "--seq", seq_file, "--n", 2, "--mod", 4, "--out", out) == 0
        res = load(out)["result"]
        assert res["kind"] == "modular_dist"
        assert res["probs"] == [0.5, 0.0, 0.5, 0.0]

    def test_missing_input_exits_2(self, tmp_path):
        assert run("dist", "--seq", tmp_path / "missing.txt", "--n", 2) == 2

    @pytest.mark.parametrize("spec, message", EXPONENTS_PAST_RANGE.values(),
                             ids=EXPONENTS_PAST_RANGE.keys())
    def test_exponent_past_step_range_exits_2(self, tmp_path, capsys, spec, message):
        path, out = tmp_path / "spec.json", tmp_path / "pmf.json"
        path.write_text(json.dumps(spec))
        assert run("dist", "--seq", path, "--n", 3, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rlab: error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_spec_json_as_sequence_source(self, tmp_path, spec_file):
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", spec_file, "--n", 3, "--out", out) == 0
        assert load(out)["result"]["steps_applied"] == 3

    def test_support_cap_env_exits_3_without_partial_file(self, tmp_path, seq_file,
                                                          monkeypatch):
        monkeypatch.setenv("RLAB_SUPPORT_CAP", "3")
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", seq_file, "--n", 4, "--out", out) == 3
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp*"))

    def test_unwritable_report_exits_2_without_temp_file(self, tmp_path, seq_file):
        out = tmp_path / "taken"
        out.mkdir()
        assert run("dist", "--seq", seq_file, "--n", 2, "--out", out) == 2
        assert out.is_dir() and not list(tmp_path.glob("*.tmp*"))

    def test_malformed_support_cap_env_exits_2(self, seq_file, monkeypatch, capsys):
        monkeypatch.setenv("RLAB_SUPPORT_CAP", "abc")
        assert run("dist", "--seq", seq_file, "--n", 2) == 2
        err = capsys.readouterr().err
        assert "rlab: error:" in err and "'abc'" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "rational"])
    def test_support_beyond_int64_exits_3(self, tmp_path, mode):
        seq = tmp_path / "huge.txt"
        seq.write_text(f"{10**30}\n{3 * 10**30}\n")
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", seq, *mode, "--out", out) == 3
        assert not out.exists()

    @pytest.mark.parametrize("line", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["dist"],
        ["dist", "--mod", "5"],
        ["bounds", "--check", "modular-elo", "--m", "5"],
        ["bounds", "--check", "hoeffding"],
    ], ids=["dist", "dist_mod", "modular_elo", "hoeffding"])
    def test_non_finite_step_exits_2(self, tmp_path, capsys, argv, line):
        seq = tmp_path / "seq.txt"
        seq.write_text(f"3\n1\n{line}\n")
        assert run(*argv, "--seq", seq) == 2
        err = capsys.readouterr().err
        assert f"seq.txt:3: step '{line}' is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one_exits_2(self, tmp_path, capsys, seq_file, n):
        out = tmp_path / "pmf.json"
        assert run("dist", "--seq", seq_file, "--n", n, "--out", out) == 2
        err = capsys.readouterr().err
        assert "rlab: error: sequence length n must be >= 1" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("m", [0, 1])
    def test_modulus_below_two_exits_2(self, tmp_path, capsys, seq_file, m):
        # --mod 0 is a modulus too, not "no --mod"
        out = tmp_path / "mod.json"
        assert run("dist", "--seq", seq_file, "--n", 4, "--mod", m, "--out", out) == 2
        err = capsys.readouterr().err
        assert "rlab: error: modulus m must be >= 2" in err
        assert "Traceback" not in err and not out.exists()

    def test_exact_residues_rejected(self, tmp_path, seq_file):
        out = tmp_path / "mod.json"
        assert run("dist", "--seq", seq_file, "--n", 2, "--mod", 5, "--exact",
                   "--out", out) == 2
        assert not out.exists()


class TestBounds:
    def test_exponent_report(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run("bounds", "--exponent", "--alpha", 1, "--delta", 0,
                   "--gamma", 0.01, "--out", out) == 0
        res = load(out)["result"]
        assert res["f_value"] == 1.0
        assert res["exponent"] == pytest.approx(1.49)

    def test_modular_elo_check(self, tmp_path, seq_file):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "modular-elo", "--m", 7, "--seq", seq_file,
                   "--out", out) == 0
        res = load(out)["result"]
        assert res["satisfied"] is True
        assert res["compared_value"] <= res["params"]["cosine_bound"] + 1e-10
        assert res["params"]["cosine_bound"] <= res["bound_value"] + 1e-10

    def test_elo_check(self, tmp_path, seq_file):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "elo", "--seq", seq_file, "--out", out) == 0
        assert load(out)["result"]["satisfied"] is True

    def test_lower_anti_check(self, tmp_path, seq_file):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "lower-anti", "--seq", seq_file,
                   "--out", out) == 0
        res = load(out)["result"]
        assert res["satisfied"] is True  # floor <= exact Q1

    def test_hoeffding_check(self, tmp_path, seq_file):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "hoeffding", "--seq", seq_file, "--t", 1,
                   "--out", out) == 0
        assert load(out)["result"]["satisfied"] is True

    # results on seq_file; a floor check (lower-anti, paley-zygmund) reports
    # the exact quantity as bound_value and its floor as compared_value
    @pytest.mark.parametrize("argv,result", [
        (["elo"], {"bound_name": "elo", "params": {"n": 4, "c": 1},
                   "bound_value": 0.375, "bound_value_clamped": 0.375,
                   "compared_value": 0.125, "satisfied": True, "slack": 0.25}),
        (["modular-elo", "--m", 7],
         {"bound_name": "modular-elo",
          "params": {"m": 7, "n": 4, "cosine_bound": 0.2052492715613381},
          "bound_value": 0.5417994232585756,
          "bound_value_clamped": 0.5417994232585756, "compared_value": 0.1875,
          "satisfied": True, "slack": 0.35429942325857555}),
        (["lower-anti"],
         {"bound_name": "lower-anti",
          "params": {"n": 4, "variance": 44.0, "floor": 0.026785714285714284,
                     "q1": 0.125},
          "bound_value": 0.125, "bound_value_clamped": 0.125,
          "compared_value": 0.026785714285714284, "satisfied": True,
          "slack": 0.09821428571428571}),
        (["hoeffding", "--t", 1],
         {"bound_name": "hoeffding",
          "params": {"n": 4, "t": 1.0, "l2_norm": 6.6332495807108},
          "bound_value": 0.6065306597126334,
          "bound_value_clamped": 0.6065306597126334, "compared_value": 0.125,
          "satisfied": True, "slack": 0.4815306597126334}),
        (["paley-zygmund"],
         {"bound_name": "paley-zygmund",
          "params": {"n": 4, "l2_norm": 6.6332495807108},
          "bound_value": 0.75, "bound_value_clamped": 0.75,
          "compared_value": 0.1875, "satisfied": True, "slack": 0.5625}),
    ], ids=["elo", "modular_elo", "lower_anti", "hoeffding", "paley_zygmund"])
    def test_check_result_pinned(self, tmp_path, seq_file, argv, result):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", *argv, "--seq", seq_file, "--out", out) == 0
        assert load(out)["result"] == {"kind": "bound", **result}

    @pytest.mark.parametrize("name", list(rlab.bounds.CHECKS))
    def test_every_check_satisfied_on_sqrt_block(self, tmp_path, spec_file, name):
        flags = ["--m", 17] if "m" in rlab.bounds.CHECKS[name][1] else []
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", name, *flags, "--seq", spec_file, "--n", 30,
                   "--out", out) == 0
        assert load(out)["result"]["satisfied"] is True

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_hoeffding_non_finite_t_exits_2(self, tmp_path, capsys, seq_file, t):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "hoeffding", "--seq", seq_file, "--t", t,
                   "--out", out) == 2
        assert "t must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--check", "elo", "--m", 5],
        ["--check", "elo", "--t", 9],
        ["--check", "lower-anti", "--t", 1],
        ["--check", "paley-zygmund", "--m", 5],
        ["--check", "hoeffding", "--m", 5],
        ["--check", "modular-elo", "--m", 7, "--t", 1],
        ["--check", "elo", "--exponent", "--alpha", 1],
        ["--check", "modular-elo"],
        ["--check", "elo", "--alpha", 1],
        ["--check", "elo", "--delta", 3],
        ["--check", "hoeffding", "--gamma", 0.5],
        ["--exponent", "--alpha", 1],
        ["--check", "elo", "--n", 0],
        ["--check", "elo", "--n", -2],
    ], ids=["elo_m", "elo_t", "lower_anti_t", "paley_zygmund_m", "hoeffding_m",
            "modular_elo_t", "check_with_exponent", "modular_elo_without_m",
            "check_alpha", "check_delta", "check_gamma", "exponent_seq", "n_zero",
            "n_negative"])
    def test_flag_mismatch_exits_2(self, tmp_path, capsys, seq_file, argv):
        out = tmp_path / "rep.json"
        assert run("bounds", *argv, "--seq", seq_file, "--out", out) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seq", "nope.txt"), ("--n", 4), ("--m", 3), ("--t", 5)])
    def test_exponent_rejects_check_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "exp.json"
        assert run("bounds", "--exponent", "--alpha", 1, flag, value, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"--exponent does not read {flag}" in err and "Traceback" not in err
        assert not out.exists()

    def test_exponent_defaults_recorded(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run("bounds", "--exponent", "--alpha", 1, "--out", out) == 0
        report = load(out)
        assert report["manifest"]["inputs"] == {"alpha": 1.0, "delta": 0.0, "gamma": 0.01}
        assert (report["result"]["delta"], report["result"]["gamma"]) == (0.0, 0.01)

    def test_unknown_check_exits_2(self, tmp_path, capsys, seq_file):
        out = tmp_path / "rep.json"
        assert run("bounds", "--check", "nope", "--seq", seq_file, "--out", out) == 2
        assert "unknown bound check 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_coprimality_violation_exits_2(self, tmp_path, seq_file):
        assert run("bounds", "--check", "modular-elo", "--m", 3, "--seq",
                   seq_file) == 2  # steps 3 share a factor with 3

    def test_missing_mode_exits_2(self):
        assert run("bounds") == 2

    def test_exponent_without_alpha_exits_2(self, capsys):
        assert run("bounds", "--exponent") == 2
        err = capsys.readouterr().err
        assert "--exponent requires --alpha" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--alpha", "1", "--delta", "inf"],
        ["--alpha", "1", "--gamma", "nan"],
    ], ids=["alpha_nan", "alpha_inf", "delta_inf", "gamma_nan"])
    def test_non_finite_exponent_input_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "exp.json"
        assert run("bounds", "--exponent", *argv, "--out", out) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


def write_manifest(tmp_path, **overrides):
    body = {
        "master_seed": 99,
        "replicates": 4000,
        "horizon": 10,
        "spec": {"family": "sqrt_block"},
        "experiment": "interval_hits",
        "params": {"C": 0, "windows": [[1, 4]]},
    }
    body.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(body))
    return path


MC_CASES = {
    "interval_hits": {"params": {"C": 0, "windows": [[1, 4], [5, 9]]}},
    "q1_estimate": {"params": {"n": 6}},
    "embed2d": {"params": {"k": 1}},
    "coupling": {"params": {"d": 1.0, "epsilon": 0.1},
                 "spec": {"family": "power", "alpha": 0.5}},
}


class TestMc:
    def test_interval_hits_report(self, tmp_path):
        man = write_manifest(tmp_path)
        out = tmp_path / "stats.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        rep = load(out)
        res = rep["result"]
        assert res["generator"].startswith("philox4x64")
        assert res["mc_manifest"]["master_seed"] == 99
        p = res["per_event"]["1"]["p_hat"]
        assert abs(p - 0.125) < 0.02

    def test_block_ks_windows(self, tmp_path):
        man = write_manifest(tmp_path, horizon=170, replicates=500,
                             params={"C": 0, "block_ks": [1, 2]})
        out = tmp_path / "stats.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        assert set(load(out)["result"]["per_event"]) == {"1", "2"}

    @pytest.mark.parametrize("experiment", list(MC_CASES))
    def test_replay_from_report_is_bit_identical(self, tmp_path, experiment):
        man = write_manifest(tmp_path, experiment=experiment, replicates=50,
                             **MC_CASES[experiment])
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run("mc", "--manifest", man, "--out", out1) == 0
        assert run("mc", "--manifest", out1, "--out", out2) == 0
        assert json.dumps(load(out1)["result"], sort_keys=True) == \
            json.dumps(load(out2)["result"], sort_keys=True)

    @pytest.mark.parametrize("overrides", [
        {"master_seed": 7, "replicates": 200, "horizon": 170,
         "params": {"C": 0, "block_ks": [1, 2]}},
        {"master_seed": 7, "replicates": 200, "horizon": 170,
         "params": {"C": 2.5, "block_ks": [1, 2]}},
        {"master_seed": 11, "replicates": 5000, "horizon": 100,
         "experiment": "q1_estimate", "params": {"n": 100}},
    ], ids=["interval_hits", "fractional_C", "q1_estimate"])
    def test_two_thread_run_replays(self, tmp_path, overrides):
        man = write_manifest(tmp_path, **overrides)
        out, replay = tmp_path / "a.json", tmp_path / "b.json"
        assert run("mc", "--manifest", man, "--out", out, "--threads", 2) == 0
        assert run("mc", "--manifest", out, "--out", replay) == 0
        assert load(out)["result"] == load(replay)["result"]

    def test_log_power_coupling_replays_or_fails_alike(self, tmp_path, capsys):
        # a game whose values outgrow the horizon fails its whole run (exit 3, no
        # report), so each seed must repeat its outcome and each report must replay
        replayed = 0
        for seed in range(1, 9):
            man = write_manifest(tmp_path, master_seed=seed, replicates=3, horizon=1,
                                 spec={"family": "log_power", "alpha": 1},
                                 experiment="coupling", params={"d": 0.7, "epsilon": 0.2})
            out, replay = tmp_path / f"log{seed}.json", tmp_path / f"replay{seed}.json"
            code = run("mc", "--manifest", man, "--out", out)
            err = capsys.readouterr().err
            if code == 0:
                assert run("mc", "--manifest", out, "--out", replay) == 0
                assert load(out)["result"] == load(replay)["result"]
                replayed += 1
            else:
                assert code == 3 and not out.exists()
                assert run("mc", "--manifest", man, "--out", out) == 3
                assert capsys.readouterr().err == err and not out.exists()
        assert replayed >= 1

    def test_q1_experiment(self, tmp_path):
        man = write_manifest(tmp_path, experiment="q1_estimate",
                             params={"n": 4}, replicates=2000)
        out = tmp_path / "q1.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        assert 0 < load(out)["result"]["q1_hat"] < 1

    def test_embed2d_experiment(self, tmp_path):
        man = write_manifest(tmp_path, experiment="embed2d", replicates=50,
                             params={"k": 1})
        out = tmp_path / "emb.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        assert load(out)["result"]["fidelity_mismatches"] == 0

    def test_coupling_experiment(self, tmp_path):
        man = write_manifest(tmp_path, experiment="coupling", replicates=50,
                             spec={"family": "power", "alpha": 0.5},
                             params={"d": 1.0, "epsilon": 0.1})
        out = tmp_path / "cpl.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        res = load(out)["result"]
        assert res["final_gap_in_range"] == 50
        assert res["per_episode_win_rate"] >= 0.15

    def test_replayed_report_without_object_result_exits_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"manifest": {}, "result": [1, 2]}))
        assert run("mc", "--manifest", path) == 2
        err = capsys.readouterr().err
        assert "rlab: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment,params,name", [
        ("q1_estimate", {"n": "x"}, "n"),
        ("interval_hits", {"C": "x", "windows": [[1, 4]]}, "C"),
        ("interval_hits", {"windows": [["x", 4]]}, "windows"),
        ("interval_hits", {"windows": 5}, "windows"),
        ("interval_hits", {"block_ks": [1, None]}, "block_ks"),
        ("coupling", {"epsilon": "x"}, "epsilon"),
        ("q1_estimate", {"n": 4.7}, "n"),
        ("q1_estimate", {"n": True}, "n"),
        ("interval_hits", {"windows": [[1.9, 4.2]]}, "windows"),
        ("embed2d", {"k": 1.5}, "k"),
        ("coupling", {"d": True}, "d"),
        ("coupling", {"horizon": 0}, "horizon"),
        ("coupling", {"dps": 0}, "dps"),
        ("interval_hits", {"windows": [[1, 4]], "block_ks": [1]}, "block_ks"),
        ("coupling", {"d": 1.0, "eps": 0.5}, "eps"),
        ("q1_estimate", {"n": 4, "replicates": 5}, "replicates"),
        # an integer walk would compare against floor(C) exactly, but C is a number
        ("interval_hits", {"C": 10**400, "windows": [[1, 4]]}, "C"),
        ("coupling", {"dps": 2**63}, "dps"),
    ], ids=["n", "C", "window_value", "windows_not_pairs", "block_ks", "epsilon",
            "n_fraction", "n_bool", "window_fraction", "k_fraction", "d_bool",
            "horizon_zero", "dps_zero", "windows_and_block_ks", "unknown_eps",
            "unknown_replicates", "C_past_float_range", "dps_2_63"])
    def test_malformed_param_exits_2(self, tmp_path, capsys, experiment, params, name):
        man = write_manifest(tmp_path, experiment=experiment, params=params)
        assert run("mc", "--manifest", man) == 2
        err = capsys.readouterr().err
        assert "rlab: error:" in err and f"params.{name}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides,message", [
        ({"replicates": 0}, "replicates must be >= 1"),
        ({"horizon": 0}, "horizon must be >= 1"),
        # substreams key the seed modulo 2^64: 2^64 + 1 would replay seed 1
        ({"master_seed": 2**64 + 1}, "master_seed must lie in [0, 2**64)"),
        ({"master_seed": -1}, "master_seed must lie in [0, 2**64)"),
        ({"params": {"C": -1, "windows": [[1, 4]]}}, "C must be non-negative"),
        ({"experiment": "q1_estimate", "params": {"n": 11}}, "n=11 outside 1..10"),
        ({"experiment": "embed2d", "params": {"k": 2}},
         "horizon 10 does not reach block end 170"),
        # the block end is checked before the steps are read
        ({"experiment": "embed2d", "params": {"k": 1}, "horizon": 3,
          "spec": {"family": "custom", "custom_values": [2**62, 1, 1]}},
         "horizon 3 does not reach block end 10"),
        ({"spec": {"family": "sqrt_block"}},
         "family 'sqrt_block' does not provide unbounded steps with vanishing gaps"),
        ({"spec": {"family": "power", "alpha": 0.5, "floor_values": True}},
         "floored power steps have unit gaps"),
        ({"spec": {"family": "power", "alpha": 1.5}},
         "coupling requires power alpha in (0, 1)"),
        ({"spec": {"family": "log_power", "alpha": 1, "floor_values": True}},
         "floored log-power steps have integer gaps"),
        ({"spec": {"family": "custom", "custom_values": [1, 2]}},
         "custom coupling sequence needs >= 3 values"),
    ], ids=["zero_replicates", "zero_horizon", "seed_past_2_64", "negative_seed", "negative_C", "q1_past_horizon",
            "embed2d_past_horizon", "embed2d_huge_steps_past_horizon",
            "coupling_sqrt_block", "coupling_floored_power",
            "coupling_power_1.5", "coupling_floored_log_power", "coupling_custom_2_values"])
    def test_out_of_range_run_exits_2(self, tmp_path, capsys, overrides, message):
        if "spec" in overrides:
            overrides = {"experiment": "coupling", "params": {"d": 1.0, "epsilon": 0.1},
                         **overrides}
        man = write_manifest(tmp_path, **overrides)
        out = tmp_path / "report.json"
        assert run("mc", "--manifest", man, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"rlab: error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment,params,name", [
        ("interval_hits", {"C": math.nan, "windows": [[1, 4]]}, "C"),
        ("interval_hits", {"C": math.inf, "windows": [[1, 4]]}, "C"),
        ("coupling", {"epsilon": math.inf}, "epsilon"),
        ("coupling", {"d": math.nan}, "d"),
        ("coupling", {"d": -math.inf}, "d"),
        ("interval_hits", {"C": 10**400, "windows": [[1, 4]]}, "C"),
    ], ids=["C_nan", "C_inf", "epsilon_inf", "d_nan", "d_minus_inf", "C_past_float_range"])
    def test_non_finite_param_exits_2(self, tmp_path, capsys, experiment, params, name):
        man = write_manifest(tmp_path, experiment=experiment, params=params,
                             spec={"family": "power", "alpha": 0.5})
        out = tmp_path / "report.json"
        assert run("mc", "--manifest", man, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"malformed manifest params.{name}" in err and "Traceback" not in err
        assert not out.exists()

    # the cap is rlab.mc.MAX_DPS = 10,000 digits
    @pytest.mark.parametrize("dps, code", [(10_000, 0), (10_001, 2)], ids=["at_cap", "past_cap"])
    def test_dps_cap(self, tmp_path, capsys, dps, code):
        man = write_manifest(tmp_path, experiment="coupling", replicates=1,
                             spec={"family": "power", "alpha": 0.5},
                             params={"d": 1.0, "epsilon": 0.1, "dps": dps})
        out = tmp_path / "report.json"
        assert run("mc", "--manifest", man, "--out", out) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"rlab: error: malformed manifest params.dps: {dps}\n"
            assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_run(self, tmp_path, seed):
        man = write_manifest(tmp_path, master_seed=seed, replicates=20)
        assert run("mc", "--manifest", man) == 0

    @pytest.mark.parametrize("experiment,params", [
        ("embed2d", {"k": 2**63}),
        ("interval_hits", {"C": 0, "block_ks": [1, 2**63]}),
    ], ids=["embed2d_k", "block_ks"])
    def test_huge_block_index_exits_2_at_once(self, tmp_path, experiment, params):
        # block 2k ends near 4^(2k) / 6, a number this k cannot build; a child
        # process with a timeout keeps a regression from hanging the suite
        man = write_manifest(tmp_path, experiment=experiment, params=params)
        src = str(Path(rlab.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "rlab.cli", "mc", "--manifest", str(man)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert f"rlab: error: horizon 10 does not reach block {2**64}" in proc.stderr

    def test_replayed_report_with_unread_spec_field_exits_2(self, tmp_path, capsys):
        # a report written before specs rejected the fields their family never reads
        man = write_manifest(tmp_path)
        out = tmp_path / "report.json"
        assert run("mc", "--manifest", man, "--out", out) == 0
        report = load(out)
        report["result"]["mc_manifest"]["spec"]["alpha"] = 0.5
        out.write_text(json.dumps(report))
        assert run("mc", "--manifest", out) == 2
        assert "sqrt_block does not read spec.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,params,code", [
        ("interval_hits", {"C": 0, "windows": [[1, 2]]}, 0),
        ("interval_hits", {"C": 0, "windows": [[1, 3]]}, 3),
        ("q1_estimate", {"n": 2}, 0),
        ("q1_estimate", {"n": 3}, 3),
    ], ids=["window_before_big_step", "window_on_big_step", "q1_before_big_step",
            "q1_on_big_step"])
    def test_int64_guard_reads_only_the_steps_used(self, tmp_path, capsys,
                                                   experiment, params, code):
        man = write_manifest(tmp_path, experiment=experiment, horizon=3,
                             replicates=400, params=params,
                             spec={"family": "custom", "custom_values": [1, 1, 2**62]})
        out = tmp_path / "report.json"
        assert run("mc", "--manifest", man, "--out", out) == code
        if code == 3:
            assert "overflow 64-bit" in capsys.readouterr().err
            assert not out.exists()
            return
        # X_2 is 0 with probability 1/2, and X_1 never is
        res = load(out)["result"]
        p_hat = res["per_event"]["1"]["p_hat"] if "per_event" in res else res["q1_hat"]
        assert abs(p_hat - 0.5) < 0.1

    @pytest.mark.parametrize("experiment, params", [
        ("interval_hits", {"C": 0, "block_ks": [1, 2, 3]}),
        ("q1_estimate", {"n": 2730}),
        ("embed2d", {"k": 3}),
    ])
    def test_result_same_for_any_thread_count(self, tmp_path, monkeypatch, experiment,
                                              params):
        # 2,000 replicates of 2,730 signs (block k = 3 ends at step 2,730) span
        # three blocks; three usable CPUs let three threads run two workers
        monkeypatch.setattr(rlab.mc, "_usable_cpus", lambda: 3)
        man = write_manifest(tmp_path, experiment=experiment, replicates=2000,
                             horizon=2730, params=params)
        results = []
        for threads in (1, 2, 3):
            out = tmp_path / f"report{threads}.json"
            assert run("mc", "--manifest", man, "--out", out, "--threads", threads) == 0
            report = load(out)
            assert report["manifest"]["inputs"]["threads"] == threads
            results.append(json.dumps(report["result"], sort_keys=True))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_threads_exits_2(self, tmp_path, capsys, threads):
        man = write_manifest(tmp_path)
        assert run("mc", "--manifest", man, "--threads", threads) == 2
        assert "--threads" in capsys.readouterr().err

    def test_bad_manifest_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"master_seed": 1}))
        assert run("mc", "--manifest", path) == 2

    @pytest.mark.parametrize("body", [
        '{"master_seed": 99, "replicates": 40',
        "42",
        json.dumps({"master_seed": 99, "replicates": 1.9, "horizon": 10,
                    "spec": {"family": "sqrt_block"}, "experiment": "q1_estimate",
                    "params": {"n": 5}}),
        json.dumps({"master_seed": 99, "replicates": 10, "horizon": 10,
                    "spec": {"family": "sqrt_block"}, "experiment": "q1_estimate",
                    "params": [5]}),
        json.dumps({"master_seed": 99, "replicates": 10, "horizon": 10,
                    "spec": "sqrt_block", "experiment": "q1_estimate",
                    "params": {"n": 5}}),
        json.dumps({"master_seed": 99, "replicates": 10, "horizon": 10,
                    "spec": {"family": "sqrt_block"}, "experiment": "q1_estimate",
                    "params": {"n": 5}, "extra": 1}),
    ], ids=["truncated", "not_object", "fractional_replicates", "params_not_object",
            "spec_not_object", "unknown_key"])
    def test_malformed_manifest_exits_2(self, tmp_path, body, capsys):
        path = tmp_path / "bad.json"
        path.write_text(body)
        assert run("mc", "--manifest", path) == 2
        assert "rlab: error:" in capsys.readouterr().err


class TestFitAndFormats:
    def test_fit_roundtrip(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("n,value\n" + "".join(f"{n},{n**-1.5}\n" for n in (50, 100, 200, 400)))
        out = tmp_path / "fit.json"
        assert run("fit", "--points", pts, "--out", out) == 0
        assert load(out)["result"]["slope"] == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("row,message", [
        ("a,b", "expected 'n,value', not 'a,b'"),
        ("4", "expected 'n,value', not '4'"),
        ("4,nan", "'4,nan' is not finite"),
        ("inf,0.5", "'inf,0.5' is not finite"),
    ], ids=["unparsable", "one_column", "nan_value", "inf_n"])
    def test_bad_point_exits_2(self, tmp_path, capsys, row, message):
        pts = tmp_path / "points.csv"
        pts.write_text(f"n,value\n2,0.25\n{row}\n8,0.015625\n16,0.004\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--points", pts, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"points.csv:3: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_fit_csv_projection(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("2,0.25\n4,0.0625\n8,0.015625\n")
        out = tmp_path / "fit.csv"
        assert run("fit", "--points", pts, "--out", out, "--format", "csv") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,q1,log_n,log_q1"
        assert lines[-3].startswith("slope,-2")
        assert lines[-1].startswith("r2,1")

    def test_modular_csv_projection(self, tmp_path, seq_file):
        out = tmp_path / "mod.csv"
        assert run("dist", "--seq", seq_file, "--n", 2, "--mod", 4,
                   "--out", out, "--format", "csv") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "residue,prob"
        assert len(lines) == 5

    def test_interval_hits_csv_projection(self, tmp_path):
        man = write_manifest(tmp_path, replicates=400, horizon=170,
                             params={"C": 0, "block_ks": [1, 2]})
        report, table = tmp_path / "hits.json", tmp_path / "hits.csv"
        assert run("mc", "--manifest", man, "--out", report) == 0
        assert run("mc", "--manifest", man, "--out", table, "--format", "csv") == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "event,hits,replicates,p_hat,wilson_lo,wilson_hi"
        events = load(report)["result"]["per_event"]
        assert lines[1:] == [f"{k},{ev['hits']},{ev['replicates']},{ev['p_hat']:.12g},"
                             f"{ev['wilson_lo']:.12g},{ev['wilson_hi']:.12g}"
                             for k, ev in events.items()]

    def test_unknown_kind_header_only(self):
        text = emit_table({"result": {"kind": "mystery"}}, "csv")
        assert text.splitlines()[0] == "key,value"


class TestVerifyCommand:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run("verify", "--suite", "elo", "--max-n", 10, "--out", out) == 0
        res = load(out)["result"]
        assert res["cases_run"] > 0 and res["failures"] == []

    @pytest.mark.parametrize("argv", [
        ["--suite", "local_clt", "--max-n", 100],
        ["--suite", "elo", "--cases", 3],
        ["--suite", "exponent_fit", "--max-m", 5],
    ], ids=["local_clt_max_n", "elo_cases", "exponent_fit_max_m"])
    def test_knob_the_suite_does_not_read_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "v.json"
        assert run("verify", *argv, "--out", out) == 2
        assert "does not read --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--suite", "elo", "--max-n", 0],
        ["--suite", "hoeffding", "--max-n", -4],
        ["--suite", "combine_scales", "--cases", -1],
        ["--suite", "prefix", "--cases", 0],
        ["--suite", "modular_elo", "--max-m", 1],
        ["--suite", "modular_elo", "--max-m", 2],
        *(["--suite", name, "--seed", -1] for name in sorted(rlab.verify.SUITES)),
    ], ids=["elo_max_n_0", "hoeffding_max_n_minus_4", "combine_scales_cases_minus_1",
            "prefix_cases_0", "modular_elo_max_m_1", "modular_elo_max_m_2",
            *(f"{name}_seed_minus_1" for name in sorted(rlab.verify.SUITES))])
    def test_knob_below_its_least_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "v.json"
        assert run("verify", *argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "rlab: error:" in err and "must be at least" in err
        assert "Traceback" not in err and not out.exists()

    def test_every_suite_takes_seed(self, monkeypatch):
        seen = []
        monkeypatch.setattr(rlab.verify, "SUITES", {
            name: lambda seed=0, **_: seen.append(seed) or VerifySuiteResult("x", 1)
            for name in rlab.verify.SUITES})
        for name in rlab.verify.SUITES:
            assert run("verify", "--suite", name, "--seed", 5) == 0
        assert seen == [5] * len(rlab.verify.SUITES)

    def test_failures_exit_1(self, tmp_path, monkeypatch):
        def fake(name, **kw):
            return VerifySuiteResult("elo", 1, failures=["case x"])
        monkeypatch.setattr(rlab.verify, "run_suite", fake)
        monkeypatch.setattr("rlab.cli.verify.run_suite", fake)
        out = tmp_path / "v.json"
        assert run("verify", "--suite", "elo", "--out", out) == 1
        assert load(out)["result"]["failures"] == ["case x"]


class TestParserReuse:
    """`main` builds its parser once; each call still parses its argv afresh."""

    def test_parser_built_at_most_once(self, tmp_path, seq_file, monkeypatch):
        builds = []
        build = rlab.cli.build_parser
        monkeypatch.setattr(rlab.cli, "_parser", None)
        monkeypatch.setattr(rlab.cli, "build_parser",
                            lambda: builds.append(1) or build())
        for _ in range(3):
            assert run("dist", "--seq", seq_file, "--out", tmp_path / "d.json") == 0
            assert run("bounds", "--exponent", "--alpha", 1) == 0
            assert run("verify", "--suite", "elo", "--max-n", 3) == 0
        assert len(builds) == 1

    def test_format_does_not_leak_into_next_call(self, tmp_path, seq_file):
        csv_out, json_out = tmp_path / "d.csv", tmp_path / "d.json"
        assert run("dist", "--seq", seq_file, "--format", "csv", "--out", csv_out) == 0
        assert run("dist", "--seq", seq_file, "--out", json_out) == 0
        assert csv_out.read_text().startswith("value,prob\n")
        assert load(json_out)["result"]["kind"] == "dist"

    def test_delta_does_not_leak_into_next_call(self, tmp_path, seq_file, capsys):
        assert run("bounds", "--exponent", "--alpha", 1, "--delta", 0.1) == 0
        out = tmp_path / "elo.json"
        assert run("bounds", "--check", "elo", "--seq", seq_file, "--out", out) == 0
        assert "--delta" not in capsys.readouterr().err
        assert load(out)["manifest"]["inputs"]["check"] == "elo"

    def test_unknown_suite_exits_2_without_report(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        with pytest.raises(SystemExit) as exc:
            run("verify", "--suite", "nope", "--out", out)
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert not out.exists()


def _input_argv(command, path):
    """argv that reads `path` as the command's one input file."""
    return {"gen": ["gen", "--spec", path, "--n", 3],
            "dist": ["dist", "--seq", path, "--n", 2],
            "bounds": ["bounds", "--check", "elo", "--seq", path],
            "mc": ["mc", "--manifest", path],
            "fit": ["fit", "--points", path]}[command]


class TestFileEdge:
    """Every file the CLI reads or writes fails through the OS: exit 2, no report."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    @pytest.mark.parametrize("command", ["gen", "dist", "bounds", "mc", "fit"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe1\n2\n3\n")
        out = tmp_path / "report.out"
        assert run(*_input_argv(command, path), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("rlab: error: ") and "Traceback" not in err
        assert str(path) in err
        assert not out.exists() and not list(tmp_path.glob("*.tmp*"))

    @pytest.mark.parametrize("target", ["directory", "missing_parent"])
    @pytest.mark.parametrize("command", ["gen", "dist"])
    def test_unwritable_out_exits_2_without_temp_file(self, tmp_path, capsys, spec_file,
                                                      command, target):
        out = tmp_path / "taken"
        if target == "directory":
            out.mkdir()
        else:
            out = out / "seq.txt"
        assert run(*_input_argv(command, spec_file), "--out", out) == 2
        err = capsys.readouterr().err
        what = "sequence file" if command == "gen" else "report"
        assert err.startswith(f"rlab: error: cannot write {what} {out}: ")
        assert "Traceback" not in err and capsys.readouterr().out == ""
        assert (target == "directory") == out.is_dir()
        assert not list(tmp_path.rglob("*.tmp*"))


class TestInternalError:
    def test_unexpected_exception_exits_4_with_traceback(self, tmp_path, spec_file,
                                                         monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(rlab.cli, "cmd_gen", broken)
        assert run("gen", "--spec", spec_file, "--n", 5, "--out", tmp_path / "s.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith("rlab: internal error: RuntimeError: boom\n")
        assert "Traceback (most recent call last)" in err
        assert 'raise RuntimeError("boom")' in err


class TestArgparseContract:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("dist", "--bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--spec", "s.json", "--n", 3, "--exact"],
        ["gen", "--spec", "s.json", "--n", 3, "--format", "csv"],
        ["dist", "--seq", "s.txt", "--seed", 1],
        ["fit", "--points", "p.csv", "--threads", 2],
        ["bounds", "--exponent", "--alpha", 1, "--exact"],
        ["mc", "--manifest", "m.json", "--seed", 1],
        ["verify", "--suite", "elo", "--threads", 2],
    ], ids=["gen_exact", "gen_format", "dist_seed", "fit_threads", "bounds_exact",
            "mc_seed", "verify_threads"])
    def test_flag_of_another_subcommand_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2


def oracle(report):
    return json.dumps(report, indent=2, default=_json_default) + "\n"


# JSON values for the writer's property: every leaf type json.dumps takes,
# with default=_json_default, plus lists of one type (its bulk path).
SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf,
                                  5e-324, 1e308, 0.1, -2.5])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats())
INTS = st.integers(min_value=-2**70, max_value=2**70)
TEXTS = st.one_of(st.sampled_from(["", "\u00e9t\u00e9", "\U0001f600", 'a"b\\c',
                                   "tab\tnew\nline", "\x00\x1f\u2028"]),
                  st.text())
NUMPY_LEAVES = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=6).map(
        lambda v: np.array(v, dtype=np.int64)),
    FLOATS.map(np.array),
)
LEAVES = st.one_of(FLOATS, INTS, st.booleans(), st.none(), TEXTS, NUMPY_LEAVES,
                   st.fractions())
HOMOGENEOUS = st.one_of(
    st.lists(FLOATS, max_size=40),
    st.lists(SPECIAL_FLOATS, min_size=2, max_size=40),
    st.lists(INTS, max_size=20),
    st.lists(TEXTS, max_size=10),
    st.lists(st.booleans(), max_size=5),
)
KEYS = st.one_of(TEXTS, INTS, FLOATS, st.booleans(), st.none())
JSON_VALUES = st.recursive(
    st.one_of(LEAVES, HOMOGENEOUS, HOMOGENEOUS.map(tuple)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=25)


class TestJsonWriter:
    """The JSON writer gives json.dumps(indent=2)'s bytes, which stay its oracle."""

    @pytest.fixture
    def written(self, monkeypatch):
        seen = []

        def spy(report, fmt):
            text = emit_table(report, fmt)
            seen.append((report, text))
            return text
        monkeypatch.setattr(rlab.cli, "emit_table", spy)
        return seen

    @pytest.mark.parametrize("argv", [
        ["dist", "--seq", "{spec}", "--n", 24],
        ["dist", "--seq", "{seq}", "--n", 4, "--exact"],
        ["dist", "--seq", "{seq}", "--n", 4, "--mod", 6],
        ["bounds", "--check", "elo", "--seq", "{seq}"],
        ["bounds", "--check", "modular-elo", "--m", 7, "--seq", "{seq}"],
        ["bounds", "--check", "lower-anti", "--seq", "{seq}"],
        ["bounds", "--check", "hoeffding", "--seq", "{seq}", "--t", 1],
        ["bounds", "--check", "paley-zygmund", "--seq", "{seq}"],
        ["bounds", "--exponent", "--alpha", 0.7, "--delta", 0.1],
        ["mc", "--manifest", "{interval_hits}"],
        ["mc", "--manifest", "{q1_estimate}"],
        ["mc", "--manifest", "{embed2d}"],
        ["mc", "--manifest", "{coupling}"],
        ["fit", "--points", "{points}"],
        ["verify", "--suite", "elo", "--max-n", 8],
    ], ids=["dist", "dist_exact", "dist_mod", "elo", "modular_elo", "lower_anti",
            "hoeffding", "paley_zygmund", "exponent", "mc_interval_hits", "mc_q1_estimate",
            "mc_embed2d", "mc_coupling", "fit", "verify"])
    def test_real_reports_match_json_dumps(self, tmp_path, seq_file, written, argv):
        spec = tmp_path / "power.json"
        spec.write_text(json.dumps({"family": "power", "alpha": 1}))
        points = tmp_path / "points.csv"
        points.write_text("".join(f"{n},{n ** -1.5}\n" for n in (50, 100, 200)))
        files = {"spec": spec, "seq": seq_file, "points": points}
        for name, extra in MC_CASES.items():
            (tmp_path / name).mkdir()
            files[name] = write_manifest(tmp_path / name, replicates=20,
                                         experiment=name, **extra)
        out = tmp_path / "report.json"
        assert run(*[str(a).format(**files) for a in argv], "--out", out) == 0
        (report, text), = written
        assert text == oracle(report) == out.read_text()

    def test_long_power_law_report_matches_json_dumps(self, tmp_path, written):
        spec = tmp_path / "power.json"
        spec.write_text(json.dumps({"family": "power", "alpha": 1}))
        assert run("dist", "--seq", spec, "--n", 449, "--out", tmp_path / "r.json") == 0
        (report, text), = written
        assert len(report["result"]["probs"]) >= rlab.numtext.BULK_MIN
        # compared as lists of lines: pytest's diff of two 4 MB strings is slow
        assert text.split("\n") == oracle(report).split("\n")

    def test_dist_report_lists_are_plain_python(self, tmp_path, spec_file, written):
        assert run("dist", "--seq", spec_file, "--n", 12) == 0
        (report, _), = written
        res = report["result"]
        assert {type(v) for v in res["support"]} == {int}
        assert {type(p) for p in res["probs"]} == {float}

    @given(st.dictionaries(TEXTS, JSON_VALUES, max_size=4))
    def test_matches_json_dumps(self, report):
        assert emit_table(report, "json") == oracle(report)

    def test_unserialisable_values_raise_like_json(self):
        for bad in ({"x": object()}, {"x": [np.bool_(True)]}, {"x": {(1, 2): 3}}):
            with pytest.raises(TypeError):
                oracle(bad)
            with pytest.raises(TypeError):
                emit_table(bad, "json")
