import json
import os

import pytest

import rlab.verify
from rlab.cli import emit_table, main
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


class TestGen:
    def test_writes_sequence(self, tmp_path, spec_file):
        out = tmp_path / "seq.txt"
        assert run("gen", "--spec", spec_file, "--n", 6, "--out", out) == 0
        assert out.read_text().splitlines() == ["3", "1", "5", "3", "5", "3"]

    def test_missing_spec_file(self, tmp_path):
        assert run("gen", "--spec", tmp_path / "nope.json", "--n", 3) == 2

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

    def test_modular_mode(self, tmp_path, seq_file):
        out = tmp_path / "mod.json"
        assert run("dist", "--seq", seq_file, "--n", 2, "--mod", 4, "--out", out) == 0
        res = load(out)["result"]
        assert res["kind"] == "modular_dist"
        assert res["probs"] == [0.5, 0.0, 0.5, 0.0]

    def test_missing_input_exits_2(self, tmp_path):
        assert run("dist", "--seq", tmp_path / "missing.txt", "--n", 2) == 2

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

    def test_coprimality_violation_exits_2(self, tmp_path, seq_file):
        assert run("bounds", "--check", "modular-elo", "--m", 3, "--seq",
                   seq_file) == 2  # steps 3 share a factor with 3

    def test_missing_mode_exits_2(self):
        assert run("bounds") == 2


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

    def test_replay_from_report_is_bit_identical(self, tmp_path):
        man = write_manifest(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run("mc", "--manifest", man, "--out", out1) == 0
        assert run("mc", "--manifest", out1, "--out", out2) == 0
        assert json.dumps(load(out1)["result"], sort_keys=True) == \
            json.dumps(load(out2)["result"], sort_keys=True)

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
    ], ids=["truncated", "not_object", "fractional_replicates"])
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

    def test_unknown_kind_header_only(self):
        text = emit_table({"result": {"kind": "mystery"}}, "csv")
        assert text.splitlines()[0] == "key,value"


class TestVerifyCommand:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run("verify", "--suite", "elo", "--max-n", 10, "--out", out) == 0
        res = load(out)["result"]
        assert res["cases_run"] > 0 and res["failures"] == []

    def test_failures_exit_1(self, tmp_path, monkeypatch):
        def fake(name, **kw):
            return VerifySuiteResult("elo", 1, failures=["case x"])
        monkeypatch.setattr(rlab.verify, "run_suite", fake)
        monkeypatch.setattr("rlab.cli.verify.run_suite", fake)
        out = tmp_path / "v.json"
        assert run("verify", "--suite", "elo", "--out", out) == 1
        assert load(out)["result"]["failures"] == ["case x"]


class TestArgparseContract:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("dist", "--bogus")
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
